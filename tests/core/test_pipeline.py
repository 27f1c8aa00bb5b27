"""Tests for the end-to-end storage pipeline."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    ReadCluster,
    SequencingSimulator,
)
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig


@pytest.fixture
def config(small_matrix_config):
    return PipelineConfig(matrix=small_matrix_config, layout="baseline")


@pytest.fixture
def pipeline(config):
    return DnaStoragePipeline(config)


def _payload(pipeline, rng, slack=0):
    return rng.integers(0, 2, pipeline.capacity_bits - slack).astype(np.uint8)


def _noiseless_clusters(unit, rng):
    simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
    return simulator.sequence(unit.strands, rng)


class TestEncode:
    def test_strand_geometry(self, pipeline, rng):
        unit = pipeline.encode(_payload(pipeline, rng))
        config = pipeline.matrix_config
        assert len(unit.strands) == config.n_columns
        assert all(len(s) == config.strand_length for s in unit.strands)

    def test_capacity_enforced(self, pipeline, rng):
        with pytest.raises(ValueError):
            pipeline.encode(
                rng.integers(0, 2, pipeline.capacity_bits + 1).astype(np.uint8)
            )

    def test_index_occupies_strand_start(self, pipeline, rng):
        unit = pipeline.encode(_payload(pipeline, rng))
        from repro.codec import DirectCodec
        from repro.utils.bitio import unpack_uint
        codec = DirectCodec()
        for column, strand in enumerate(unit.strands):
            bits = codec.decode(strand)
            assert unpack_uint(bits[:8]) == column

    def test_parity_satisfies_rs(self, pipeline, rng):
        from repro.ecc import ReedSolomon
        unit = pipeline.encode(_payload(pipeline, rng))
        config = pipeline.matrix_config
        rs = ReedSolomon(config.m, nsym=config.nsym, n=config.n_columns)
        for row in range(config.payload_rows):
            assert rs.check(unit.matrix[row])  # baseline codewords are rows

    def test_ranking_must_match_length(self, pipeline, rng):
        bits = _payload(pipeline, rng, slack=10)
        with pytest.raises(ValueError):
            pipeline.encode(bits, ranking=np.arange(5))

    def test_partial_fill_pads_with_zeros(self, pipeline, rng):
        bits = _payload(pipeline, rng, slack=64)
        unit = pipeline.encode(bits)
        assert unit.n_data_bits == bits.size


class TestDecodeNoiseless:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper"])
    def test_roundtrip(self, small_matrix_config, layout, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=small_matrix_config, layout=layout)
        )
        bits = _payload(pipeline, rng, slack=24)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(_noiseless_clusters(unit, rng), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_roundtrip_with_ranking(self, pipeline, rng):
        bits = _payload(pipeline, rng, slack=16)
        ranking = rng.permutation(bits.size)
        unit = pipeline.encode(bits, ranking=ranking)
        decoded, _ = pipeline.decode(
            _noiseless_clusters(unit, rng), bits.size, ranking=ranking
        )
        np.testing.assert_array_equal(decoded, bits)

    def test_gini_excluded_rows_roundtrip(self, small_matrix_config, rng):
        pipeline = DnaStoragePipeline(PipelineConfig(
            matrix=small_matrix_config, layout="gini",
            gini_excluded_rows=(0, small_matrix_config.payload_rows - 1),
        ))
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(_noiseless_clusters(unit, rng), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)


class TestDecodeWithLosses:
    def test_erasures_corrected(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        for column in (3, 17, 40):  # lose three molecules entirely
            clusters[column] = ReadCluster(source_index=column, reads=[])
        decoded, report = pipeline.decode(clusters, bits.size)
        assert report.clean
        assert sorted(report.erased_columns) == [3, 17, 40]
        np.testing.assert_array_equal(decoded, bits)

    def test_too_many_erasures_fail(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        for column in range(13):  # nsym = 12: one too many
            clusters[column] = ReadCluster(source_index=column, reads=[])
        decoded, report = pipeline.decode(clusters, bits.size)
        assert not report.clean

    def test_extra_erasure_columns_reduce_effective_redundancy(
        self, pipeline, rng
    ):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        # Sacrificing 8 parity columns leaves effective nsym = 4 ...
        sacrificed = list(range(52, 60))
        for column in (3, 17, 40):
            clusters[column] = ReadCluster(source_index=column, reads=[])
        decoded, report = pipeline.decode(
            clusters, bits.size, extra_erasure_columns=sacrificed
        )
        # ... which still covers 3 real losses + 8 sacrificed erasures = 11 <= 12.
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_noisy_channel_roundtrip(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.06), FixedCoverage(10))
        clusters = simulator.sequence(unit.strands, rng)
        decoded, report = pipeline.decode(clusters, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_report_erasures_out_of_range_rejected(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        received = pipeline.receive(_noiseless_clusters(unit, rng))
        with pytest.raises(ValueError):
            pipeline.correct(received, bits.size, extra_erasure_columns=[60])


class TestReceive:
    def test_duplicate_index_keeps_first(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        # Make cluster 5 claim column 4's index by feeding it strand 4.
        clusters[5] = ReadCluster(source_index=5, reads=[unit.strands[4]])
        received = pipeline.receive(clusters)
        assert 4 in received.duplicate_columns
        assert 5 in received.erased_columns

    def test_invalid_index_dropped(self, small_matrix_config, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=small_matrix_config, layout="baseline")
        )
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        # An index value of 255 >= n_columns=60 must be rejected.
        bogus = "TTTT" + unit.strands[0][4:]
        clusters[0] = ReadCluster(source_index=0, reads=[bogus])
        received = pipeline.receive(clusters)
        assert received.invalid_strands == 1
        assert 0 in received.erased_columns

    def test_truncated_estimate_dropped_not_crash(self, pipeline, rng):
        """Regression: an estimate whose length is not a whole number of
        symbols used to crash the index parse with an opaque reshape
        ValueError; it must be dropped as unparseable like a bad index."""
        from repro.consensus import TwoWayReconstructor

        class TruncatingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                estimates = list(super().reconstruct_batch(batch, length))
                # Chop one base off the first consensus strand: its
                # length is no longer a multiple of bases-per-symbol.
                estimates[0] = estimates[0][:-1]
                return estimates

        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        truncating = DnaStoragePipeline(
            pipeline.config, reconstructor=TruncatingTwoWay()
        )
        received = truncating.receive(clusters)
        assert received.invalid_strands == 1
        assert len(received.erased_columns) == 1


class TestNoEccMode:
    def test_nsym_zero_roundtrip(self, rng):
        config = MatrixConfig(m=8, n_columns=30, nsym=0, payload_rows=6)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(_noiseless_clusters(unit, rng), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_nsym_zero_losses_pass_through(self, rng):
        config = MatrixConfig(m=8, n_columns=30, nsym=0, payload_rows=6)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config))
        bits = np.ones(pipeline.capacity_bits, dtype=np.uint8)
        unit = pipeline.encode(bits)
        clusters = _noiseless_clusters(unit, rng)
        clusters[2] = ReadCluster(source_index=2, reads=[])
        decoded, report = pipeline.decode(clusters, bits.size)
        assert report.clean  # no codewords exist to fail
        assert 2 in report.erased_columns
        assert not np.array_equal(decoded, bits)  # the lost column is gone
