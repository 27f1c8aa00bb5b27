"""Differential suite: store-plane batched decode == per-unit reference.

``DnaStore.read`` normalizes any input form into one spanning
``ReadBatch``, runs **one** consensus batch call over every surviving
cluster of every unit, and parses the whole estimate stack with array
operations (``pipeline.receive_many``).
``repro.core.reference._decode_units_reference`` is the frozen per-unit
loop it replaced. These tests pin the two byte-identical —
bits and per-unit reports — across layouts, dropout-heavy channels,
global rankings and confidence-threshold decoding, and pin the batched
encoder against the frozen per-cell loop encoder the same way.
"""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadBatch,
    ReadPool,
    SequencingSimulator,
)
from repro.consensus import PosteriorReconstructor, TwoWayReconstructor
from repro.core import MatrixConfig, PipelineConfig
from repro.core.ranking import proportional_share_ranking
from repro.core.reference import (
    _decode_units_reference,
    encode_loop_reference,
)
from repro.core.store import DnaStore, ReadRequest

CONFIG = PipelineConfig(
    matrix=MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8),
    layout="gini",
)


def assert_reports_equal(batched, reference):
    assert len(batched.unit_reports) == len(reference.unit_reports)
    for got, want in zip(batched.unit_reports, reference.unit_reports):
        assert got.erased_columns == want.erased_columns
        assert got.failed_codewords == want.failed_codewords
        assert got.corrected_symbols == want.corrected_symbols


def make_store_case(rng, config=CONFIG, n_units_fraction=3.4, rate=0.05,
                    coverage=8, reconstructor=None):
    store = DnaStore(config, reconstructor=reconstructor)
    bits = rng.integers(
        0, 2, int(n_units_fraction * store.unit_capacity_bits)
    ).astype(np.uint8)
    image = store.encode(bits)
    simulator = SequencingSimulator(
        ErrorModel.uniform(rate), FixedCoverage(coverage)
    )
    batch = simulator.sequence_store(image, rng=rng)
    return store, bits, image, batch


class TestBatchedEncode:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper",
                                        "random"])
    def test_encode_matches_loop_reference(self, rng, layout):
        config = PipelineConfig(matrix=CONFIG.matrix, layout=layout)
        store = DnaStore(config)
        bits = rng.integers(0, 2, store.unit_capacity_bits - 11).astype(np.uint8)
        batched = store.pipeline.encode(bits)
        reference = encode_loop_reference(store.pipeline, bits)
        assert batched.strands == reference.strands
        np.testing.assert_array_equal(batched.matrix, reference.matrix)
        assert batched.n_data_bits == reference.n_data_bits

    def test_encode_with_ranking_matches_loop_reference(self, rng):
        pipeline = DnaStore(CONFIG).pipeline
        bits = rng.integers(0, 2, pipeline.capacity_bits // 2).astype(np.uint8)
        ranking = rng.permutation(bits.size)
        batched = pipeline.encode(bits, ranking=ranking)
        reference = encode_loop_reference(pipeline, bits, ranking=ranking)
        assert batched.strands == reference.strands
        np.testing.assert_array_equal(batched.matrix, reference.matrix)

    def test_store_encode_matches_per_unit_loop(self, rng):
        store = DnaStore(CONFIG)
        n_units = 3
        bits = rng.integers(
            0, 2, int(2.5 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == n_units
        padded = np.zeros(n_units * store.unit_capacity_bits, dtype=np.uint8)
        padded[: bits.size] = bits
        for u, unit in enumerate(image.units):
            reference = encode_loop_reference(
                store.pipeline,
                padded[u::n_units][: len(range(u, bits.size, n_units))]
            )
            assert unit.strands == reference.strands
            np.testing.assert_array_equal(unit.matrix, reference.matrix)


class TestBatchedDecodeDifferential:
    def test_multi_unit_spanning_batch(self, rng):
        store, bits, _, batch = make_store_case(rng)
        got_bits, got_report = store.read(ReadRequest(batch, bits.size))
        want_bits, want_report = _decode_units_reference(
            store, batch, bits.size
        )
        np.testing.assert_array_equal(got_bits, want_bits)
        assert_reports_equal(got_report, want_report)

    def test_dropout_heavy(self, rng):
        """Gamma coverage with a low mean loses whole clusters; lost
        clusters, erased columns and invalid strands must agree."""
        store = DnaStore(CONFIG)
        bits = rng.integers(
            0, 2, int(2.2 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.12), GammaCoverage(2.0, shape=1.0)
        )
        batch = simulator.sequence_store(image, rng=rng)
        assert batch.lost_clusters().size > 0
        got_bits, got_report = store.read(ReadRequest(batch, bits.size))
        want_bits, want_report = _decode_units_reference(
            store, batch, bits.size
        )
        np.testing.assert_array_equal(got_bits, want_bits)
        assert_reports_equal(got_report, want_report)
        assert got_report.total_erased_columns > 0

    def test_global_ranking(self, rng):
        config = PipelineConfig(matrix=CONFIG.matrix, layout="dnamapper")
        store = DnaStore(config)
        n_bits = int(1.8 * store.unit_capacity_bits)
        ranking = proportional_share_ranking([n_bits // 4,
                                              n_bits - n_bits // 4])
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        image = store.encode(bits, ranking=ranking)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(8)
        )
        batch = simulator.sequence_store(image, rng=rng)
        got_bits, got_report = store.read(
            ReadRequest(batch, n_bits, ranking=ranking)
        )
        want_bits, want_report = _decode_units_reference(
            store, batch, n_bits, ranking=ranking
        )
        np.testing.assert_array_equal(got_bits, want_bits)
        assert_reports_equal(got_report, want_report)
        np.testing.assert_array_equal(got_bits, bits)

    def test_confidence_threshold(self, rng):
        """Confidence-aware decoding: the batched path's vectorized
        confidence-cell extraction must reproduce the per-unit ladder."""
        store, bits, _, batch = make_store_case(
            rng, rate=0.08, coverage=5,
            reconstructor=PosteriorReconstructor(
                channel=ErrorModel.uniform(0.08)
            ),
        )
        got_bits, got_report = store.read(ReadRequest(
            batch, bits.size, confidence_threshold=0.95
        ))
        want_bits, want_report = _decode_units_reference(
            store, batch, bits.size, confidence_threshold=0.95
        )
        np.testing.assert_array_equal(got_bits, want_bits)
        assert_reports_equal(got_report, want_report)

    def test_input_forms_equivalent(self, rng):
        """Spanning batch, per-unit batches and per-unit cluster lists
        must all decode identically."""
        store, bits, image, batch = make_store_case(rng, rate=0.06)
        n_columns = CONFIG.matrix.n_columns
        per_unit_batches = [
            batch.select_clusters(u * n_columns, (u + 1) * n_columns)
            for u in range(image.n_units)
        ]
        per_unit_clusters = [b.to_clusters() for b in per_unit_batches]
        spanning, _ = store.read(ReadRequest(batch, bits.size))
        from_batches, _ = store.read(
            ReadRequest(per_unit_batches, bits.size)
        )
        from_clusters, _ = store.read(
            ReadRequest(per_unit_clusters, bits.size)
        )
        np.testing.assert_array_equal(spanning, from_batches)
        np.testing.assert_array_equal(spanning, from_clusters)

    def test_single_unit_store(self, rng):
        store, bits, _, batch = make_store_case(rng, n_units_fraction=0.6)
        got_bits, got_report = store.read(ReadRequest(batch, bits.size))
        want_bits, want_report = _decode_units_reference(
            store, batch, bits.size
        )
        np.testing.assert_array_equal(got_bits, want_bits)
        assert_reports_equal(got_report, want_report)
        np.testing.assert_array_equal(got_bits, bits)

    def test_wrong_cluster_count_rejected(self, rng):
        store, bits, _, batch = make_store_case(rng)
        with pytest.raises(ValueError):
            store.read(ReadRequest(
                batch.select_clusters(0, CONFIG.matrix.n_columns), bits.size
            ))
        with pytest.raises(ValueError):
            _decode_units_reference(store, [batch.to_clusters()], bits.size)


class TestSingleBatchCall:
    def test_store_decode_issues_exactly_one_batch_call(self, rng):
        calls = []

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        store, bits, image, batch = make_store_case(
            rng, n_units_fraction=4.2, reconstructor=CountingTwoWay()
        )
        assert image.n_units >= 4
        decoded, report = store.read(ReadRequest(batch, bits.size))
        assert len(calls) == 1
        assert calls[0] == batch.drop_lost().n_clusters

    def test_reference_issues_one_call_per_unit(self, rng):
        calls = []

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        store, bits, image, batch = make_store_case(
            rng, n_units_fraction=4.2, reconstructor=CountingTwoWay()
        )
        _decode_units_reference(store, batch, bits.size)
        assert len(calls) == image.n_units


class TestMalformedEstimates:
    def test_wrong_length_estimate_counts_as_invalid_strand(self, rng):
        """A reconstructor returning an estimate of the wrong length must
        not crash the store read: the estimate counts as an invalid
        strand and its column stays erased, as in the frozen loop."""

        class ChoppingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                estimates = list(super().reconstruct_batch(batch, length))
                estimates[0] = estimates[0][:-1]
                return estimates

        store, bits, _, batch = make_store_case(
            rng, n_units_fraction=1.0, rate=0.02,
            reconstructor=ChoppingTwoWay(),
        )
        got_bits, got_report = store.read(ReadRequest(batch, bits.size))
        want_bits, want_report = _decode_units_reference(
            store, batch, bits.size
        )
        np.testing.assert_array_equal(got_bits, want_bits)
        assert_reports_equal(got_report, want_report)
        assert got_report.total_erased_columns >= 1
        received = store.pipeline.receive(batch)
        assert received.invalid_strands == 1
        assert 0 in received.erased_columns
        np.testing.assert_array_equal(got_bits, bits)


class TestReadPoolForStore:
    def test_pool_spans_all_units_and_decodes(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(
            0, 2, int(2.3 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        pool = ReadPool.for_store(
            image, ErrorModel.uniform(0.04), max_coverage=8, rng=rng
        )
        assert len(pool) == image.total_strands
        batch = pool.batch_at(8)
        decoded, report = store.read(ReadRequest(batch, bits.size))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_nested_prefixes_match_per_unit_reference(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(
            0, 2, int(2.1 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        pool = ReadPool.for_store(
            image, ErrorModel.uniform(0.08), max_coverage=6, rng=rng
        )
        for coverage in (2, 4, 6):
            batch = pool.batch_at(coverage)
            got, got_report = store.read(ReadRequest(batch, bits.size))
            want, want_report = _decode_units_reference(
                store, batch, bits.size
            )
            np.testing.assert_array_equal(got, want)
            assert_reports_equal(got_report, want_report)


class TestConcat:
    def test_concat_rebases_cluster_ids(self, rng):
        pieces = [
            ReadBatch.from_arrays([
                [rng.integers(0, 4, rng.integers(3, 9)).astype(np.uint8)
                 for _ in range(int(k))]
                for k in rng.integers(0, 4, size=5)
            ])
            for _ in range(3)
        ]
        spanning = ReadBatch.concat(pieces)
        assert spanning.n_clusters == 15
        assert spanning.n_reads == sum(p.n_reads for p in pieces)
        offset = 0
        row = 0
        for piece in pieces:
            for c in range(piece.n_clusters):
                for want in piece.reads_of(c):
                    np.testing.assert_array_equal(spanning.read(row), want)
                    assert spanning.cluster_ids[row] == offset + c
                    row += 1
            offset += piece.n_clusters

    def test_concat_of_zero_copy_subbatches_is_tight(self, rng):
        """Concatenating pool sub-batches must copy only the selected
        reads, not the parent buffers."""
        parent = ReadBatch.from_arrays([
            [rng.integers(0, 4, 8).astype(np.uint8) for _ in range(4)]
            for _ in range(6)
        ])
        pieces = [parent.select_clusters(0, 3), parent.select_clusters(3, 6)]
        trimmed = [p.select_prefix(np.full(3, 2)) for p in pieces]
        spanning = ReadBatch.concat(trimmed)
        assert spanning.buffer.size == spanning.lengths.sum()
        assert spanning.n_clusters == 6
        for c in range(3):
            for i, want in enumerate(parent.reads_of(c)[:2]):
                np.testing.assert_array_equal(
                    spanning.reads_of(c)[i], want
                )

    def test_concat_empty(self):
        empty = ReadBatch.concat([])
        assert empty.n_clusters == 0
        assert empty.n_reads == 0
