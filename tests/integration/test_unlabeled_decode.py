"""End-to-end unlabeled-pool decode.

The realistic retrieval workload the clustering subsystem opens:
``sequence_store(..., labeled=False)`` emits per-unit amplification
pools with no ground-truth read labels, the batched greedy clusterer
recovers the clusters on the columnar plane, and the store decodes every
recovered cluster of every unit through the same one-pass
``receive_many`` as labeled reads — the payload must come back
byte-identical.
"""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    SequencingSimulator,
)
from repro.cluster import BatchedGreedyClusterer, LSHClusterer
from repro.consensus import PosteriorReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.store import DnaStore, ReadRequest

MATRIX = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8)


def payload_for(store_or_pipeline, units=1, trim=0, seed=11):
    rng = np.random.default_rng(seed)
    capacity = getattr(store_or_pipeline, "unit_capacity_bits", None) \
        or store_or_pipeline.capacity_bits
    return rng.integers(0, 2, units * capacity - trim).astype(np.uint8)


class TestPipelinePoolDecode:
    def test_single_unit_roundtrip(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        bits = payload_for(pipeline)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(8)
        )
        pool = simulator.sequence_batch(unit.strands, rng=5).pooled(rng=5)
        decoded, report = pipeline.decode_pool(pool, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_explicit_clusterer_and_ranking(self):
        from repro.core import positional_ranking

        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout="dnamapper")
        )
        bits = payload_for(pipeline, trim=9)
        ranking = positional_ranking(bits.size)
        unit = pipeline.encode(bits, ranking)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(8)
        )
        pool = simulator.sequence_batch(unit.strands, rng=6).pooled(rng=6)
        decoded, report = pipeline.decode_pool(
            pool, bits.size,
            clusterer=BatchedGreedyClusterer(threshold=14),
            ranking=ranking,
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)


class TestStorePoolDecode:
    def test_multi_unit_roundtrip(self):
        store = DnaStore(PipelineConfig(matrix=MATRIX, layout="gini"))
        bits = payload_for(store, units=3, trim=17)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), GammaCoverage(8, shape=6)
        )
        pool = simulator.sequence_store(image, rng=3, labeled=False)
        assert pool.n_clusters == image.n_units
        decoded, report = store.read(
            ReadRequest(pool, bits.size, pool=True)
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_matches_labeled_decode_payload(self):
        """Labeled and unlabeled paths land on the same payload (reports
        may differ: clustering can split clusters into duplicates)."""
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        bits = payload_for(store, units=2, trim=3)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        )
        labeled = simulator.sequence_store(image, rng=9)
        unlabeled = simulator.sequence_store(image, rng=9, labeled=False)
        want, _ = store.read(ReadRequest(labeled, bits.size))
        got, report = store.read(
            ReadRequest(unlabeled, bits.size, pool=True)
        )
        assert report.clean
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, bits)

    def test_lsh_clusterer_matches_labeled_decode_payload(self):
        """The LSH-banded path is a drop-in for the greedy scan on the
        retrieval workload: the unlabeled decode it clusters comes back
        byte-identical to the labeled (perfect-clustering) decode."""
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        bits = payload_for(store, units=2, trim=3)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        )
        labeled = simulator.sequence_store(image, rng=9)
        unlabeled = simulator.sequence_store(image, rng=9, labeled=False)
        clusterer = LSHClusterer.for_strand_length(
            store.pipeline.matrix_config.strand_length
        )
        want, _ = store.read(ReadRequest(labeled, bits.size))
        got, report = store.read(ReadRequest(
            unlabeled, bits.size, pool=True, clusterer=clusterer
        ))
        assert report.clean
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, bits)

    def test_confidence_threshold_path(self):
        """The posterior's soft output flows through the unlabeled path
        (cell erasures ride receive_many exactly like labeled decode)."""
        store = DnaStore(
            PipelineConfig(matrix=MATRIX),
            reconstructor=PosteriorReconstructor(
                channel=ErrorModel.uniform(0.04)
            ),
        )
        bits = payload_for(store, units=2)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(6)
        )
        pool = simulator.sequence_store(image, rng=4, labeled=False)
        decoded, report = store.read(ReadRequest(
            pool, bits.size, pool=True, confidence_threshold=0.6
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_wrong_pool_count_rejected(self):
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        bits = payload_for(store, units=2)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(4)
        )
        labeled = simulator.sequence_store(image, rng=2)
        with pytest.raises(ValueError):
            # 80 pools, not 2
            store.read(ReadRequest(labeled, bits.size, pool=True))

    def test_labeled_default_unchanged(self):
        """labeled=True (the default) still emits the strand-granular
        spanning batch."""
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        bits = payload_for(store, units=2)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(4)
        )
        batch = simulator.sequence_store(image, rng=2)
        assert batch.n_clusters == 2 * MATRIX.n_columns
