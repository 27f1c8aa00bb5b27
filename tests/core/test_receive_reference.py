"""Differential suite: single-unit ``receive`` == the frozen per-unit loop.

``DnaStoragePipeline.receive`` is a one-unit call into ``receive_many``
(a cluster list is packed into one ``ReadBatch`` first).
``repro.core.reference.receive_reference`` is the per-estimate Python
parse loop it replaced. These tests pin the two byte-identical — matrix,
erased and duplicate columns, invalid-strand count and cell erasures —
for cluster-list and ``ReadBatch`` input, lost and all-empty clusters,
recovered cluster counts other than ``n_columns`` (the
``pipeline.decode_pool`` path) and confidence-threshold decoding.
"""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadCluster,
    SequencingSimulator,
)
from repro.cluster import BatchedGreedyClusterer
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    PosteriorReconstructor,
    TwoWayReconstructor,
)
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.reference import receive_reference

MATRIX = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8)

RECONSTRUCTORS = [
    OneWayReconstructor, TwoWayReconstructor, IterativeReconstructor,
    PosteriorReconstructor,
]


def make_pipeline(reconstructor=None, matrix=MATRIX):
    return DnaStoragePipeline(
        PipelineConfig(matrix=matrix, layout="gini"),
        reconstructor=reconstructor,
    )


def encoded_strands(pipeline, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
    return pipeline.encode(bits).strands


def assert_matches_reference(pipeline, reads, threshold=None):
    """``receive`` and the frozen loop agree field for field."""
    got = pipeline.receive(reads, confidence_threshold=threshold)
    want = receive_reference(pipeline, reads, confidence_threshold=threshold)
    np.testing.assert_array_equal(got.matrix, want.matrix)
    assert got.erased_columns == want.erased_columns
    assert got.duplicate_columns == want.duplicate_columns
    assert got.invalid_strands == want.invalid_strands
    assert got.cell_erasures == want.cell_erasures
    return got


@pytest.mark.parametrize("reconstructor_cls", RECONSTRUCTORS)
class TestInputForms:
    def test_cluster_list(self, reconstructor_cls):
        pipeline = make_pipeline(reconstructor_cls())
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(5)
        )
        clusters = simulator.sequence(encoded_strands(pipeline, 1), rng=2)
        assert_matches_reference(pipeline, clusters)

    def test_read_batch(self, reconstructor_cls):
        pipeline = make_pipeline(reconstructor_cls())
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(5)
        )
        batch = simulator.sequence_batch(encoded_strands(pipeline, 3), rng=4)
        assert_matches_reference(pipeline, batch)


class TestDegenerateClusters:
    def dropout_batch(self, pipeline, seed):
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.12), GammaCoverage(2.0, shape=1.0)
        )
        return simulator.sequence_batch(
            encoded_strands(pipeline, seed), rng=seed
        )

    def test_lost_clusters_batch_and_list(self):
        pipeline = make_pipeline()
        batch = self.dropout_batch(pipeline, 5)
        assert batch.lost_clusters().size > 0
        from_batch = assert_matches_reference(pipeline, batch)
        from_list = assert_matches_reference(pipeline, batch.to_clusters())
        assert from_batch.erased_columns == from_list.erased_columns
        assert len(from_batch.erased_columns) >= batch.lost_clusters().size

    def test_all_empty_clusters(self):
        """Clusters of empty reads are not lost: they reach consensus and
        their degenerate estimates claim a column (or fail the index)."""
        pipeline = make_pipeline()
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(4)
        )
        clusters = simulator.sequence(encoded_strands(pipeline, 6), rng=6)
        for i in (0, 7, 21):
            clusters[i] = ReadCluster(source_index=i, reads=["", ""])
        clusters.append(ReadCluster(source_index=40, reads=[]))
        received = assert_matches_reference(pipeline, clusters)
        assert 7 in received.erased_columns
        assert_matches_reference(
            pipeline, [ReadCluster(source_index=0, reads=["", ""])]
        )

    def test_no_clusters(self):
        pipeline = make_pipeline()
        received = assert_matches_reference(pipeline, [])
        assert received.erased_columns == list(range(MATRIX.n_columns))

    def test_bad_index_and_duplicate_claims(self):
        pipeline = make_pipeline()
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.0), FixedCoverage(1)
        )
        strands = encoded_strands(pipeline, 7)
        clusters = simulator.sequence(strands, rng=7)
        # An index value of 255 >= n_columns is invalid; repeated
        # strands claim columns that are already filled.
        clusters[2] = ReadCluster(
            source_index=2, reads=["TTTT" + strands[2][4:]]
        )
        clusters += simulator.sequence(strands[10:15], rng=8)
        received = assert_matches_reference(pipeline, clusters)
        assert received.invalid_strands == 1
        assert received.duplicate_columns == list(range(10, 15))


class TestRecoveredClusterCounts:
    def test_clustered_pool(self):
        """The ``pipeline.decode_pool`` path: recovered clusters do not
        number ``n_columns`` (dropouts, splits), in pool order."""
        pipeline = make_pipeline()
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), GammaCoverage(4.0, shape=2.0)
        )
        pool = simulator.sequence_batch(
            encoded_strands(pipeline, 9), rng=9
        ).pooled(rng=9)
        labeled = BatchedGreedyClusterer.for_strand_length(
            MATRIX.strand_length
        ).cluster_batch(pool)
        assert labeled.n_clusters != MATRIX.n_columns
        assert_matches_reference(pipeline, labeled)
        assert_matches_reference(pipeline, labeled.to_clusters())

    @pytest.mark.parametrize("n_clusters", [1, 25, 55])
    def test_partial_and_oversized_lists(self, n_clusters):
        pipeline = make_pipeline()
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(4)
        )
        strands = encoded_strands(pipeline, 10)
        clusters = simulator.sequence(strands + strands, rng=10)
        assert_matches_reference(pipeline, clusters[:n_clusters])


class TestConfidenceThreshold:
    """The confidence corpora of ``test_confidence_decoding.py`` and
    ``test_store_batched.py``: the batch confidence path and the frozen
    list path (``reconstruct_many_with_confidence``) agree only to float
    round-off, so cell erasures at the threshold boundary could differ;
    on these corpora they must not."""

    @pytest.mark.parametrize("rate,coverage,threshold,n_columns", [
        (0.0, 2, 0.5, 60),
        (0.12, 4, 0.8, 60),
        (0.05, 8, 0.7, 60),
        (0.10, 5, 0.75, 60),
        (0.08, 6, 1.1, 60),
        (0.08, 5, 0.95, 40),
    ])
    @pytest.mark.parametrize("form", ["list", "batch"])
    def test_posterior_cells_match(self, rate, coverage, threshold,
                                   n_columns, form):
        matrix = MatrixConfig(m=8, n_columns=n_columns,
                              nsym=n_columns // 5, payload_rows=8)
        model = ErrorModel.uniform(rate)
        pipeline = make_pipeline(
            PosteriorReconstructor(channel=model), matrix=matrix
        )
        simulator = SequencingSimulator(model, FixedCoverage(coverage))
        for seed in range(3):
            strands = encoded_strands(pipeline, seed)
            reads = (simulator.sequence(strands, rng=seed) if form == "list"
                     else simulator.sequence_batch(strands, rng=seed))
            received = assert_matches_reference(pipeline, reads, threshold)
            if rate > 0:
                assert received.cell_erasures

    def test_minimal_confidence_reconstructor(self):
        """A reconstructor with only the scalar
        ``reconstruct_with_confidence`` takes the per-cluster fallback."""

        class MinimalConfidence(TwoWayReconstructor):
            def reconstruct_with_confidence(self, reads, length):
                estimate = self.reconstruct_indices(reads, length)
                confidence = np.ones(length, dtype=np.float64)
                confidence[::7] = 0.25
                return estimate, confidence

        pipeline = make_pipeline(MinimalConfidence())
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), FixedCoverage(5)
        )
        clusters = simulator.sequence(encoded_strands(pipeline, 11), rng=11)
        received = assert_matches_reference(pipeline, clusters, 0.5)
        assert received.cell_erasures
