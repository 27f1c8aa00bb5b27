"""Tests for greedy edit-distance clustering (the batched greedy scan)."""

import pytest

from repro.channel import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.cluster import BatchedGreedyClusterer
from repro.codec.basemap import random_bases


def cluster_strings(clusterer, reads):
    """Cluster ACGT strings as one unlabeled pool; the recovered clusters
    as string lists, in creation order."""
    labeled = clusterer.cluster_batch(ReadBatch.from_strings([reads]))
    return [
        [labeled.read_string(i) for i in range(*labeled.cluster_rows(c))]
        for c in range(labeled.n_clusters)
    ]


class TestGreedyClusterer:
    def test_identical_reads_one_cluster(self):
        clusterer = BatchedGreedyClusterer(threshold=3)
        clusters = cluster_strings(clusterer, ["ACGTACGT"] * 5)
        assert len(clusters) == 1
        assert len(clusters[0]) == 5

    def test_distant_reads_separate_clusters(self):
        clusterer = BatchedGreedyClusterer(threshold=2)
        clusters = cluster_strings(
            clusterer, ["AAAAAAAA", "TTTTTTTT", "GGGGGGGG"]
        )
        assert len(clusters) == 3

    def test_near_reads_merge(self):
        clusterer = BatchedGreedyClusterer(threshold=2)
        clusters = cluster_strings(
            clusterer, ["ACGTACGT", "ACGTACGA", "ACGAACGT"]
        )
        assert len(clusters) == 1

    def test_empty_input(self):
        assert cluster_strings(BatchedGreedyClusterer(threshold=2), []) == []

    def test_recovers_simulated_clusters(self, rng):
        """Noisy copies of well-separated strands cluster correctly."""
        model = ErrorModel.uniform(0.03)
        strands = [random_bases(60, rng) for _ in range(12)]
        reads = []
        truth = []
        for index, strand in enumerate(strands):
            for _ in range(4):
                reads.append(model.apply(strand, rng))
                truth.append(index)
        order = rng.permutation(len(reads))
        shuffled = [reads[i] for i in order]
        shuffled_truth = [truth[i] for i in order]
        clusterer = BatchedGreedyClusterer(threshold=12)
        clusters = cluster_strings(clusterer, shuffled)
        assert len(clusters) == 12
        # Every cluster must be pure (all members share a ground truth id).
        read_to_truth = {read: t for read, t in zip(shuffled, shuffled_truth)}
        for cluster in clusters:
            sources = {read_to_truth[read] for read in cluster}
            assert len(sources) == 1

    def test_qgram_prefilter_equivalent_to_none(self, rng):
        model = ErrorModel.uniform(0.05)
        strands = [random_bases(50, rng) for _ in range(6)]
        reads = [model.apply(s, rng) for s in strands for _ in range(3)]
        with_filter = cluster_strings(
            BatchedGreedyClusterer(threshold=10, qgram_size=3), reads
        )
        without = cluster_strings(
            BatchedGreedyClusterer(threshold=10, qgram_size=0), reads
        )
        assert with_filter == without

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedGreedyClusterer(threshold=-1)
        with pytest.raises(ValueError):
            BatchedGreedyClusterer(threshold=1, qgram_size=-2)
