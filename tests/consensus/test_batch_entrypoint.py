"""The columnar ``reconstruct_batch`` is the one engine feed.

Every list-shaped entry point (``reconstruct``, ``reconstruct_indices``,
``reconstruct_many``, ``reconstruct_many_indices`` and the posterior's
confidence packs) must equal ``reconstruct_batch`` on the same clusters
row for row — including batches with empty reads, lost clusters, and
non-default alphabets. A structural guard keeps a second engine feed from
creeping back: each reconstructor in :mod:`repro.consensus` overrides
exactly one primitive.
"""

import inspect

import numpy as np
import pytest

import repro.consensus
from repro.channel import ErrorModel, FixedCoverage, ReadBatch, SequencingSimulator
from repro.codec.basemap import bases_to_indices, random_bases
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    OptimalMedianReconstructor,
    PosteriorReconstructor,
    Reconstructor,
    TwoWayReconstructor,
)

RECONSTRUCTORS = [
    OneWayReconstructor, TwoWayReconstructor, IterativeReconstructor,
    PosteriorReconstructor,
]


def noisy_batch(seed=0, n_strands=15, length=48, coverage=6, rate=0.08):
    strands = [random_bases(length, rng=np.random.default_rng(100 + i))
               for i in range(n_strands)]
    simulator = SequencingSimulator(ErrorModel.uniform(rate),
                                    FixedCoverage(coverage))
    return simulator.sequence_batch(strands, rng=seed)


def cluster_strings(batch):
    return [[batch.read_string(i) for i in range(*batch.cluster_rows(c))]
            for c in range(batch.n_clusters)]


def assert_every_entry_point_matches_batch(reconstructor, batch, length):
    """All four list-shaped entry points equal ``reconstruct_batch`` row
    for row."""
    from_batch = reconstructor.reconstruct_batch(batch, length)
    assert from_batch.shape == (batch.n_clusters, length)
    index_clusters = batch.clusters_as_indices()
    string_clusters = cluster_strings(batch)
    many_indices = reconstructor.reconstruct_many_indices(
        index_clusters, length
    )
    many_strings = reconstructor.reconstruct_many(string_clusters, length)
    assert len(many_indices) == len(many_strings) == batch.n_clusters
    for c, row in enumerate(from_batch):
        np.testing.assert_array_equal(many_indices[c], row)
        np.testing.assert_array_equal(bases_to_indices(many_strings[c]), row)
        np.testing.assert_array_equal(
            reconstructor.reconstruct_indices(index_clusters[c], length), row
        )
        np.testing.assert_array_equal(
            bases_to_indices(
                reconstructor.reconstruct(string_clusters[c], length)
            ),
            row,
        )


def degenerate_batch():
    # Lost cluster, cluster of empty reads, ordinary cluster.
    return ReadBatch.from_strings(
        [[], ["", ""], ["ACGTAC", "ACTTAC", "AGGTAC"]]
    )


def binary_batch(seed, n_strands, length, coverage):
    from repro.channel import BatchedChannelEngine

    rng = np.random.default_rng(seed)
    originals = rng.integers(0, 2, size=(n_strands, length)).astype(np.uint8)
    engine = BatchedChannelEngine(ErrorModel.uniform(0.1), n_alphabet=2)
    return engine.sequence_counts(originals, np.asarray(coverage), rng)


@pytest.mark.parametrize("reconstructor_cls", RECONSTRUCTORS)
class TestBatchEqualsList:
    def test_noisy_batch(self, reconstructor_cls):
        assert_every_entry_point_matches_batch(
            reconstructor_cls(), noisy_batch(), 48
        )

    def test_degenerate_clusters(self, reconstructor_cls):
        assert_every_entry_point_matches_batch(
            reconstructor_cls(), degenerate_batch(), 6
        )

    def test_reads_longer_and_shorter_than_length(self, reconstructor_cls):
        batch = ReadBatch.from_strings(
            [["ACGTACGTAC", "ACG"], ["TTGCA", "TTGCAAGG", "TGCA"]]
        )
        assert_every_entry_point_matches_batch(reconstructor_cls(), batch, 7)

    def test_zero_length(self, reconstructor_cls):
        batch = noisy_batch(n_strands=3)
        result = reconstructor_cls().reconstruct_batch(batch, 0)
        assert result.shape == (3, 0)

    def test_empty_batch(self, reconstructor_cls):
        batch = ReadBatch.from_strings([])
        reconstructor = reconstructor_cls()
        result = reconstructor.reconstruct_batch(batch, 10)
        assert result.shape == (0, 10)
        assert reconstructor.reconstruct_many_indices([], 10) == []
        assert reconstructor.reconstruct_many([], 10) == []

    def test_negative_length_rejected(self, reconstructor_cls):
        with pytest.raises(ValueError):
            reconstructor_cls().reconstruct_indices([np.array([0, 1])], -1)


class TestBinaryAlphabetBatch:
    def test_two_way_binary(self):
        assert_every_entry_point_matches_batch(
            TwoWayReconstructor(n_alphabet=2),
            binary_batch(5, 8, 30, np.full(8, 5)), 30,
        )

    def test_optimal_median_binary(self):
        """Small binary clusters (one lost, one of an empty read): the
        median's batch feed seeds every search from one batched two-way
        scan, and returns the unseeded search's first optimum."""
        reconstructor = OptimalMedianReconstructor(n_alphabet=2)
        batch = ReadBatch.concat([
            binary_batch(9, 4, 8, [3, 2, 0, 3]),
            ReadBatch.from_arrays([[np.zeros(0, np.uint8)]]),
        ])
        assert_every_entry_point_matches_batch(reconstructor, batch, 8)
        from_batch = reconstructor.reconstruct_batch(batch, 8)
        for reads, row in zip(batch.clusters_as_indices(), from_batch):
            np.testing.assert_array_equal(
                reconstructor.search(reads, 8).candidates[0], row
            )
        empty = reconstructor.reconstruct_batch(ReadBatch.from_arrays([]), 6)
        assert empty.shape == (0, 6)


class TestPosteriorBatchConfidence:
    def test_confidence_matches_list_variant(self):
        """``reconstruct_many_with_confidence``, the per-cluster
        ``reconstruct_with_confidence`` and ``positional_confidence``
        equal the batch feed bitwise."""
        reconstructor = PosteriorReconstructor()
        for batch, length in ((noisy_batch(n_strands=5, coverage=4), 48),
                              (degenerate_batch(), 6)):
            from_batch = reconstructor.reconstruct_batch_with_confidence(
                batch, length
            )
            index_clusters = batch.clusters_as_indices()
            from_lists = reconstructor.reconstruct_many_with_confidence(
                index_clusters, length
            )
            estimates = reconstructor.reconstruct_batch(batch, length)
            assert len(from_batch) == len(from_lists) == batch.n_clusters
            for c, (estimate, confidence) in enumerate(from_batch):
                np.testing.assert_array_equal(estimates[c], estimate)
                np.testing.assert_array_equal(from_lists[c][0], estimate)
                np.testing.assert_array_equal(from_lists[c][1], confidence)
                single = reconstructor.reconstruct_with_confidence(
                    index_clusters[c], length
                )
                np.testing.assert_array_equal(single[0], estimate)
                np.testing.assert_array_equal(single[1], confidence)
                np.testing.assert_array_equal(
                    reconstructor.positional_confidence(
                        index_clusters[c], length
                    ),
                    confidence,
                )


class FirstRead(Reconstructor):
    """Toy oracle: the first read, truncated or zero-padded to length."""

    def reconstruct_indices(self, reads, length):
        out = np.zeros(length, dtype=np.int64)
        if len(reads):
            first = np.asarray(reads[0], dtype=np.int64)[:length]
            out[:first.size] = first
        return out


class TestBaseContract:
    def test_oracle_rides_the_batch_feed(self):
        batch = ReadBatch.from_strings([["ACG", "T"], [], ["GGGATT"]])
        np.testing.assert_array_equal(
            FirstRead().reconstruct_batch(batch, 4),
            [[0, 1, 2, 0], [0, 0, 0, 0], [2, 2, 2, 0]],
        )
        assert_every_entry_point_matches_batch(FirstRead(), batch, 4)
        assert FirstRead().reconstruct(["TGCA"], 2) == "TG"
        empty = FirstRead().reconstruct_batch(ReadBatch.from_arrays([]), 3)
        assert empty.shape == (0, 3)

    @pytest.mark.parametrize("call", [
        lambda r: r.reconstruct_batch(ReadBatch.from_strings([["AC"]]), 2),
        lambda r: r.reconstruct(["AC"], 2),
        lambda r: r.reconstruct_indices([np.array([0, 1])], 2),
        lambda r: r.reconstruct_many([["AC"]], 2),
        lambda r: r.reconstruct_many_indices([[np.array([0, 1])]], 2),
    ], ids=["batch", "strings", "indices", "many", "many_indices"])
    def test_no_primitive_raises_not_implemented(self, call):
        class NoPrimitive(Reconstructor):
            pass

        with pytest.raises(NotImplementedError, match="NoPrimitive"):
            call(NoPrimitive())


def consensus_reconstructors():
    """Every Reconstructor subclass defined in :mod:`repro.consensus`."""
    found, todo = set(), [Reconstructor]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro.consensus."):
                found.add(sub)
    return found


class TestSingleEngineFeed:
    LIST_PACKS = ("reconstruct", "reconstruct_many",
                  "reconstruct_many_indices")

    def test_walk_covers_every_export(self):
        exported = {
            obj for obj in vars(repro.consensus).values()
            if inspect.isclass(obj) and issubclass(obj, Reconstructor)
            and obj is not Reconstructor
        }
        assert exported <= consensus_reconstructors()
        assert len(exported) >= 9

    @pytest.mark.parametrize(
        "cls", sorted(consensus_reconstructors(), key=lambda c: c.__name__),
        ids=lambda c: c.__name__,
    )
    def test_exactly_one_primitive_and_no_list_pack(self, cls):
        """A reconstructor overrides ``reconstruct_batch`` (batched
        engines) or ``reconstruct_indices`` (single-cluster oracles),
        never both, and never re-implements a list pack — the packs live
        once in ``Reconstructor``."""
        defined = set(vars(cls))
        primitives = {"reconstruct_batch", "reconstruct_indices"} & defined
        assert len(primitives) == 1, (cls.__name__, primitives)
        assert not defined & set(self.LIST_PACKS), cls.__name__


ALPHABET_ENGINES = [
    lambda: OneWayReconstructor(n_alphabet=2),
    lambda: TwoWayReconstructor(n_alphabet=2),
    lambda: IterativeReconstructor(n_alphabet=2),
    lambda: PosteriorReconstructor(n_alphabet=2),
    lambda: OptimalMedianReconstructor(n_alphabet=2),
]


class TestOutOfAlphabetSymbols:
    A2 = np.array([2, 2, 2, 2])
    A1 = np.array([1, 1, 1, 1])

    @pytest.mark.parametrize("bad_first", [True, False],
                             ids=["bad_first", "bad_last"])
    def test_one_way_rejects_instead_of_corrupting_neighbour(self, bad_first):
        """Symbol 2 with n_alphabet=2 used to vote in the next cluster's
        ballot (turning a clean [1,1,1,1] into [0,0,0,0]) or, last in the
        batch, crash the ballot reshape."""
        clusters = [[self.A2] * 3, [self.A1] * 2]
        if not bad_first:
            clusters.reverse()
        with pytest.raises(ValueError, match="symbol 2 .*n_alphabet=2"):
            OneWayReconstructor(n_alphabet=2).reconstruct_many_indices(
                clusters, 4
            )

    @pytest.mark.parametrize("make", ALPHABET_ENGINES,
                             ids=["one_way", "two_way", "iterative",
                                  "posterior", "median"])
    def test_every_engine_rejects_on_the_batch_feed(self, make):
        batch = ReadBatch.from_arrays([[self.A1] * 2, [self.A2] * 3])
        with pytest.raises(ValueError, match="symbol 2 .*n_alphabet=2"):
            make().reconstruct_batch(batch, 4)
