"""Sequencing simulation: read clusters and progressive read pools.

The retrieval methodology of the paper's Section 6.1.2 is reproduced here:

* a :class:`SequencingSimulator` turns a list of synthesized strands into
  perfectly-clustered noisy reads (the paper deliberately eliminates
  clustering errors in simulation by tracking each read's source strand);
* a :class:`ReadPool` holds a large pre-generated pool of noisy reads per
  strand so that a coverage sweep can "start at a low coverage and
  progressively add more strands from the pool", exactly as the paper
  evaluates reading cost.

Both are thin façades over the columnar read plane: reads are generated
by :class:`repro.channel.engine.BatchedChannelEngine` in one vectorized
pass and stored as a :class:`repro.channel.readbatch.ReadBatch`;
:class:`ReadCluster` objects are zero-copy views into that batch whose
``reads`` strings only materialize if someone asks for them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.coverage import CoverageModel, FixedCoverage
from repro.channel.engine import BatchedChannelEngine
from repro.channel.errors import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.codec.basemap import bases_to_indices, indices_to_bases
from repro.utils.rng import RngLike, ensure_rng


class ReadCluster:
    """Noisy reads known to originate from one source strand.

    Backed either by ACGT strings (the historical construction, still the
    right edge format for files and tests) or by symbol-index arrays
    (batch views from the columnar read plane). Each representation is
    derived lazily from the other and cached, so the decode hot path never
    touches strings and the string edges never see arrays.

    Attributes:
        source_index: index of the original strand in the encoded unit.
        reads: noisy copies (possibly empty, i.e. strand dropout),
            decoded lazily when array-backed.
    """

    __slots__ = ("source_index", "_strings", "_arrays")

    def __init__(
        self, source_index: int, reads: Optional[List[str]] = None
    ) -> None:
        self.source_index = source_index
        self._strings: Optional[List[str]] = (
            list(reads) if reads is not None else []
        )
        self._arrays: Optional[List[np.ndarray]] = None

    @classmethod
    def from_arrays(
        cls, source_index: int, arrays: Sequence[np.ndarray]
    ) -> "ReadCluster":
        """Build an array-backed cluster (e.g. a zero-copy batch view)."""
        cluster = cls(source_index)
        cluster._strings = None
        cluster._arrays = list(arrays)
        return cluster

    @property
    def reads(self) -> List[str]:
        """The reads as ACGT strings (decoded on first access).

        Once decoded, the string list becomes the cluster's authoritative
        backing (mutations to it are honored, as with the historical
        plain-list attribute).
        """
        if self._strings is None:
            self._strings = [indices_to_bases(a) for a in self._arrays]
        return self._strings

    @property
    def coverage(self) -> int:
        backing = self._arrays if self._strings is None else self._strings
        return len(backing)

    @property
    def is_lost(self) -> bool:
        """True when the strand received no reads at all (an erasure)."""
        return self.coverage == 0

    def __repr__(self) -> str:
        return (f"ReadCluster(source_index={self.source_index}, "
                f"coverage={self.coverage})")

    def read_indices(self) -> List[np.ndarray]:
        """The reads as symbol-index arrays (what the consensus engines eat).

        String-backed clusters convert on every call (the ``reads`` list
        is caller-visible and may be mutated, so a cache would go stale);
        array-backed batch views return their zero-copy arrays directly.
        """
        if self._strings is not None:
            return [bases_to_indices(read) for read in self._strings]
        return list(self._arrays)

    def batch_view(self) -> ReadBatch:
        """This cluster as a single-cluster :class:`ReadBatch`."""
        return ReadBatch.from_arrays(
            [self.read_indices()], source_indices=[self.source_index]
        )

    def padded_matrix(self, pad: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """The cluster as one ``(n_reads, max_len + pad)`` index matrix.

        An analysis-friendly view using the same convention as the batched
        consensus engine (sentinel -1 past each read's end; ``pad`` appends
        extra sentinel columns), built by the vectorized
        :meth:`ReadBatch.padded_matrix` gather rather than a per-read fill
        loop. Returns ``(matrix, lengths)``; the matrix is empty with zero
        columns for a lost cluster.
        """
        return self.batch_view().padded_matrix(pad)


class SequencingSimulator:
    """Generates perfectly-clustered noisy reads for a set of strands."""

    def __init__(
        self,
        error_model: ErrorModel,
        coverage_model: CoverageModel = FixedCoverage(10),
    ) -> None:
        self.error_model = error_model
        self.coverage_model = coverage_model

    def sequence_batch(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> ReadBatch:
        """All clusters' reads as one columnar :class:`ReadBatch` — the
        representation ``pipeline.receive`` consumes without any string
        round-trip. The engine is built per call, so reassigning
        ``error_model``/``coverage_model`` between calls is honored."""
        engine = BatchedChannelEngine(
            sequencing_model=self.error_model,
            coverage_model=self.coverage_model,
        )
        return engine.sequence(strands, rng)

    def sequence(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> List[ReadCluster]:
        """Produce one :class:`ReadCluster` per input strand (batch views)."""
        return self.sequence_batch(strands, rng).to_clusters()

    def sequence_store(
        self, image, rng: RngLike = None, labeled: bool = True
    ) -> ReadBatch:
        """One spanning :class:`ReadBatch` for a whole multi-unit store.

        ``image`` is a :class:`~repro.core.store.StoreImage` (anything
        with a ``units`` list of ``strands``-bearing objects): every
        strand of every unit goes through **one** engine call, and the
        resulting batch lays the units' clusters back to back — cluster
        slots ``[u * n_columns, (u + 1) * n_columns)`` belong to unit
        ``u`` — which is exactly the spanning form a labeled
        :class:`~repro.core.store.ReadRequest` carries whole.

        With ``labeled=False`` the per-strand ground-truth labels are
        discarded: the result has one cluster per *unit* — the unit's
        amplification pool, reads shuffled — because units are separately
        amplifiable (their own primer pairs) while strand attribution
        within a pool is exactly what sequencing does not provide. That
        is the realistic retrieval workload: recover the clusters with
        :class:`~repro.cluster.batched.BatchedGreedyClusterer` (or hand
        the pool straight to :meth:`~repro.core.store.DnaStore.read` as
        a ``ReadRequest(..., pool=True)``).
        """
        generator = ensure_rng(rng)
        strands = [
            strand for unit in image.units for strand in unit.strands
        ]
        batch = self.sequence_batch(strands, generator)
        if labeled:
            return batch
        counts = np.array([len(unit.strands) for unit in image.units],
                          dtype=np.int64)
        boundaries = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        return batch.pooled(boundaries, rng=generator)


class ReadPool:
    """A pre-generated pool of noisy reads per strand for coverage sweeps.

    Generating the pool once and slicing prefixes keeps a sweep's read sets
    nested (coverage 6 uses exactly the reads of coverage 5 plus one more),
    mirroring the paper's methodology and eliminating sweep-order noise.
    The pool is stored columnar (one :class:`ReadBatch` holding every read
    of every strand at the maximum coverage); prefix selection at a given
    coverage is a vectorized row selection sharing the pool's buffer.
    """

    def __init__(
        self,
        strands: Sequence[str],
        error_model: ErrorModel,
        max_coverage: int,
        rng: RngLike = None,
        dispersion_shape: Optional[float] = None,
    ) -> None:
        """Pre-generate ``max_coverage`` noisy reads for each strand.

        Args:
            strands: the synthesized DNA strings.
            error_model: channel noise to apply to each read.
            max_coverage: pool depth per strand (the sweep's upper bound).
            rng: random source.
            dispersion_shape: when set, each strand gets a Gamma(shape,
                1/shape)-distributed weight (mean 1.0) sampled once, and the
                read count at mean coverage ``c`` is ``round(c * weight)``.
                Small clusters and dropouts then persist coherently across
                the whole sweep, matching the paper's Gamma coverage model.
                ``None`` gives every strand exactly ``round(c)`` reads.
        """
        if max_coverage <= 0:
            raise ValueError(f"max_coverage must be positive, got {max_coverage}")
        generator = ensure_rng(rng)
        self.max_coverage = max_coverage
        engine = BatchedChannelEngine(sequencing_model=error_model)
        self._batch = engine.sample_pool(strands, max_coverage, generator)
        n_strands = self._batch.n_clusters
        if dispersion_shape is None:
            self._weights = np.ones(n_strands)
        else:
            if dispersion_shape <= 0:
                raise ValueError(
                    f"dispersion_shape must be positive, got {dispersion_shape}"
                )
            self._weights = generator.gamma(
                dispersion_shape, 1.0 / dispersion_shape, size=n_strands
            )

    @classmethod
    def for_store(
        cls,
        image,
        error_model: ErrorModel,
        max_coverage: int,
        rng: RngLike = None,
        dispersion_shape: Optional[float] = None,
    ) -> "ReadPool":
        """A pool spanning every strand of a multi-unit store.

        ``image`` is a :class:`~repro.core.store.StoreImage`; the pool
        holds all units' strands back to back, so ``batch_at(coverage)``
        emits the spanning :class:`ReadBatch` that
        :meth:`~repro.core.store.DnaStore.read` consumes in one pass —
        multi-unit coverage sweeps stay nested and zero-copy exactly like
        single-unit ones.
        """
        strands = [
            strand for unit in image.units for strand in unit.strands
        ]
        return cls(strands, error_model, max_coverage, rng=rng,
                   dispersion_shape=dispersion_shape)

    def __len__(self) -> int:
        return self._batch.n_clusters

    def _counts_at(self, coverage: float) -> np.ndarray:
        if coverage < 0:
            raise ValueError(f"coverage must be non-negative, got {coverage}")
        counts = np.round(coverage * self._weights).astype(np.int64)
        return np.minimum(counts, self.max_coverage)

    def batch_at(
        self,
        coverage: float,
        first_cluster: int = 0,
        n_clusters: Optional[int] = None,
    ) -> ReadBatch:
        """The first ``coverage``-worth of pool reads, columnar.

        ``first_cluster``/``n_clusters`` carve out a sub-range of strands
        (used when one mega-pool holds several trials' units back to
        back). Zero-copy over the pool buffer.
        """
        counts = self._counts_at(coverage)
        batch = self._batch
        if first_cluster != 0 or n_clusters is not None:
            stop = (batch.n_clusters if n_clusters is None
                    else first_cluster + n_clusters)
            batch = batch.select_clusters(first_cluster, stop)
            counts = counts[first_cluster:stop]
        return batch.select_prefix(counts)

    def clusters_at(self, coverage: float) -> List[ReadCluster]:
        """Return clusters using the first ``coverage``-worth of pool reads."""
        return self.batch_at(coverage).to_clusters()
