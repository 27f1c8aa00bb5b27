"""Shared reconstruction interface.

All reconstructors implement :class:`Reconstructor`: given a cluster of
noisy reads and the original length L, return a best-estimate string of
exactly length L. Working with a fixed output length is what the paper
calls the *constrained* edit-distance median problem, and it is what the
storage pipeline needs (every molecule in an encoding unit has the same
length by construction).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.codec.basemap import bases_to_indices, indices_to_bases


class Reconstructor:
    """Interface for consensus-finding algorithms.

    Every reconstructor has one engine feed, the columnar
    :meth:`reconstruct_batch`, and the list-shaped entry points
    (:meth:`reconstruct`, :meth:`reconstruct_indices`,
    :meth:`reconstruct_many`, :meth:`reconstruct_many_indices`) are thin
    packs onto it, written once here. A subclass overrides exactly one
    primitive:

    * the batched engines override :meth:`reconstruct_batch` and consume
      the batch's padded read matrix whole (the pointer scans in
      :mod:`repro.consensus.bma` advance every cluster simultaneously,
      which is where the pipeline's decode speed comes from);
    * the frozen single-cluster oracles in :mod:`repro.consensus.reference`
      override :meth:`reconstruct_indices`, which the default
      :meth:`reconstruct_batch` loops over the batch's clusters.
    """

    def reconstruct(self, reads: Sequence[str], length: int) -> str:
        """Return a length-``length`` estimate of the cluster's original strand.

        Implementations must return *some* string of exactly the requested
        length even for degenerate inputs (empty cluster, all-empty reads);
        the pipeline treats obviously-degenerate output as erasures upstream.
        """
        arrays = [bases_to_indices(read) for read in reads]
        return indices_to_bases(self.reconstruct_indices(arrays, length))

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        """Index-array variant: a one-cluster :meth:`reconstruct_many_indices`."""
        return self.reconstruct_many_indices([reads], length)[0]

    def reconstruct_many(
        self, clusters: Sequence[Sequence[str]], length: int
    ) -> List[str]:
        """Reconstruct every cluster of a unit; one estimate per cluster.

        ``clusters[i]`` is the read list of cluster ``i``; the result keeps
        cluster order, row for row what :meth:`reconstruct_batch` returns
        for the same clusters.
        """
        return [
            indices_to_bases(estimate)
            for estimate in self.reconstruct_batch(
                ReadBatch.from_strings(clusters), length
            )
        ]

    def reconstruct_many_indices(
        self, clusters: Sequence[Sequence[np.ndarray]], length: int
    ) -> List[np.ndarray]:
        """Index-array batch variant: packs the clusters into one
        :class:`~repro.channel.readbatch.ReadBatch` for
        :meth:`reconstruct_batch`."""
        return list(self.reconstruct_batch(ReadBatch.from_arrays(clusters),
                                           length))

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """Columnar batch variant: estimates for a whole
        :class:`~repro.channel.readbatch.ReadBatch` as one
        ``(n_clusters, length)`` array.

        This is the string-free decode hot path and the one engine feed.
        The batched engines override it to consume the batch's padded
        matrix whole; the default loops :meth:`reconstruct_indices` over
        the batch's clusters (zero-copy views), which is how the
        single-cluster oracles ride it. Lost clusters receive the engine's
        degenerate (fill) estimate — callers that must not see them drop
        them first (:meth:`~repro.channel.readbatch.ReadBatch.drop_lost`).
        """
        if type(self).reconstruct_indices is Reconstructor.reconstruct_indices:
            raise NotImplementedError(
                f"{type(self).__name__} must override reconstruct_batch "
                "or reconstruct_indices"
            )
        estimates = [self.reconstruct_indices(reads, length)
                     for reads in batch.clusters_as_indices()]
        if not estimates:
            return np.zeros((0, length), dtype=np.int64)
        return np.stack([np.asarray(e, dtype=np.int64) for e in estimates])

    def reconstruct_batch_with_confidence(self, batch: ReadBatch, length: int):
        """Columnar confidence variant: ``(estimate, confidence)`` pairs
        for a whole :class:`~repro.channel.readbatch.ReadBatch`.

        Only meaningful for reconstructors that expose per-position
        confidence (``reconstruct_with_confidence``, see
        :class:`repro.consensus.posterior.PosteriorReconstructor`, which
        overrides this with a genuinely batched lattice sweep); the
        default rides the per-cluster ``reconstruct_with_confidence`` over
        zero-copy index lists. Calling it on a reconstructor without
        confidence output raises ``AttributeError``.
        """
        return [
            self.reconstruct_with_confidence(reads, length)
            for reads in batch.clusters_as_indices()
        ]
