"""Two-way (bidirectional) reconstruction — the paper's pipeline consensus.

The consensus problem is symmetric (Section 3.1): running the one-way scan
on the reversed reads reconstructs the strand right-to-left, so its
*early* (right-end) positions are the reliable ones. The two-way
reconstructor therefore keeps the first half of the forward scan and the
second half of the backward scan — "the best of both worlds" — which moves
the error peak from the far end (Fig 3) to the middle (Fig 4).

Both directions ride the batched one-way engine: a whole unit's clusters
are reconstructed with two batched scans (one forward, one over the
reversed reads) instead of two scans per cluster.
"""

from __future__ import annotations

import numpy as np

from repro.consensus.base import Reconstructor
from repro.consensus.bma import OneWayReconstructor


class TwoWayReconstructor(Reconstructor):
    """Forward + backward one-way scans, best half of each.

    Args:
        lookahead: lookahead window of the underlying one-way scans.
        n_alphabet: alphabet size.
    """

    def __init__(self, lookahead: int = 3, n_alphabet: int = 4) -> None:
        self._one_way = OneWayReconstructor(
            lookahead=lookahead, n_alphabet=n_alphabet
        )

    def reconstruct_batch(self, batch, length: int) -> np.ndarray:
        """Columnar entry point: both scans straight off the batch.

        The padded read matrix is gathered from the batch's flat buffer
        once; the backward scan runs over a row-wise reversal of the same
        matrix, each read reversed within its own length.
        """
        one_way = self._one_way
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if batch.n_reads == 0 or length == 0:
            return np.full((batch.n_clusters, length), one_way.fill_symbol,
                           dtype=np.int64)
        padded, lengths = batch.padded_matrix(pad=one_way.lookahead + 2)
        forward = one_way.scan_padded(
            padded, lengths, batch.cluster_ids, batch.n_clusters, length
        )
        columns = np.arange(padded.shape[1], dtype=np.int64)
        src = lengths[:, None] - 1 - columns[None, :]
        valid = src >= 0
        reversed_padded = np.where(
            valid, np.take_along_axis(padded, np.where(valid, src, 0), axis=1),
            -1,
        )
        backward = one_way.scan_padded(
            reversed_padded, lengths, batch.cluster_ids, batch.n_clusters,
            length,
        )
        midpoint = length // 2
        return np.concatenate(
            [forward[:, :midpoint], backward[:, ::-1][:, midpoint:]], axis=1
        )
