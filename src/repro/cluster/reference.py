"""Frozen string-plane greedy clustering (the differential reference).

This is the original per-read, per-character string-plane greedy
clusterer, kept verbatim — like the per-cluster reconstructors in
:mod:`repro.consensus.reference` and the per-unit store loop in
:mod:`repro.core.reference` — as the baseline the columnar clustering
subsystem is pinned against:

* :func:`_qgram_signature` is the per-character rolling-code loop the
  vectorized kernel (:mod:`repro.cluster.signatures`) must reproduce bit
  for bit;
* :class:`ReferenceGreedyClusterer` is the sequential first-match greedy
  scan whose cluster assignments
  :class:`~repro.cluster.batched.BatchedGreedyClusterer` must reproduce
  exactly (``tests/cluster/test_batched.py``).

Do not optimize this module; it exists to stay slow and obviously
correct.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.channel.sequencer import ReadCluster
from repro.cluster.distance import banded_edit_distance


def _qgram_signature(read: str, q: int = 3) -> np.ndarray:
    """Histogram of q-gram codes; L1 distance lower-bounds edit moves."""
    if len(read) < q:
        return np.zeros(4**q, dtype=np.int32)
    codes = np.zeros(4**q, dtype=np.int32)
    value = 0
    mapping = {"A": 0, "C": 1, "G": 2, "T": 3}
    mask = 4 ** (q - 1)
    for i, char in enumerate(read):
        value = (value % mask) * 4 + mapping[char]
        if i >= q - 1:
            codes[value] += 1
    return codes


class ReferenceGreedyClusterer:
    """Single-pass greedy clustering by banded edit distance (frozen).

    Args:
        threshold: maximum edit distance to a cluster representative.
        qgram_size: q-gram length for the prefilter (0 disables it).
    """

    def __init__(self, threshold: int, qgram_size: int = 3) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if qgram_size < 0:
            raise ValueError(f"qgram_size must be non-negative, got {qgram_size}")
        self.threshold = threshold
        self.qgram_size = qgram_size

    def cluster(self, reads: Sequence[str]) -> List[ReadCluster]:
        """Group reads into clusters; cluster ids are assigned in order.

        The returned clusters carry ``source_index`` equal to their creation
        order (there is no ground truth here).
        """
        representatives: List[str] = []
        signatures: List[Optional[np.ndarray]] = []
        members: List[List[str]] = []
        for read in reads:
            assigned = self._find_cluster(read, representatives, signatures)
            if assigned is None:
                representatives.append(read)
                signatures.append(
                    _qgram_signature(read, self.qgram_size)
                    if self.qgram_size else None
                )
                members.append([read])
            else:
                members[assigned].append(read)
        return [
            ReadCluster(source_index=index, reads=cluster_reads)
            for index, cluster_reads in enumerate(members)
        ]

    def _find_cluster(
        self,
        read: str,
        representatives: List[str],
        signatures: List[Optional[np.ndarray]],
    ) -> Optional[int]:
        signature = (
            _qgram_signature(read, self.qgram_size) if self.qgram_size else None
        )
        for index, representative in enumerate(representatives):
            if signature is not None and signatures[index] is not None:
                # Each edit changes at most 2*q q-gram counts (q new grams
                # appear / q disappear), so L1/(2q) lower-bounds the distance.
                l1 = int(np.abs(signature - signatures[index]).sum())
                if l1 > 2 * self.qgram_size * self.threshold:
                    continue
            distance = banded_edit_distance(read, representative, self.threshold)
            if distance <= self.threshold:
                return index
        return None
