"""Frozen reference implementations of the batched reconstructors.

These are the original per-cluster implementations, kept verbatim as the
production engines were rewritten to advance *every read of every
cluster* simultaneously — first the pointer scans
(:mod:`repro.consensus.bma`), then the refinement layers (the iterative
realign-and-vote and the posterior IDS lattice). They process exactly one
cluster per call and loop read-by-read (and position-by-position) over
that single cluster, which makes them easy to audit against the paper's
walk-throughs — and deliberately slow.

They exist so correctness of the batched engines is checkable by
construction: ``tests/consensus/test_vectorized_vs_reference.py`` asserts
byte-identical output between each production reconstructor and its
reference twin across randomized clusters (the posterior's soft
confidences are pinned to float round-off, as the batched lattice sums
the same terms in a different association order). Do not optimize this
module; its value is that it never changes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.signal import lfilter

from repro.channel.errors import ErrorModel
from repro.consensus.base import Reconstructor

_TINY = 1e-300


class ReferenceOneWayReconstructor(Reconstructor):
    """The original single-cluster left-to-right pointer scan.

    Args:
        lookahead: how many upcoming consensus characters to estimate when
            classifying a disagreeing read's error type.
        n_alphabet: alphabet size (4 for DNA, 2 for the binary analyses).
        fill_symbol: symbol emitted when every read is exhausted.
    """

    def __init__(self, lookahead: int = 3, n_alphabet: int = 4,
                 fill_symbol: int = 0) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if not (0 <= fill_symbol < n_alphabet):
            raise ValueError("fill_symbol outside alphabet")
        self.lookahead = lookahead
        self.n_alphabet = n_alphabet
        self.fill_symbol = fill_symbol

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        reads = [np.asarray(r, dtype=np.int64) for r in reads if len(r) > 0]
        output = np.full(length, self.fill_symbol, dtype=np.int64)
        if not reads or length == 0:
            return output

        window = self.lookahead
        n_reads = len(reads)
        lengths = np.array([len(r) for r in reads], dtype=np.int64)
        # One padded matrix: sentinel -1 marks positions past a read's end.
        # The extra window+2 columns let every lookahead gather stay in
        # bounds without per-step clipping.
        padded = np.full((n_reads, int(lengths.max()) + window + 2), -1,
                         dtype=np.int64)
        for i, read in enumerate(reads):
            padded[i, : len(read)] = read
        pointers = np.zeros(n_reads, dtype=np.int64)
        rows = np.arange(n_reads)
        offsets = np.arange(1, window + 1)

        for position in range(length):
            active = pointers < lengths
            if not np.any(active):
                break  # every read exhausted; the rest stays at fill_symbol
            current = padded[rows, pointers]
            votes = np.bincount(current[active], minlength=self.n_alphabet)
            consensus = int(np.argmax(votes))
            output[position] = consensus

            agree = active & (current == consensus)
            lookahead = self._estimate_lookahead(padded, pointers, agree, offsets)
            disagree = active & ~agree
            pointers[agree] += 1
            if np.any(disagree):
                pointers[disagree] += self._classify_errors(
                    padded, pointers[disagree], rows[disagree], consensus, lookahead
                )
        return output

    def _estimate_lookahead(
        self,
        padded: np.ndarray,
        pointers: np.ndarray,
        agree: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Majority-vote the next ``window`` characters of the agreeing reads."""
        window = np.full(len(offsets), -1, dtype=np.int64)
        if not np.any(agree):
            return window
        # ahead[i, o] = agreeing read i's character at pointer + 1 + o.
        ahead = padded[np.flatnonzero(agree)[:, None],
                       pointers[agree][:, None] + offsets[None, :]]
        for o in range(len(offsets)):
            column = ahead[:, o]
            valid = column >= 0
            if np.any(valid):
                counts = np.bincount(column[valid], minlength=self.n_alphabet)
                window[o] = int(np.argmax(counts))
        return window

    def _classify_errors(
        self,
        padded: np.ndarray,
        pointers: np.ndarray,
        read_rows: np.ndarray,
        consensus: int,
        lookahead: np.ndarray,
    ) -> np.ndarray:
        """Pointer advances for the disagreeing reads.

        Ties resolve substitution > deletion > insertion (strict
        improvements only), keeping the scan deterministic.
        """
        window = len(lookahead)
        valid_la = lookahead >= 0
        gather = np.arange(window)

        def score(start_offset: int) -> np.ndarray:
            chars = padded[read_rows[:, None],
                           pointers[:, None] + start_offset + gather[None, :]]
            return ((chars == lookahead[None, :]) & valid_la[None, :]).sum(axis=1)

        substitution = score(1)
        deletion = score(0)
        next_char = padded[read_rows, pointers + 1]
        insertion = np.where(next_char == consensus, 1 + score(2), -1)

        advance = np.ones(len(read_rows), dtype=np.int64)
        best = substitution.copy()
        better_deletion = deletion > best
        advance[better_deletion] = 0
        np.maximum(best, deletion, out=best)
        advance[insertion > best] = 2
        return advance


class ReferenceTwoWayReconstructor(Reconstructor):
    """The original two-way wrapper over the single-cluster scan."""

    def __init__(self, lookahead: int = 3, n_alphabet: int = 4) -> None:
        self._one_way = ReferenceOneWayReconstructor(
            lookahead=lookahead, n_alphabet=n_alphabet
        )

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        forward = self._one_way.reconstruct_indices(reads, length)
        reversed_reads = [np.asarray(r)[::-1] for r in reads]
        backward = self._one_way.reconstruct_indices(reversed_reads, length)[::-1]
        midpoint = length // 2
        return np.concatenate([forward[:midpoint], backward[midpoint:]])


class ReferenceIterativeReconstructor(Reconstructor):
    """The original realign-and-vote refinement, seeded per cluster."""

    def __init__(self, max_iterations: int = 4, n_alphabet: int = 4) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = max_iterations
        self.n_alphabet = n_alphabet
        self._seed = ReferenceTwoWayReconstructor(n_alphabet=n_alphabet)

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        reads = [np.asarray(r, dtype=np.int64) for r in reads if len(r) > 0]
        estimate = self._seed.reconstruct_indices(reads, length)
        if not reads or length == 0:
            return estimate
        for _ in range(self.max_iterations):
            votes = np.zeros((length, self.n_alphabet), dtype=np.int64)
            for read in reads:
                self._vote_alignment(estimate, read, votes)
            refined = estimate.copy()
            voted = votes.sum(axis=1) > 0
            refined[voted] = np.argmax(votes[voted], axis=1)
            if np.array_equal(refined, estimate):
                break
            estimate = refined
        majority = self._positional_majority(reads, length)
        if self._total_distance(majority, reads) < self._total_distance(
            estimate, reads
        ):
            return majority
        return estimate

    def _positional_majority(
        self, reads: List[np.ndarray], length: int
    ) -> np.ndarray:
        """Column-wise plurality vote, ignoring alignment entirely."""
        votes = np.zeros((length, self.n_alphabet), dtype=np.int64)
        for read in reads:
            upto = min(length, len(read))
            votes[np.arange(upto), read[:upto]] += 1
        estimate = np.zeros(length, dtype=np.int64)
        voted = votes.sum(axis=1) > 0
        estimate[voted] = np.argmax(votes[voted], axis=1)
        return estimate

    def _total_distance(
        self, candidate: np.ndarray, reads: List[np.ndarray]
    ) -> int:
        return sum(
            int(self._edit_matrix(candidate, read)[-1, -1]) for read in reads
        )

    def _vote_alignment(
        self, estimate: np.ndarray, read: np.ndarray, votes: np.ndarray
    ) -> None:
        """Align ``read`` to ``estimate`` and add its votes per position."""
        matrix = self._edit_matrix(estimate, read)
        i, j = len(estimate), len(read)
        while i > 0 and j > 0:
            sub_cost = 0 if estimate[i - 1] == read[j - 1] else 1
            if matrix[i, j] == matrix[i - 1, j - 1] + sub_cost:
                votes[i - 1, read[j - 1]] += 1
                i -= 1
                j -= 1
            elif matrix[i, j] == matrix[i - 1, j] + 1:
                i -= 1  # deletion in read relative to estimate: no vote
            else:
                j -= 1  # insertion in read: skip the extra character

    @staticmethod
    def _edit_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full unit-cost DP matrix between sequences ``a`` and ``b``."""
        n, m = len(a), len(b)
        matrix = np.zeros((n + 1, m + 1), dtype=np.int32)
        matrix[0] = np.arange(m + 1)
        matrix[:, 0] = np.arange(n + 1)
        offsets = np.arange(m + 1)
        for i in range(1, n + 1):
            previous = matrix[i - 1]
            substitution = (b != a[i - 1]).astype(np.int32)
            candidates = np.empty(m + 1, dtype=np.int32)
            candidates[0] = previous[0] + 1
            candidates[1:] = np.minimum(
                previous[:-1] + substitution, previous[1:] + 1
            )
            matrix[i] = np.minimum.accumulate(candidates - offsets) + offsets
        return matrix


class ReferencePosteriorReconstructor(Reconstructor):
    """The original per-read IDS-lattice posterior reconstructor.

    One cluster per call; every read runs its own forward-backward pass
    over the insertion/deletion/substitution lattice (a Python loop of
    per-row ``lfilter`` recurrences), votes are accumulated read by read,
    and the estimate is re-voted to a fixed point. Seeded by the frozen
    two-way scan. The production twin in
    :mod:`repro.consensus.posterior` lifts the same recursions to a
    ``(reads, positions)`` formulation; the differential suite pins its
    estimates byte-identical to this class (confidences to float
    round-off, as the batched path reorders the reductions) — except for
    reads that are *impossible* under the channel model (longer than the
    estimate with ``p_insertion=0``), where this class's log-space
    rescaling emits NaN and the batched path's finite zero-vote handling
    is pinned instead.
    """

    def __init__(
        self,
        channel: Optional[ErrorModel] = None,
        max_iterations: int = 3,
        n_alphabet: int = 4,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.channel = channel or ErrorModel.uniform(0.05)
        if self.channel.total_rate >= 1.0:
            raise ValueError("channel error rate must be below 1")
        self.max_iterations = max_iterations
        self.n_alphabet = n_alphabet
        self._seed = ReferenceTwoWayReconstructor(n_alphabet=n_alphabet)

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        estimate, _ = self.reconstruct_with_confidence(reads, length)
        return estimate

    def positional_confidence(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        """Winning posterior mass per position (1.0 = certain)."""
        _, confidence = self.reconstruct_with_confidence(reads, length)
        return confidence

    def reconstruct_with_confidence(
        self, reads: Sequence[np.ndarray], length: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        reads = [np.asarray(r, dtype=np.int64) for r in reads if len(r) > 0]
        estimate = self._seed.reconstruct_indices(reads, length)
        confidence = np.ones(length, dtype=np.float64)
        if not reads or length == 0:
            return estimate, confidence
        for _ in range(self.max_iterations):
            votes = np.full((length, self.n_alphabet), _TINY, dtype=np.float64)
            for read in reads:
                votes += self._posterior_votes(estimate, read)
            refined = np.argmax(votes, axis=1).astype(np.int64)
            confidence = votes.max(axis=1) / votes.sum(axis=1)
            if np.array_equal(refined, estimate):
                break
            estimate = refined
        return estimate, confidence

    def _posterior_votes(
        self, estimate: np.ndarray, read: np.ndarray
    ) -> np.ndarray:
        """Accumulate P(read char j emitted at position i) * [char == s]."""
        length, m = len(estimate), len(read)
        p_ins = self.channel.p_insertion
        p_del = self.channel.p_deletion
        p_sub = self.channel.p_substitution
        p_copy = 1.0 - p_ins - p_del - p_sub
        insertion_step = p_ins / self.n_alphabet

        # Emission probability of read char j from estimate position i.
        match = read[None, :] == estimate[:, None]  # (L, m)
        emit = np.where(
            match, p_copy + _TINY, p_sub / max(self.n_alphabet - 1, 1) + _TINY
        )

        log_forward, forward = self._forward(emit, insertion_step, p_del,
                                             length, m)
        log_backward, backward = self._backward(emit, insertion_step, p_del,
                                                length, m)

        # Posterior of the emission edge (i, j) -> (i+1, j+1):
        # F[i, j] * emit[i, j] * B[i+1, j+1], in log space for scaling.
        with np.errstate(divide="ignore"):
            log_f = np.log(forward[:-1, :-1]) + log_forward[:-1, None]
            log_b = np.log(backward[1:, 1:]) + log_backward[1:, None]
        log_edge = log_f + np.log(emit) + log_b
        log_edge -= log_edge.max()  # scale-free: weights are relative
        edge = np.exp(log_edge)  # (L, m)

        votes = np.zeros((length, self.n_alphabet), dtype=np.float64)
        for symbol in range(self.n_alphabet):
            mask = read == symbol
            if mask.any():
                votes[:, symbol] += edge[:, mask].sum(axis=1)
        # Normalize per position so each read contributes one soft vote.
        totals = votes.sum(axis=1, keepdims=True)
        np.divide(votes, np.maximum(totals, _TINY), out=votes)
        return votes

    def _forward(self, emit, insertion_step, p_del, length, m):
        """Row-normalized forward lattice with per-row log scales."""
        forward = np.zeros((length + 1, m + 1), dtype=np.float64)
        log_scale = np.zeros(length + 1, dtype=np.float64)
        # Row 0: only insertions from (0, 0).
        row = insertion_step ** np.arange(m + 1, dtype=np.float64)
        scale = row.sum()
        forward[0] = row / scale
        log_scale[0] = np.log(scale)
        for i in range(1, length + 1):
            base = np.empty(m + 1, dtype=np.float64)
            base[0] = forward[i - 1, 0] * p_del
            base[1:] = (forward[i - 1, :-1] * emit[i - 1]
                        + forward[i - 1, 1:] * p_del)
            # Within-row insertion chain: row[j] = base[j] + a * row[j-1].
            row = lfilter([1.0], [1.0, -insertion_step], base)
            scale = row.sum()
            if scale <= 0:
                scale = _TINY
            forward[i] = row / scale
            log_scale[i] = log_scale[i - 1] + np.log(scale)
        return log_scale, forward

    def _backward(self, emit, insertion_step, p_del, length, m):
        """Row-normalized backward lattice with per-row log scales."""
        backward = np.zeros((length + 1, m + 1), dtype=np.float64)
        log_scale = np.zeros(length + 1, dtype=np.float64)
        row = insertion_step ** np.arange(m, -1, -1, dtype=np.float64)
        scale = row.sum()
        backward[length] = row / scale
        log_scale[length] = np.log(scale)
        for i in range(length - 1, -1, -1):
            base = np.empty(m + 1, dtype=np.float64)
            base[m] = backward[i + 1, m] * p_del
            base[:-1] = (backward[i + 1, 1:] * emit[i]
                         + backward[i + 1, :-1] * p_del)
            # Backward insertion chain: row[j] = base[j] + a * row[j+1].
            row = lfilter([1.0], [1.0, -insertion_step], base[::-1])[::-1]
            scale = row.sum()
            if scale <= 0:
                scale = _TINY
            backward[i] = row / scale
            log_scale[i] = log_scale[i + 1] + np.log(scale)
        return log_scale, backward
