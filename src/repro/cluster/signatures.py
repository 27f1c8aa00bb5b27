"""Vectorized k-mer (q-gram) signatures over the columnar read plane.

A read's q-gram signature is the histogram of its length-``q`` windows,
each window encoded as a base-4 integer; the L1 distance between two
signatures lower-bounds ``2 * q`` times their edit distance (one edit
creates/destroys at most ``q`` windows on each side), which is the
prefilter the greedy clusterers use to skip hopeless representative
comparisons.

The kernel here computes the signatures of *every read of a batch* in one
pass over the flat base buffer: rolling base-4 window codes as one
sliding-window dot product (no per-character Python loop, no dict
lookups), window validity (windows must not straddle a read boundary) as
one segmented comparison, and all reads' histograms via a single
``bincount`` over ``read * 4**q + code`` keys. The single-read helper
:func:`qgram_signature` rides the same rolling-code kernel, so there
is one signature definition (pinned against the frozen per-character
loop in :mod:`repro.cluster.reference` by the differential suite).

Dense histograms are ``(n_reads, n_alphabet**q)`` and explode
combinatorially in ``q`` — a million reads at ``q=8`` would need a
quarter terabyte — so :func:`batch_signatures` enforces a byte budget,
and :func:`batch_signatures_sparse` provides the ``(read_id, code,
count)`` COO form whose size follows the reads, not the code space.
The sparse form is what the LSH clusterer's minhash banding consumes
(:mod:`repro.cluster.lsh`).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch

#: Anything the batch kernel accepts: a ReadBatch or a raw columnar
#: ``(buffer, offsets, lengths)`` triple.
ColumnarReads = Union[ReadBatch, Tuple[np.ndarray, np.ndarray, np.ndarray]]

#: Byte budget for one dense signature matrix (int32 cells). Generous for
#: every prefilter-sized ``q`` (a million reads at q=3 is 256 MB) while
#: catching the silent q >= 8 blow-ups long before the allocation.
DENSE_SIGNATURE_BYTE_BUDGET = 1 << 30


def rolling_qgram_codes(
    flat: np.ndarray, q: int, n_alphabet: int = 4
) -> np.ndarray:
    """Base-``n_alphabet`` codes of every length-``q`` window of ``flat``.

    Window ``i`` covers ``flat[i : i + q]``, big-endian (the first base is
    the most significant digit — the same code the per-character rolling
    loop of the frozen reference produces). Returns an ``int64`` array of
    ``len(flat) - q + 1`` codes (empty when ``flat`` is shorter than
    ``q``): one sliding-window dot product against the base-``n_alphabet``
    place values, exact in int64.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    flat = np.asarray(flat)
    n_windows = flat.size - q + 1
    if n_windows <= 0:
        return np.zeros(0, dtype=np.int64)
    place_values = n_alphabet ** np.arange(q - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.ascontiguousarray(flat, dtype=np.int64), q
    )
    return windows @ place_values


def qgram_signature(
    read: np.ndarray, q: int, n_alphabet: int = 4
) -> np.ndarray:
    """Histogram of one read's q-gram codes, ``(n_alphabet**q,)`` int32.

    Bit-identical to the frozen per-character loop
    (``repro.cluster.reference._qgram_signature``) on index arrays; reads
    shorter than ``q`` give the all-zero signature.
    """
    codes = rolling_qgram_codes(read, q, n_alphabet)
    return np.bincount(codes, minlength=n_alphabet ** q).astype(np.int32)


def _as_columnar(reads: ColumnarReads) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    if isinstance(reads, ReadBatch):
        return reads.buffer, reads.offsets, reads.lengths
    buffer, offsets, lengths = reads
    return (np.asarray(buffer), np.asarray(offsets, dtype=np.int64),
            np.asarray(lengths, dtype=np.int64))


def _valid_window_codes(
    reads: ColumnarReads, q: int, n_alphabet: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(owners, codes, n_reads)`` of every in-read q-gram window.

    The shared kernel behind both signature layouts: reads are gathered
    tight (a no-op when the batch already is), window codes roll across
    the whole buffer, and windows straddling a read boundary are masked
    out by one segmented comparison. ``owners`` is sorted ascending.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    buffer, offsets, lengths = _as_columnar(reads)
    n_reads = lengths.size
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, n_reads
    tight_starts = np.cumsum(lengths) - lengths
    read_of_base = np.repeat(np.arange(n_reads, dtype=np.int64), lengths)
    if buffer.size == total and np.array_equal(offsets, tight_starts):
        flat = buffer
    else:
        within = np.arange(total, dtype=np.int64) \
            - tight_starts[read_of_base]
        flat = buffer[offsets[read_of_base] + within]
    codes = rolling_qgram_codes(flat, q, n_alphabet)
    if codes.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, n_reads
    # A window starting at flat position p belongs to read r iff it fits
    # entirely inside r: (p - start_r) + q <= len_r.
    owners = read_of_base[: codes.size]
    positions = np.arange(codes.size, dtype=np.int64)
    valid = positions - tight_starts[owners] + q <= lengths[owners]
    return owners[valid], codes[valid], n_reads


def batch_signatures(
    reads: ColumnarReads,
    q: int,
    n_alphabet: int = 4,
    max_bytes: int = DENSE_SIGNATURE_BYTE_BUDGET,
) -> np.ndarray:
    """Signatures of every read of a batch, ``(n_reads, n_alphabet**q)``.

    One pass over the flat base buffer: reads are gathered tight (a no-op
    when the batch already is), window codes roll across the whole
    buffer, windows straddling a read boundary are masked out by one
    segmented comparison, and every read's histogram comes from a single
    flat ``bincount``. Row ``i`` equals ``qgram_signature(read_i, q)``.

    The dense matrix costs ``n_reads * n_alphabet**q`` int32 cells
    regardless of how few of them are nonzero, so the call refuses (with
    a ``ValueError``) any request beyond ``max_bytes`` — at q >= 8 even
    modest pools cross a gigabyte. Large-``q`` consumers should switch
    to :func:`batch_signatures_sparse`.
    """
    buffer, offsets, lengths = _as_columnar(reads)
    n_reads = lengths.size
    n_bins = n_alphabet ** q if q > 0 else 0
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    dense_bytes = n_reads * n_bins * np.dtype(np.int32).itemsize
    if dense_bytes > max_bytes:
        raise ValueError(
            f"dense q-gram signatures for n_reads={n_reads}, q={q} need "
            f"{dense_bytes} bytes ({n_reads} x {n_bins} int32), over the "
            f"{max_bytes}-byte budget; use batch_signatures_sparse for "
            f"large q or raise max_bytes explicitly"
        )
    owners, codes, n_reads = _valid_window_codes(
        (buffer, offsets, lengths), q, n_alphabet
    )
    if codes.size == 0:
        return np.zeros((n_reads, n_bins), dtype=np.int32)
    keys = owners * n_bins + codes
    counts = np.bincount(keys, minlength=n_reads * n_bins)
    return counts.reshape(n_reads, n_bins).astype(np.int32)


def batch_signatures_sparse(
    reads: ColumnarReads, q: int, n_alphabet: int = 4
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse COO signatures: ``(read_ids, codes, counts)`` triples.

    The same histograms as :func:`batch_signatures`, but holding only
    the nonzero cells: entry ``j`` says read ``read_ids[j]`` contains
    q-gram ``codes[j]`` exactly ``counts[j]`` times. Triples are sorted
    by ``(read_id, code)``, so each read's run is contiguous
    (``np.searchsorted(read_ids, ...)`` recovers per-read boundaries)
    and size follows the reads — ``O(total_bases)`` worst case — never
    the ``n_alphabet**q`` code space. Reads shorter than ``q``
    contribute no triples.
    """
    owners, codes, _ = _valid_window_codes(reads, q, n_alphabet)
    if codes.size == 0:
        empty64 = np.zeros(0, dtype=np.int64)
        return empty64, empty64, np.zeros(0, dtype=np.int32)
    n_bins = n_alphabet ** q
    keys, counts = np.unique(owners * n_bins + codes, return_counts=True)
    read_ids, sparse_codes = np.divmod(keys, n_bins)
    return read_ids, sparse_codes, counts.astype(np.int32)


def l1_distances(signatures: np.ndarray, target: np.ndarray) -> np.ndarray:
    """L1 distance of every signature row to ``target``, one array op.

    ``l1 / (2 * q)`` lower-bounds the edit distance, so rows with
    ``l1 > 2 * q * threshold`` can be skipped without changing any greedy
    assignment.
    """
    return np.abs(signatures.astype(np.int64) - target.astype(np.int64)) \
        .sum(axis=1)
