"""Frozen single-unit encode/receive/correct loops (differential references).

The original per-cell, per-estimate and per-codeword implementations the
batched engine in :mod:`repro.core.pipeline` and :mod:`repro.core.store`
replaced, kept verbatim as free functions over a pipeline (or store) —
like :mod:`repro.consensus.reference`, :mod:`repro.ecc.reference` and
:mod:`repro.cluster.reference`. :func:`receive_reference` is the Python
parse loop ``DnaStoragePipeline.receive`` ran before it became a one-unit
call into ``receive_many``; :func:`_decode_units_reference` is the
per-unit store decode ``DnaStore.read`` is pinned against. Only the
differential suites call them. Do not optimize this module; its value is
that it never changes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.channel.sequencer import ReadCluster
from repro.codec.basemap import DirectCodec
from repro.core.pipeline import (
    DecodeReport,
    DnaStoragePipeline,
    EncodedUnit,
    ReceivedUnit,
)
from repro.ecc.reed_solomon import DecodeFailure
from repro.ecc.reference import ReferenceReedSolomon
from repro.observability.trace import get_tracer
from repro.utils.bitio import pack_uint


def encode_loop_reference(
    pipeline: DnaStoragePipeline,
    bits: np.ndarray,
    ranking: Optional[np.ndarray] = None,
) -> EncodedUnit:
    """The frozen per-cell loop encoder.

    The original implementation — placement loop, per-codeword
    :func:`_fill_parity`, per-column strand rendering — kept so the
    batched :meth:`~repro.core.pipeline.DnaStoragePipeline.encode` stays
    pinned byte-identical to it.
    """
    prioritized = pipeline._prioritize(bits, ranking)
    symbols = pipeline._bits_to_symbols(prioritized)
    config = pipeline.matrix_config
    matrix = np.zeros((config.payload_rows, config.n_columns), dtype=np.int64)
    for value, (row, column) in zip(symbols, pipeline._placement):
        matrix[row, column] = value
    _fill_parity(pipeline, matrix)
    strands = [
        _column_to_strand(pipeline, matrix, column)
        for column in range(config.n_columns)
    ]
    return EncodedUnit(strands=strands, matrix=matrix,
                       n_data_bits=np.asarray(bits).size)


def _fill_parity(pipeline: DnaStoragePipeline, matrix: np.ndarray) -> None:
    if pipeline._rs is None:
        return
    data_columns = pipeline.matrix_config.data_columns
    for k in range(pipeline.layout.n_codewords):
        cells = pipeline.layout.codeword_cells(k)
        message = np.array(
            [matrix[row, col] for row, col in cells[:data_columns]],
            dtype=np.int64,
        )
        parity = pipeline._rs.parity(message)
        for value, (row, col) in zip(parity, cells[data_columns:]):
            matrix[row, col] = value


def _column_to_strand(
    pipeline: DnaStoragePipeline, matrix: np.ndarray, column: int
) -> str:
    config = pipeline.matrix_config
    bits = [pack_uint(column, config.m)]
    bits += [
        pack_uint(int(matrix[row, column]), config.m)
        for row in range(config.payload_rows)
    ]
    return DirectCodec().encode(np.concatenate(bits))


def receive_reference(
    pipeline: DnaStoragePipeline,
    clusters: Union[Sequence[ReadCluster], ReadBatch],
    confidence_threshold: Optional[float] = None,
) -> ReceivedUnit:
    """The frozen per-unit receive: consensus, then a per-estimate parse.

    Accepts what :meth:`~repro.core.pipeline.DnaStoragePipeline.receive`
    accepts (a cluster list or one :class:`ReadBatch` for the unit) and
    returns the same :class:`ReceivedUnit`.
    """
    config = pipeline.matrix_config
    matrix = np.zeros((config.payload_rows, config.n_columns), dtype=np.int64)
    filled: Set[int] = set()
    duplicates: List[int] = []
    cell_erasures: List[Tuple[int, int]] = []
    invalid = 0
    use_confidence = (
        confidence_threshold is not None
        and hasattr(pipeline.reconstructor, "reconstruct_with_confidence")
    )
    with get_tracer().span("pipeline.receive"):
        estimates, confidences = _reconstruct_unit(
            pipeline, clusters, use_confidence
        )
    for estimate, confidence in zip(estimates, confidences):
        column, symbols = _parse_indices(pipeline, estimate)
        if column is None:
            invalid += 1
            continue
        if column in filled:
            duplicates.append(column)
            continue  # first strand wins; later claims are dropped
        matrix[:, column] = symbols
        filled.add(column)
        if confidence is not None:
            cell_erasures.extend(
                (row, column)
                for row in _low_confidence_rows(
                    pipeline, confidence, confidence_threshold
                )
            )
    erased = [c for c in range(config.n_columns) if c not in filled]
    return ReceivedUnit(
        matrix=matrix,
        erased_columns=erased,
        duplicate_columns=duplicates,
        invalid_strands=invalid,
        cell_erasures=cell_erasures,
    )


def _reconstruct_unit(
    pipeline: DnaStoragePipeline,
    clusters: Union[Sequence[ReadCluster], ReadBatch],
    use_confidence: bool,
) -> Tuple[Sequence[np.ndarray], Sequence[Optional[np.ndarray]]]:
    """Run the unit's surviving clusters through the reconstructor.

    Lost clusters (strand dropouts) are excluded before consensus —
    their degenerate estimates would otherwise claim column 0.
    """
    length = pipeline.matrix_config.strand_length
    reconstructor = pipeline.reconstructor
    if isinstance(clusters, ReadBatch):
        live_batch = clusters.drop_lost()
        if use_confidence:
            results = reconstructor.reconstruct_batch_with_confidence(
                live_batch, length
            )
            return ([e for e, _ in results], [c for _, c in results])
        estimates = reconstructor.reconstruct_batch(live_batch, length)
        return estimates, [None] * len(estimates)
    live = [cluster for cluster in clusters if not cluster.is_lost]
    index_clusters = [cluster.read_indices() for cluster in live]
    if use_confidence:
        results = _confidence_ladder(pipeline, index_clusters, length)
        return ([e for e, _ in results], [c for _, c in results])
    estimates = reconstructor.reconstruct_many_indices(index_clusters, length)
    return estimates, [None] * len(live)


def _confidence_ladder(
    pipeline: DnaStoragePipeline,
    index_clusters: Sequence[Sequence[np.ndarray]],
    length: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Confidence reconstruction over index lists: the batched variant
    when the reconstructor has one (the posterior's runs the whole unit
    through one lattice sweep), per-cluster calls otherwise."""
    reconstructor = pipeline.reconstructor
    if hasattr(reconstructor, "reconstruct_many_with_confidence"):
        return reconstructor.reconstruct_many_with_confidence(
            index_clusters, length
        )
    return [
        reconstructor.reconstruct_with_confidence(reads, length)
        for reads in index_clusters
    ]


def _low_confidence_rows(
    pipeline: DnaStoragePipeline, confidence: np.ndarray, threshold: float
) -> List[int]:
    """Payload rows containing any base below the confidence threshold."""
    config = pipeline.matrix_config
    bases_per_symbol = config.m // 2
    payload = confidence[config.index_bases:]
    per_row = payload[: config.payload_rows * bases_per_symbol].reshape(
        config.payload_rows, bases_per_symbol
    )
    return [int(r) for r in np.nonzero(per_row.min(axis=1) < threshold)[0]]


def _parse_indices(
    pipeline: DnaStoragePipeline, indices: np.ndarray
) -> Tuple[Optional[int], np.ndarray]:
    """Split a consensus strand (as base indices) into column + symbols.

    Vectorized counterpart of decoding the strand to bits and unpacking
    ``m``-bit groups: each base carries two bits, so ``m // 2``
    consecutive bases form one matrix symbol.
    """
    config = pipeline.matrix_config
    indices = np.asarray(indices, dtype=np.int64)
    bases_per_symbol = config.m // 2
    if indices.size != config.strand_length:
        # Truncated or overlong estimates cannot split into index +
        # payload symbols; treat them like a bad index instead of
        # letting the reshape below blow up.
        return None, np.zeros(0, dtype=np.int64)
    # Base-4 big-endian digits -> integers, one symbol per group.
    weights = 4 ** np.arange(bases_per_symbol - 1, -1, -1, dtype=np.int64)
    grouped = indices.reshape(-1, bases_per_symbol)
    values = grouped @ weights
    index = int(values[0])
    if index >= config.n_columns:
        return None, np.zeros(0, dtype=np.int64)
    return index, values[1:]


def correct_matrix_loop_reference(
    pipeline: DnaStoragePipeline,
    received: ReceivedUnit,
    extra_erasure_columns: Sequence[int] = (),
) -> Tuple[np.ndarray, DecodeReport]:
    """The frozen per-codeword correction loop.

    The original implementation — one scalar
    :meth:`~repro.ecc.reference.ReferenceReedSolomon.decode` try/except
    per dirty codeword, soft-erasure fallback per codeword — kept so the
    batched :meth:`~repro.core.pipeline.DnaStoragePipeline.
    correct_matrix_many` stays pinned byte-identical to it
    (``tests/ecc/test_batched_vs_reference.py``,
    ``tests/integration/test_perf_budget.py``).
    """
    config = pipeline.matrix_config
    codeword_rows = pipeline._codeword_rows
    codeword_cols = pipeline._codeword_cols
    matrix = received.matrix.copy()
    erased = sorted(set(received.erased_columns) | set(
        int(c) for c in extra_erasure_columns
    ))
    for column in erased:
        if not (0 <= column < config.n_columns):
            raise ValueError(f"erasure column {column} out of range")
    failed: List[int] = []
    corrected = 0
    if pipeline._rs is not None:
        rs = _reference_codec(config.m, config.nsym, config.n_columns)
        data_columns = config.data_columns
        words = matrix[codeword_rows, codeword_cols]
        erased_mask = np.zeros(config.n_columns, dtype=bool)
        erased_mask[erased] = True
        # Boolean cell-erasure matrix, built once per unit: soft flags
        # gather per codeword by fancy indexing below instead of per-cell
        # tuple-set membership tests.
        soft_cells = np.zeros(
            (config.payload_rows, config.n_columns), dtype=bool
        )
        for row, column in received.cell_erasures:
            soft_cells[int(row), int(column)] = True
        soft_cells &= ~erased_mask[None, :]
        zero_mask = erased_mask[codeword_cols]
        zeroed = np.where(zero_mask, 0, words)
        clean = ~np.any(rs.syndromes_many(zeroed) != 0, axis=1)
        n_erasures = zero_mask.sum(axis=1)
        for k in range(pipeline.layout.n_codewords):
            erasure_positions = [
                int(j) for j in np.flatnonzero(zero_mask[k])
            ]
            # Low-confidence cells are *advisory* erasures: include them
            # while they fit the budget, and fall back to the hard
            # (column) erasures alone if decoding then fails — a wrong
            # confidence flag must never lose a codeword that plain
            # decoding would have saved.
            soft_positions = [
                int(j) for j in np.flatnonzero(
                    soft_cells[codeword_rows[k], codeword_cols[k]]
                )
            ]
            if not soft_positions:
                if n_erasures[k] > rs.nsym:
                    failed.append(k)
                    continue
                if clean[k]:
                    corrected += int(n_erasures[k])
                    matrix[codeword_rows[k, :data_columns],
                           codeword_cols[k, :data_columns]] = \
                        zeroed[k, : rs.k]
                    continue
            budget = rs.nsym - len(erasure_positions)
            augmented = erasure_positions + soft_positions[:max(budget, 0)]
            try:
                message, n_fixed = rs.decode(words[k], augmented)
            except DecodeFailure:
                try:
                    message, n_fixed = rs.decode(words[k], erasure_positions)
                except DecodeFailure:
                    failed.append(k)
                    continue
            corrected += n_fixed
            matrix[codeword_rows[k, :data_columns],
                   codeword_cols[k, :data_columns]] = message
    report = DecodeReport(
        erased_columns=erased,
        failed_codewords=failed,
        corrected_symbols=corrected,
    )
    return matrix, report


@lru_cache(maxsize=8)
def _reference_codec(m: int, nsym: int, n: int) -> ReferenceReedSolomon:
    """The frozen scalar codec for one geometry, built once."""
    return ReferenceReedSolomon(m, nsym=nsym, n=n)


def _decode_units_reference(
    store,
    reads,
    n_data_bits: int,
    ranking: Optional[np.ndarray] = None,
    confidence_threshold: Optional[float] = None,
):
    """Frozen per-unit store decode (one :func:`receive_reference` per unit).

    The original :class:`~repro.core.store.DnaStore` decode loop, the
    differential baseline the coalescing engine behind
    :meth:`~repro.core.store.DnaStore.read` is pinned against. Accepts
    the same labeled input forms (one spanning batch, one batch or
    cluster list per unit) and returns ``(bits, StoreReport)``; it is
    simply N reconstructor calls instead of one.
    """
    n_units = store.units_needed(n_data_bits)
    received = [
        receive_reference(
            store.pipeline, unit_reads,
            confidence_threshold=confidence_threshold,
        )
        for unit_reads in store._per_unit_reads(reads, n_units)
    ]
    return _correct_units(store, received, n_data_bits, ranking)


def _correct_units(store, received, n_data_bits, ranking):
    """Batched RS correction + stripe reassembly (shared tail).

    All units' dirty codewords decode through one
    :meth:`~repro.core.pipeline.DnaStoragePipeline.correct_many` call —
    a single batched errata wave (plus at most one soft-erasure retry
    wave) for the whole store.
    """
    n_units = store.units_needed(n_data_bits)
    corrected = store.pipeline.correct_many(
        received, store._stripe_sizes(n_data_bits, n_units)
    )
    return store._assemble_bits(corrected, n_data_bits, ranking)
