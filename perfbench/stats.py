"""Small statistics helpers shared by the workloads and the runner."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> float:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it; the median when none has."""
    for pct in TAIL_LADDER:
        # Tolerance: 100 - 99.9 is not exactly 0.1 in floating point.
        if n_samples * (100.0 - pct) / 100.0 + 1e-9 >= MIN_BEYOND:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def latency_summary(
    latencies_s: Sequence[float],
) -> Tuple[float, float, float]:
    """``(p50_ms, tail_ms, tail_pct)`` of latencies given in seconds."""
    pct = tail_percentile(len(latencies_s))
    return (
        percentile(latencies_s, 50.0) * 1e3,
        percentile(latencies_s, pct) * 1e3,
        pct,
    )
