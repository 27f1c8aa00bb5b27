"""Outside-in span recording around each layer's public entry points.

The program's own tracer stays off. For a traced run,
:class:`Instrumentation` replaces every entry point listed by
:func:`entry_points` on its class with a wrapper that records one
:class:`Span` per call into a :class:`SpanRecorder`; uninstalling puts
the original attributes back. Spans stay in memory until
:meth:`SpanRecorder.write` dumps them as JSON lines.

A layer's self time is its spans' durations minus the part of each
interval that child spans cover (:func:`self_times`); whatever the root
spans of a phase do not cover is the benchmark's own time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One call into a layer: ``parent`` indexes the enclosing span
    (``-1`` for a root span), ``work`` holds the counts measured at the
    boundary."""

    layer: str
    call: str
    start: float
    end: float
    parent: int
    request_id: object
    phase: str
    work: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EntryPoint:
    """A method to wrap: ``measure(args, kwargs, result)`` returns the
    work counts recorded on the span (``None`` records none)."""

    cls: type
    method: str
    layer: str
    measure: Optional[Callable] = None


class SpanRecorder:
    """Collects spans on an explicit stack (the benchmark runs in one
    thread). The workload loop sets :attr:`phase` and :attr:`request_id`;
    every span opened afterwards carries them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.phase = "setup"
        self.request_id: object = None
        self._stack: List[int] = []

    def call(self, point: EntryPoint, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(point.layer, f"{point.cls.__name__}.{point.method}",
                    self.clock(), 0.0, parent, self.request_id, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if point.measure is not None:
            span.work = point.measure(args, kwargs, result)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as sink:
            for span in self.spans:
                sink.write(json.dumps({
                    "layer": span.layer, "call": span.call,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "request_id": span.request_id,
                    "phase": span.phase, "work": span.work,
                }, default=str) + "\n")


def covered_length(intervals: Sequence[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.seconds - covered_length(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


@dataclass
class LayerStats:
    """One layer's totals within a phase. ``calls`` and ``work`` count
    only outermost spans of the layer, so a method that calls its own
    layer again is not counted twice."""

    self_s: float = 0.0
    calls: int = 0
    work: Counter = field(default_factory=Counter)


def layer_totals(spans: Sequence[Span], phase: str) -> Dict[str, LayerStats]:
    selfs = self_times(spans)
    totals: Dict[str, LayerStats] = defaultdict(LayerStats)
    for span, own in zip(spans, selfs):
        if span.phase != phase:
            continue
        stats = totals[span.layer]
        stats.self_s += own
        if span.parent < 0 or spans[span.parent].layer != span.layer:
            stats.calls += 1
            stats.work.update(span.work)
    return dict(totals)


def root_seconds(spans: Sequence[Span], phase: str) -> float:
    """Summed duration of the phase's root spans (its traced time)."""
    return sum(span.seconds for span in spans
               if span.phase == phase and span.parent < 0)


# -- the entry points ---------------------------------------------------------

def _batch_arg(args, kwargs):
    return kwargs["batch"] if "batch" in kwargs else args[1]


def _consensus_work(args, kwargs, result):
    batch = _batch_arg(args, kwargs)
    return {"bases": batch.total_bases, "reads": batch.n_reads}


def _cluster_work(args, kwargs, result):
    _, boundaries = result
    return {"reads": _batch_arg(args, kwargs).n_reads,
            "pools": len(boundaries) - 1, "clusters": int(boundaries[-1])}


def _sequence_work(args, kwargs, result):
    return {"reads": result.n_reads}


def _pool_work(args, kwargs, result):
    pool = args[0]
    return {"reads": len(pool) * pool.max_coverage}


def _decode_work(args, kwargs, result):
    return {"codewords": result.n_rows,
            "failed": int(result.n_rows - result.ok.sum())}


def _parity_work(args, kwargs, result):
    return {"codewords": int(result.shape[0])}


def _subclasses(root: type) -> List[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def entry_points() -> List[EntryPoint]:
    """Every layer's public entry points, wrapped where they are defined
    (an override in a subclass is wrapped on that subclass)."""
    import repro.cluster as cluster_pkg
    import repro.consensus  # noqa: F401  (registers every reconstructor)
    from repro.channel.engine import BatchedChannelEngine
    from repro.channel.sequencer import ReadPool
    from repro.consensus.base import Reconstructor
    from repro.core.pipeline import DnaStoragePipeline
    from repro.core.store import DnaStore
    from repro.ecc.reed_solomon import ReedSolomon
    from repro.service.plane import StoreService

    points = [
        EntryPoint(BatchedChannelEngine, "sequence", "channel",
                   _sequence_work),
        EntryPoint(ReadPool, "__init__", "channel", _pool_work),
    ]
    for cls in _subclasses(Reconstructor):
        for method in ("reconstruct_batch",
                       "reconstruct_batch_with_confidence"):
            if method in vars(cls):
                points.append(
                    EntryPoint(cls, method, "consensus", _consensus_work)
                )
    for name in dir(cluster_pkg):
        cls = getattr(cluster_pkg, name)
        if (name.endswith("Clusterer") and isinstance(cls, type)
                and "cluster_pools" in vars(cls)):
            points.append(
                EntryPoint(cls, "cluster_pools", "cluster", _cluster_work)
            )
    points += [
        EntryPoint(DnaStoragePipeline, "receive_many", "pipeline.receive"),
        EntryPoint(DnaStoragePipeline, "correct_many", "pipeline.correct"),
        EntryPoint(DnaStoragePipeline, "decode_many", "pipeline.decode"),
        EntryPoint(DnaStoragePipeline, "encode_many", "pipeline.encode"),
        EntryPoint(ReedSolomon, "decode_many", "ecc.decode", _decode_work),
        EntryPoint(ReedSolomon, "parity_many", "ecc.parity", _parity_work),
        EntryPoint(DnaStore, "read", "store"),
        EntryPoint(DnaStore, "read_many", "store"),
        EntryPoint(DnaStore, "encode", "store.encode"),
        EntryPoint(StoreService, "put", "service.put"),
        EntryPoint(StoreService, "submit", "service.submit"),
        EntryPoint(StoreService, "tick", "service.tick"),
    ]
    return points


class Instrumentation:
    """Installs span-recording wrappers on the entry points' classes for
    the duration of a ``with`` block."""

    def __init__(self, recorder: SpanRecorder,
                 points: Optional[List[EntryPoint]] = None):
        self.recorder = recorder
        self.points = entry_points() if points is None else points
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        for point in self.points:
            original = vars(point.cls)[point.method]
            self._saved.append((point.cls, point.method, original))
            setattr(point.cls, point.method,
                    self._wrapper(point, original))

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrapper(self, point: EntryPoint, original):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(point, original, args, kwargs)

        return wrapper
