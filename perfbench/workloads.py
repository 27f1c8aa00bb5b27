"""The benchmark's four seeded workloads.

Each workload builds its inputs from the seed (:meth:`Workload.setup`),
checks that every input decodes exactly through a solo read
(:meth:`Workload.verify`), then drives the program through its public
entry points for a fixed time (:meth:`Workload.run`) and checks every
answer. The program receives only the generated reads and requests.

* ``bulk-read`` - closed loop, one caller; each op is one
  ``DnaStore.read`` of a 4-unit labeled object. Consensus does almost
  all of the work; clustering is bypassed.
* ``pool-read`` - closed loop, one caller; each op is one
  ``DnaStore.read(pool=True)`` of a 1-unit unlabeled pool with the
  default clusterer. The only workload in which ``cluster`` runs.

  Neither read workload shows the program an input twice: every op
  reads a read set of its own, and the run ends early if the corpus
  runs out. Only serve-zipf repeats keys, because its cache is what it
  measures.
* ``serve-zipf`` - open loop: Poisson arrivals at a fixed rate, Zipf
  popularity over a corpus four times the cache, 5% writes. The only
  workload that crosses the service plane and its cache.
* ``coverage-sweep`` - closed loop of whole Figure-12 sweeps through
  ``min_coverage_for_error_free``: the researchers' traffic, and the
  only run-phase use of the channel and of encoding.

An op succeeds only when its bits equal the payload and its report is
clean; ops that raise, answer wrong or are lost count as failed.
"""

from __future__ import annotations

import copy
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import min_coverage_for_error_free
from repro.channel import ErrorModel, GammaCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.store import DnaStore, ReadRequest
from repro.service import StoreService

from perfbench.stats import median, percentile

clock = time.perf_counter

FIG12_MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
CLUSTERING_MATRIX = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
SERVICE_MATRIX = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)


class SetupError(RuntimeError):
    """Generated inputs that the program cannot decode exactly."""


@dataclass
class OpRecord:
    """One attempted op: its latency (from its due time in an open
    loop), whether it succeeded, and the encoding units the pipeline
    decoded for it (none for a cache hit or a write)."""

    latency_s: float
    ok: bool
    units: int


@dataclass
class RunResult:
    """What a measured run did. ``busy_s`` is the time spent inside
    the program's entry points; ``extra`` holds workload-specific
    observations (cache hit rate, generator lag, sweep minima...)."""

    ops: List[OpRecord]
    window_s: float
    busy_s: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def exact(result, bits: np.ndarray) -> bool:
    return bool(result.report.clean and np.array_equal(result.bits, bits))


class FailureLog:
    """Counts op exceptions and prints the first traceback to stderr, so
    a raising op is reported without stopping the run."""

    def __init__(self) -> None:
        self.count = 0

    def record(self, where: str) -> None:
        if self.count == 0:
            print(f"op failed in {where}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.count += 1


def closed_loop(seconds: float, op: Callable[[int], Tuple[bool, int]],
                recorder=None, limit: Optional[int] = None) -> RunResult:
    """Call ``op(i)`` back to back until ``seconds`` have passed (at
    least once), or until ``limit`` ops have run. ``op`` returns
    ``(ok, units)``."""
    failures = FailureLog()
    ops: List[OpRecord] = []
    start = clock()
    i = 0
    while i == 0 or (clock() - start < seconds
                     and (limit is None or i < limit)):
        if recorder is not None:
            recorder.request_id = i
        t0 = clock()
        try:
            ok, units = op(i)
        except Exception:
            failures.record(f"op {i}")
            ok, units = False, 0
        ops.append(OpRecord(clock() - t0, ok, units))
        i += 1
    window = clock() - start
    return RunResult(ops, window, sum(op.latency_s for op in ops))


class Workload:
    """Base class: the name, the fixed latency limit and the number of
    setups whose median is ``setup_s``."""

    name: str
    latency_limit_ms: float
    setup_repeats: int

    def setup(self, seed: int):
        raise NotImplementedError

    def verify(self, state) -> None:
        raise NotImplementedError

    def run(self, state, seconds: float, recorder=None) -> RunResult:
        raise NotImplementedError


# -- bulk-read and pool-read: closed loops over DnaStore.read -----------------

@dataclass
class _ReadCorpus:
    store: DnaStore
    # (payload bits, labeled reads, the reads an op hands the program:
    # the labeled reads themselves, or their shuffled unlabeled pool)
    objects: List[Tuple[np.ndarray, object, object]]
    pool: bool


@dataclass
class StoreRead(Workload):
    """A closed loop of solo ``DnaStore.read`` calls, one per object of
    a corpus of ``n_objects`` objects of ``units_per_object`` units.
    Op ``i`` reads object ``i``; the run ends when every object has been
    read once, so no op repeats an input the program has already
    decoded."""

    name: str
    matrix: MatrixConfig
    layout: str
    error_rate: float
    mean_coverage: float
    units_per_object: int
    n_objects: int
    pool: bool
    latency_limit_ms: float
    setup_repeats: int

    def _store(self) -> DnaStore:
        return DnaStore(PipelineConfig(matrix=self.matrix,
                                       layout=self.layout))

    def setup(self, seed: int) -> _ReadCorpus:
        rng = np.random.default_rng(seed)
        store = self._store()
        simulator = SequencingSimulator(
            ErrorModel.uniform(self.error_rate),
            GammaCoverage(self.mean_coverage),
        )
        n_bits = self.units_per_object * store.unit_capacity_bits
        objects = []
        for _ in range(self.n_objects):
            bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            image = store.encode(bits)
            reads = simulator.sequence_store(image, rng)
            given = reads
            if self.pool:  # what sequence_store(labeled=False) returns
                sizes = [len(unit.strands) for unit in image.units]
                given = reads.pooled(np.cumsum([0] + sizes), rng=rng)
            objects.append((bits, reads, given))
        return _ReadCorpus(store, objects, self.pool)

    def verify(self, corpus: _ReadCorpus) -> None:
        """Every object's labeled reads decode exactly: the channel left
        enough to decode. A pool's labeled form is checked, because
        recovering its clusters is the program's work, which the run
        checks. The reads are copies and the store is a fresh one, so
        the run's store sees every input for the first time."""
        store = self._store()
        for k, (bits, reads, _) in enumerate(corpus.objects):
            request = ReadRequest(copy.deepcopy(reads), bits.size)
            if not exact(store.read(request), bits):
                raise SetupError(
                    f"{self.name}: object {k} does not decode exactly"
                )

    def run(self, corpus: _ReadCorpus, seconds: float,
            recorder=None) -> RunResult:
        def op(i: int) -> Tuple[bool, int]:
            bits, _, given = corpus.objects[i]
            result = corpus.store.read(
                ReadRequest(given, bits.size, pool=corpus.pool)
            )
            ok = exact(result, bits)
            return ok, self.units_per_object if ok else 0

        return closed_loop(seconds, op, recorder,
                           limit=len(corpus.objects))


def bulk_read() -> StoreRead:
    # At about 2.5 ops/s, 40 objects last most of a 20 s window; each
    # one costs the set-up and the verification a decode's worth.
    return StoreRead(
        name="bulk-read", matrix=FIG12_MATRIX, layout="gini",
        error_rate=0.06, mean_coverage=10.0, units_per_object=4,
        n_objects=40, pool=False, latency_limit_ms=1000.0,
        setup_repeats=3,
    )


def pool_read() -> StoreRead:
    # 32 pools outlast the window at about 1 op/s.
    return StoreRead(
        name="pool-read", matrix=CLUSTERING_MATRIX, layout="baseline",
        error_rate=0.01, mean_coverage=6.0, units_per_object=1,
        n_objects=32, pool=True, latency_limit_ms=2500.0,
        setup_repeats=5,
    )


# -- serve-zipf: an open loop over StoreService -------------------------------

@dataclass
class Schedule:
    """An open-loop arrival schedule: due times (s from the start), the
    object each op touches, and which ops are writes."""

    due: np.ndarray
    keys: np.ndarray
    writes: np.ndarray

    def __len__(self) -> int:
        return int(self.due.size)


def make_schedule(seed: int, rate: float, seconds: float, n_objects: int,
                  zipf_s: float, write_fraction: float) -> Schedule:
    """``round(rate * seconds)`` arrivals over ``seconds``, at uniformly
    random times (a Poisson process given its count), in random order.

    Keys follow a Zipf(``zipf_s``) popularity over a seeded ranking of
    the objects, drawn by stratified inverse-CDF sampling (one key per
    ``1/n`` slice of the distribution), and exactly ``write_fraction``
    of the ops are writes. So every seed sends each popularity rank its
    share of the ops to within two, and seeds differ in timing, order
    and which objects are popular rather than in the request mix."""
    rng = np.random.default_rng([seed, 1])
    popularity = rng.permutation(n_objects)  # drawn first: same for any n
    n = int(round(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, n))
    weights = 1.0 / np.arange(1, n_objects + 1) ** zipf_s
    cdf = np.cumsum(weights) / weights.sum()
    strata = (np.arange(n) + rng.random(n)) / n
    ranks = np.minimum(np.searchsorted(cdf, strata, side="right"),
                       n_objects - 1)
    ranks = rng.permutation(ranks)
    writes = np.zeros(n, dtype=bool)
    writes[rng.choice(n, int(round(n * write_fraction)), replace=False)] = True
    return Schedule(due, popularity[ranks], writes)


@dataclass
class _ServeState:
    seed: int
    service: StoreService
    payloads: List[np.ndarray]
    read_sets: List[Tuple[object, object]]  # two read sets per object
    current: List[int]  # which read set each object is served from
    epochs: List[int]  # each object's epoch, as put last returned it


@dataclass
class ServeZipf(Workload):
    """Open-loop serving: Poisson arrivals, Zipf keys, a few writes."""

    name: str = "serve-zipf"
    matrix: MatrixConfig = SERVICE_MATRIX
    n_objects: int = 256
    cache_units: int = 128
    batch_window: int = 8
    zipf_s: float = 1.0
    write_fraction: float = 0.05
    rate: float = 10.0
    error_rate: float = 0.005
    mean_coverage: float = 12.0
    latency_limit_ms: float = 40.0
    setup_repeats: int = 3

    def setup(self, seed: int) -> _ServeState:
        rng = np.random.default_rng(seed)
        store = DnaStore(PipelineConfig(matrix=self.matrix))
        simulator = SequencingSimulator(
            ErrorModel.uniform(self.error_rate),
            GammaCoverage(self.mean_coverage),
        )
        service = StoreService(store, cache_capacity=self.cache_units,
                               batch_window=self.batch_window)
        payloads, read_sets, epochs = [], [], []
        for k in range(self.n_objects):
            bits = rng.integers(0, 2, store.unit_capacity_bits,
                                dtype=np.uint8)
            image = store.encode(bits)
            pair = (simulator.sequence_store(image, rng),
                    simulator.sequence_store(image, rng))
            epochs.append(service.put(k, pair[0], bits.size))
            payloads.append(bits)
            read_sets.append(pair)
        return _ServeState(seed, service, payloads, read_sets,
                           [0] * self.n_objects, epochs)

    def verify(self, state: _ServeState) -> None:
        """Both read sets of every object decode exactly, through a
        fresh store and copies of the reads; then the cache is warmed."""
        store = DnaStore(PipelineConfig(matrix=self.matrix))
        for k, bits in enumerate(state.payloads):
            for which, reads in enumerate(state.read_sets[k]):
                result = store.read(
                    ReadRequest(copy.deepcopy(reads), bits.size))
                if not exact(result, bits):
                    raise SetupError(
                        f"{self.name}: object {k} read set {which} does "
                        "not decode exactly"
                    )
        # Warm the cache as a long-running service would have it: one
        # read at a time through the run's popularity ranking.
        warm = make_schedule(state.seed, 1.0, 2 * self.cache_units,
                             self.n_objects, self.zipf_s, 0.0)
        service = state.service
        for key in warm.keys.tolist():
            service.submit(key)
            service.tick()

    def run(self, state: _ServeState, seconds: float,
            recorder=None) -> RunResult:
        schedule = make_schedule(state.seed, self.rate, seconds,
                                 self.n_objects, self.zipf_s,
                                 self.write_fraction)
        return _OpenLoop(self, state, schedule, recorder).run()


class _OpenLoop:
    """One thread issues every op when it falls due and calls ``tick()``
    whenever the queue is non-empty. Each op is timed from its due time;
    ``lag`` is how late the generator issued it."""

    def __init__(self, workload: ServeZipf, state: _ServeState,
                 schedule: Schedule, recorder) -> None:
        self.workload = workload
        self.state = state
        self.service = state.service
        self.schedule = schedule
        self.recorder = recorder
        n = len(schedule)
        self.status = np.full(n, -1, dtype=np.int8)  # -1 open, 0 bad, 1 ok
        self.latency = np.zeros(n)
        self.lag = np.zeros(n)
        self.decoded = np.zeros(n, dtype=np.int8)  # 1: a cache miss
        self.ticket_op: Dict[int, int] = {}
        self.submitted_at: Dict[int, float] = {}
        self.waiting: deque = deque()  # tickets submitted, not yet drained
        self.queue_waits: List[float] = []
        self.busy = 0.0
        self.ticks = 0
        self.answered = 0
        self.failures = FailureLog()

    def run(self) -> RunResult:
        cache = self.service.cache
        hits0, misses0 = cache.hits, cache.misses
        due = self.schedule.due
        n = len(self.schedule)
        self.start = start = clock()
        i = 0
        while True:
            while i < n and due[i] <= clock() - start:
                self._issue(i)
                i += 1
            # Busy-poll rather than sleep between ops: a sleeping process
            # lets its core clock down and wakes late, which would count
            # against the program as latency.
            if self.service.queue_depth:
                self._tick()
            elif i >= n:
                break
        window = clock() - start
        for op in np.flatnonzero(self.status < 0):  # never answered: lost
            self.status[op] = 0
        lookups = cache.hits - hits0 + cache.misses - misses0
        extra = {
            "cache_hit_rate":
                (cache.hits - hits0) / lookups if lookups else 0.0,
            "requests_per_tick":
                self.answered / self.ticks if self.ticks else 0.0,
            "queue_wait_p50_ms": median(self.queue_waits) * 1e3,
            "generator_lag_p99_ms": percentile(self.lag, 99.0) * 1e3,
            "writes": float(self.schedule.writes.sum()),
        }
        ops = [
            OpRecord(float(self.latency[k]), bool(self.status[k] == 1),
                     int(self.decoded[k]) if self.status[k] == 1 else 0)
            for k in range(n)
        ]
        return RunResult(ops, window, self.busy, extra)

    def _issue(self, i: int) -> None:
        if self.recorder is not None:
            self.recorder.request_id = i
        key = int(self.schedule.keys[i])
        t0 = clock()
        self.lag[i] = t0 - self.start - self.schedule.due[i]
        if self.schedule.writes[i]:
            state = self.state
            bits = state.payloads[key]
            other = 1 - state.current[key]
            try:
                epoch = self.service.put(
                    key, state.read_sets[key][other], bits.size
                )
            except Exception:
                self.failures.record(f"put of op {i}")
                epoch = None
            t1 = clock()
            self.busy += t1 - t0
            self.status[i] = int(epoch == state.epochs[key] + 1)
            # Follow what the service reports, so that one fault fails
            # one op and not every later write of the object.
            if epoch is not None:
                state.current[key] = other
                state.epochs[key] = epoch
            self.latency[i] = t1 - self.start - self.schedule.due[i]
            return
        try:
            ticket = self.service.submit(key)
        except Exception:
            self.failures.record(f"submit of op {i}")
            self.status[i] = 0
            self.busy += clock() - t0
            return
        self.busy += clock() - t0
        self.ticket_op[ticket] = i
        self.submitted_at[ticket] = t0
        self.waiting.append(ticket)

    def _tick(self) -> None:
        service = self.service
        if self.recorder is not None:
            window = self.workload.batch_window
            self.recorder.request_id = [
                self.ticket_op[t] for t in list(self.waiting)[:window]
            ]
        depth = service.queue_depth
        t0 = clock()
        try:
            answers = service.tick()
        except Exception:
            self.failures.record(f"tick {self.ticks}")
            answers = []
        t1 = clock()
        self.busy += t1 - t0
        self.ticks += 1
        drained = set()
        for _ in range(min(depth - service.queue_depth, len(self.waiting))):
            ticket = self.waiting.popleft()
            drained.add(ticket)
            self.queue_waits.append(t0 - self.submitted_at[ticket])
        for answer in answers:
            op = self.ticket_op.get(answer.request_id)
            if op is None:
                continue  # an answer to no ticket of ours
            if answer.request_id not in drained or self.status[op] != -1:
                self.status[op] = 0  # answered twice, or out of turn
                continue
            key = int(self.schedule.keys[op])
            self.status[op] = int(exact(answer, self.state.payloads[key]))
            self.decoded[op] = not answer.cache_hit
            self.latency[op] = t1 - self.start - self.schedule.due[op]
            self.answered += 1
        for ticket in drained:  # drained but never answered: lost
            op = self.ticket_op[ticket]
            if self.status[op] == -1:
                self.status[op] = 0


# -- coverage-sweep: whole Figure-12 sweeps -----------------------------------

#: The highest mean minimum coverage a sweep may report per (layout,
#: error rate) before it counts as failed: the largest value seen in 40
#: sweeps (seeds 100-119, sweeps 0 and 1: 5.0, 10.33, 4.17 and 8.17)
#: plus one read per strand, rounded up to a quarter. A decode change
#: that costs reliability fails sweeps here; smaller losses show in the
#: per-layer ``sweep.min_coverage_*``.
SWEEP_CEILINGS = {
    ("baseline", 0.03): 6.0,
    ("baseline", 0.09): 11.5,
    ("gini", 0.03): 5.25,
    ("gini", 0.09): 9.25,
}


@dataclass
class _SweepState:
    seed: int
    pipelines: Dict[str, DnaStoragePipeline]


@dataclass
class CoverageSweep(Workload):
    """Closed loop of whole sweeps: both layouts x both error rates,
    coverages 2..25, ``trials`` payloads each. Sweep ``k`` of a run draws
    its payloads and reads from the sub-seed ``(seed, k)``, so a run
    averages over several independent sweeps, and no sweep repeats
    another's inputs. A sweep fails if any trial stays undecoded at the
    highest coverage or any mean minimum exceeds its ceiling."""

    name: str = "coverage-sweep"
    matrix: MatrixConfig = FIG12_MATRIX
    layouts: Tuple[str, ...] = ("baseline", "gini")
    error_rates: Tuple[float, ...] = (0.03, 0.09)
    coverages: Tuple[int, ...] = tuple(range(2, 26))
    trials: int = 6
    latency_limit_ms: float = 20000.0
    setup_repeats: int = 50
    ceilings: Dict[Tuple[str, float], float] = field(
        default_factory=lambda: dict(SWEEP_CEILINGS))

    def setup(self, seed: int) -> _SweepState:
        pipelines = {
            layout: DnaStoragePipeline(
                PipelineConfig(matrix=self.matrix, layout=layout)
            )
            for layout in self.layouts
        }
        return _SweepState(seed, pipelines)

    def sweep(self, state: _SweepState,
              k: int) -> Dict[Tuple[str, float], float]:
        """Mean minimum coverage per (layout, error rate) of sweep ``k``.
        Both layouts see the same payloads and reads at each error rate
        (the paired comparison of Figure 12); the error rates draw from
        independent sub-seeds."""
        minima = {}
        for j, rate in enumerate(self.error_rates):
            sequence = np.random.SeedSequence([state.seed, k, j])
            rng = int(sequence.generate_state(1)[0])
            for layout in self.layouts:
                minima[(layout, rate)] = min_coverage_for_error_free(
                    state.pipelines[layout], rate, self.coverages,
                    trials=self.trials, rng=rng,
                )
        return minima

    def _ok(self, minima: Dict[Tuple[str, float], float]) -> bool:
        """Every trial decoded exactly at some swept coverage, and no
        mean minimum is above its ceiling."""
        return all(v <= max(self.coverages) and v <= self.ceilings[key]
                   for key, v in minima.items())

    def verify(self, state: _SweepState) -> None:
        """Nothing to check ahead: every sweep draws fresh inputs and
        checks its own minima."""

    def run(self, state: _SweepState, seconds: float,
            recorder=None) -> RunResult:
        units = self.trials * len(self.layouts) * len(self.error_rates)
        first: Dict[Tuple[str, float], float] = {}

        def op(i: int) -> Tuple[bool, int]:
            minima = self.sweep(state, i)
            if i == 0:
                first.update(minima)
            ok = self._ok(minima)
            return ok, units if ok else 0

        result = closed_loop(seconds, op, recorder)
        if first:  # sweep 0's read cost: deterministic per seed
            for layout in self.layouts:
                result.extra[f"min_coverage_{layout}"] = float(np.mean([
                    first[(layout, rate)] for rate in self.error_rates
                ]))
        return result


def all_workloads() -> Dict[str, Workload]:
    workloads = [bulk_read(), pool_read(), ServeZipf(), CoverageSweep()]
    return {w.name: w for w in workloads}
