"""Tiny smoke runs of every workload: clean runs fail nothing, and a
deliberately wrong, lost or raising answer is counted as failed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perfbench.workloads as workloads
from perfbench.run import END_TO_END, run_one
from perfbench.workloads import CoverageSweep, ServeZipf, SetupError, StoreRead
from repro.core import MatrixConfig
from repro.core.store import DnaStore
from repro.service import StoreService

ROOT = Path(__file__).resolve().parents[2]
TINY = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)
SEED = 11


def tiny_read(pool):
    return StoreRead(
        name="pool-read" if pool else "bulk-read", matrix=TINY,
        layout="baseline" if pool else "gini", error_rate=0.005,
        mean_coverage=12.0, units_per_object=1 if pool else 2, n_objects=4,
        pool=pool, latency_limit_ms=1000.0, setup_repeats=1,
    )


def tiny_serve():
    return ServeZipf(n_objects=16, cache_units=4, batch_window=4,
                     rate=400.0)


def tiny_sweep():
    return CoverageSweep(matrix=TINY, error_rates=(0.01,),
                         coverages=tuple(range(2, 9)), trials=1,
                         setup_repeats=1,
                         ceilings={("baseline", 0.01): 6.0,
                                   ("gini", 0.01): 6.0})


def prepared(workload):
    state = workload.setup(SEED)
    workload.verify(state)
    return state


def corrupt_read(monkeypatch, which):
    """Flip one payload bit in the ``which``-th read's answer."""
    original = DnaStore.read
    calls = []

    def read(self, request):
        result = original(self, request)
        calls.append(1)
        if len(calls) == which:
            result.bits = result.bits ^ 1
        return result

    monkeypatch.setattr(DnaStore, "read", read)


@pytest.mark.parametrize("pool", [False, True])
def test_store_read_counts_a_wrong_answer(monkeypatch, pool):
    workload = tiny_read(pool)
    clean = workload.run(prepared(workload), 10.0)
    assert clean.attempted == 4 and clean.failed == 0
    state = prepared(workload)
    corrupt_read(monkeypatch, 2)
    result = workload.run(state, 10.0)
    assert result.attempted == 4
    assert result.failed == 1
    assert not result.ops[1].ok and result.ops[1].units == 0


@pytest.mark.parametrize("pool", [False, True])
def test_store_read_never_repeats_an_input(monkeypatch, pool):
    """Each op reads an input that neither an earlier op nor the
    verification handed to the run's store, and the run stops when the
    corpus is used up rather than going round again."""
    workload = tiny_read(pool)
    state = workload.setup(SEED)
    seen = []
    original = DnaStore.read

    def read(self, request):
        seen.append((id(self), id(request.reads),
                     request.reads.buffer.ctypes.data))
        return original(self, request)

    monkeypatch.setattr(DnaStore, "read", read)
    workload.verify(state)
    verified = seen[:]
    seen.clear()
    result = workload.run(state, 10.0)
    assert result.attempted == workload.n_objects == len(seen)
    assert result.failed == 0
    assert len({reads for _, reads, _ in seen}) == len(seen)
    assert {store for store, _, _ in seen} == {id(state.store)}
    assert id(state.store) not in {store for store, _, _ in verified}
    assert not {buf for _, _, buf in seen} & {buf for _, _, buf in verified}


def test_store_read_counts_a_raising_op(monkeypatch):
    workload = tiny_read(False)
    state = prepared(workload)

    def read(self, request):
        raise RuntimeError("injected")

    monkeypatch.setattr(DnaStore, "read", read)
    result = workload.run(state, 0.05)
    assert result.failed == result.attempted >= 1


def test_serve_counts_wrong_lost_duplicate_and_raising_ticks(monkeypatch):
    workload = tiny_serve()
    state = prepared(workload)
    clean = workload.run(state, 0.4)
    assert clean.attempted > 50 and clean.failed == 0
    assert clean.extra["requests_per_tick"] >= 1
    assert clean.extra["writes"] >= 1
    # The same state runs again: its writes follow the epochs the
    # service reported, so a second clean run fails nothing either.
    again = workload.run(state, 0.4)
    assert again.attempted == clean.attempted and again.failed == 0

    state = prepared(workload)
    original = StoreService.tick
    drained = []

    def tick(self):
        depth = self.queue_depth
        answers = original(self)
        drained.append(depth - self.queue_depth)
        assert answers
        if len(drained) == 1:  # a wrong answer
            answers[0].bits = answers[0].bits ^ 1
        elif len(drained) == 2:  # a lost answer
            answers = answers[1:]
        elif len(drained) == 3:  # a tick that raises after draining
            raise RuntimeError("injected")
        elif len(drained) == 4:  # one ticket answered twice
            answers = answers + answers[:1]
        return answers

    monkeypatch.setattr(StoreService, "tick", tick)
    result = workload.run(state, 0.4)
    assert len(drained) > 4
    assert result.attempted == clean.attempted
    # One each for the wrong, lost and duplicate answers, plus every
    # ticket the raising tick drained.
    assert result.failed == 3 + drained[2]


def test_serve_counts_a_write_with_the_wrong_epoch(monkeypatch):
    workload = tiny_serve()
    state = prepared(workload)
    original = StoreService.put
    puts = []

    def put(self, object_id, reads, n_data_bits, **kwargs):
        epoch = original(self, object_id, reads, n_data_bits, **kwargs)
        puts.append(epoch)
        return epoch + 1 if len(puts) == 1 else epoch

    monkeypatch.setattr(StoreService, "put", put)
    result = workload.run(state, 0.4)
    assert len(puts) == result.extra["writes"] >= 2
    assert result.failed == 1


def test_sweep_counts_a_wrong_answer(monkeypatch):
    workload = tiny_sweep()
    state = prepared(workload)
    clean = workload.run(state, 0.2)
    assert clean.attempted >= 2 and clean.failed == 0
    assert 2 <= clean.extra["min_coverage_gini"] <= 6
    again = workload.run(state, 0.2)  # sweep 0's minima are seeded
    assert again.extra == clean.extra

    original = workloads.min_coverage_for_error_free
    calls = []

    def wrong_answers(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:  # sweep 0 needs more reads than its ceiling
            return 6.5
        if len(calls) == 5:  # sweep 2 leaves a trial undecoded
            return 99.0
        return value

    monkeypatch.setattr(workloads, "min_coverage_for_error_free",
                        wrong_answers)
    result = workload.run(state, 0.3)
    assert result.attempted >= 3
    assert [op.ok for op in result.ops[:3]] == [False, True, False]


def test_every_sweep_ceiling_names_a_swept_point():
    workload = CoverageSweep()
    assert set(workload.ceilings) == {
        (layout, rate) for layout in workload.layouts
        for rate in workload.error_rates}
    assert all(2 < c < max(workload.coverages)
               for c in workload.ceilings.values())


def test_a_failure_in_setup_is_a_setup_error(monkeypatch):
    def encode(self, bits):
        raise RuntimeError("injected")

    monkeypatch.setattr(DnaStore, "encode", encode)
    with pytest.raises(SetupError, match="injected"):
        run_one(tiny_read(False), SEED, 0.1, 0)


def test_traced_run_accounts_for_the_wall_time(tmp_path):
    report, lines = run_one(tiny_read(False), SEED, 0.3, 1,
                            span_dir=tmp_path)
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert report["correct"] and report["failed"] == 0
    layers = sum(v for k, v in metrics.items()
                 if k.endswith(".self_s") and not k.startswith(
                     ("setup.", "bench.")))
    assert layers + metrics["bench.self_s"] == pytest.approx(
        metrics["trace.wall_s"])
    assert metrics["consensus.self_s"] > metrics["ecc.decode.self_s"] > 0
    assert metrics["consensus.calls"] == 1.0
    spans = (tmp_path / f"spans-bulk-read-seed{SEED}.jsonl").read_text()
    assert json.loads(spans.splitlines()[0])["phase"] == "setup"


def test_reports_match_the_benchmark_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain, _ = run_one(tiny_read(True), SEED, 0.1, 0)
    assert [m["name"] for m in manifest["end_to_end"]] == list(END_TO_END)
    assert set(plain["metrics"]) == set(END_TO_END)
    traced, _ = run_one(tiny_read(True), SEED, 0.1, 1)
    assert set(traced["metrics"]) == {m["name"] for m in manifest["per_layer"]}
    assert traced["metrics"]["cluster.clusters_per_strand"]["value"] >= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
