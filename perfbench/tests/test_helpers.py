"""The benchmark's own arithmetic: self times, the tail rule, the
open-loop schedule."""

import numpy as np
import pytest

from perfbench.stats import latency_summary, tail_percentile
from perfbench.tracing import (
    EntryPoint,
    Instrumentation,
    Span,
    SpanRecorder,
    covered_length,
    layer_totals,
    root_seconds,
    self_times,
)
from perfbench.workloads import make_schedule


def span(layer, start, end, parent=-1, phase="run"):
    return Span(layer, layer, start, end, parent, None, phase)


def test_self_time_subtracts_nested_children():
    spans = [
        span("store", 0.0, 10.0),
        span("pipeline.receive", 1.0, 6.0, parent=0),
        span("consensus", 2.0, 5.0, parent=1),
        span("pipeline.correct", 6.0, 9.0, parent=0),
        span("ecc.decode", 7.0, 8.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.5, 1.5])
    # Self times of every span add up to the root spans' wall time.
    assert sum(self_times(spans)) == pytest.approx(root_seconds(spans, "run"))


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_layer_totals_count_outermost_calls_only():
    spans = [
        span("consensus", 0.0, 4.0),
        span("consensus", 1.0, 2.0, parent=0),  # e.g. a super() call
        span("consensus", 5.0, 6.0),
        span("channel", 0.0, 1.0, phase="setup"),
    ]
    spans[0].work = {"bases": 100}
    spans[1].work = {"bases": 100}
    spans[2].work = {"bases": 50}
    totals = layer_totals(spans, "run")
    assert set(totals) == {"consensus"}
    assert totals["consensus"].self_s == pytest.approx(5.0)
    assert totals["consensus"].calls == 2
    assert totals["consensus"].work["bases"] == 150


class _Adder:
    def add(self, a, b):
        return a + b

    def twice(self, a):
        return self.add(a, a)


def test_instrumentation_records_parents_and_restores_methods():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    original = _Adder.__dict__["add"]
    points = [
        EntryPoint(_Adder, "twice", "outer"),
        EntryPoint(_Adder, "add", "inner",
                   lambda args, kwargs, result: {"sum": result}),
    ]
    recorder.phase = "run"
    recorder.request_id = 7
    with Instrumentation(recorder, points):
        assert _Adder().twice(3) == 6
    assert _Adder.__dict__["add"] is original
    outer, inner = recorder.spans
    assert (outer.layer, outer.parent, inner.layer, inner.parent) == (
        "outer", -1, "inner", 0)
    assert inner.work == {"sum": 6}
    assert outer.request_id == inner.request_id == 7
    assert self_times(recorder.spans) == [2.0, 1.0]


@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0),
    (20, 50.0), (19, 50.0), (1, 50.0), (0, 50.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_latency_summary_reports_the_rule_percentile():
    latencies = np.arange(1, 1001) / 1e3  # 1..1000 ms
    p50, tail, pct = latency_summary(latencies)
    assert pct == 99.0
    assert p50 == pytest.approx(500.5)
    assert tail == pytest.approx(np.percentile(latencies, 99.0) * 1e3)


def test_schedule_is_a_function_of_the_seed():
    first = make_schedule(5, 300.0, 4.0, 256, 1.0, 0.05)
    again = make_schedule(5, 300.0, 4.0, 256, 1.0, 0.05)
    other = make_schedule(6, 300.0, 4.0, 256, 1.0, 0.05)
    for a, b in ((first.due, again.due), (first.keys, again.keys),
                 (first.writes, again.writes)):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(first.keys[:100], other.keys[:100])


def test_schedule_shape():
    schedule = make_schedule(3, 300.0, 10.0, 256, 1.0, 0.05)
    assert len(schedule) == 3000
    assert np.all(np.diff(schedule.due) >= 0) and schedule.due[-1] < 10.0
    assert schedule.keys.min() >= 0 and schedule.keys.max() < 256
    assert schedule.writes.sum() == 150
    # Zipf(1) over 256 keys: the 64 most popular objects take 77.5% of
    # the ops, and every rank gets its share to within two ops.
    counts = np.sort(np.bincount(schedule.keys, minlength=256))[::-1]
    assert counts[:64].sum() / counts.sum() == pytest.approx(0.7746,
                                                             abs=0.002)
    weights = 1.0 / np.arange(1, 257)
    share = 3000 * weights / weights.sum()
    assert np.all(np.abs(counts - share) < 2.0)


def test_small_schedules_keep_the_cold_tail():
    # 100 ops still send ~23% of requests beyond the 64 hottest ranks.
    schedule = make_schedule(9, 5.0, 20.0, 256, 1.0, 0.05)
    # The popularity ranking is the schedule's first draw.
    popularity = np.random.default_rng([9, 1]).permutation(256)
    ranks = np.argsort(popularity)[schedule.keys]
    assert 21 <= (ranks >= 64).sum() <= 25
