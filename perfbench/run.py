#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation. With ``--trace 1`` every layer's entry points are
wrapped (see :mod:`perfbench.tracing`) and the run reports per-layer
metrics, plus the end-to-end metrics as measured under tracing
(``traced.*``); the gap to an untraced run of the same seed is the
tracing overhead. ``--workload all`` runs every workload in its own
process, untraced then traced, and prints that overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every op's answer was correct, 1 when any was not, and 2 when the
program cannot be set up (no source tree, or generated inputs that do
not decode).
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads: parity and q-gram matmuls
# must not oversubscribe a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk-read", "pool-read", "serve-zipf", "coverage-sweep")

#: End-to-end metrics (``--trace 0``); names and units are declared in
#: BENCHMARK.json.
END_TO_END = ("setup_s", "units_per_s", "request_p50_ms", "request_tail_ms",
              "slo_met_fraction", "ok_fraction", "peak_rss_mb")

#: Per-op self time of each layer in the measured window (``--trace 1``).
LAYER_SELF = (
    "consensus", "cluster", "pipeline.receive", "pipeline.correct",
    "pipeline.decode", "pipeline.encode", "ecc.decode", "ecc.parity",
    "channel", "store", "store.encode", "service.tick", "service.put",
    "service.submit",
)

#: Layers that run while the inputs are built (reported per setup).
SETUP_LAYERS = ("channel", "pipeline.encode", "ecc.parity", "store.encode",
                "service.put")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, setups, result):
    """The end-to-end metrics of one run, plus the sample details."""
    from perfbench.stats import latency_summary, median

    ok_latencies = [op.latency_s for op in result.ops if op.ok]
    p50, tail, tail_pct = latency_summary(ok_latencies)
    limit = workload.latency_limit_ms / 1e3
    met = sum(op.ok and op.latency_s <= limit for op in result.ops)
    units = sum(op.units for op in result.ops)
    metrics = {
        "setup_s": median(setups),
        "units_per_s": units / result.busy_s if result.busy_s else 0.0,
        "request_p50_ms": p50,
        "request_tail_ms": tail,
        "slo_met_fraction": met / result.attempted,
        "ok_fraction": 1.0 - result.failed / result.attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "samples": len(ok_latencies),
        "tail_percentile": tail_pct,
        "latency_limit_ms": workload.latency_limit_ms,
        "failed_fraction": result.failed / result.attempted,
        "slo_miss_fraction": 1.0 - met / result.attempted,
    }
    return metrics, details


def per_layer(recorder, result, setups, e2e, n_columns):
    """Per-layer metrics from the recorded spans of one traced run."""
    from perfbench.tracing import LayerStats, layer_totals, root_seconds

    spans = recorder.spans
    ops = max(result.attempted, 1)
    run = layer_totals(spans, "run")
    setup = layer_totals(spans, "setup")
    every = layer_totals(spans, "run")
    for layer, stats in setup.items():  # per-unit costs use both phases
        merged = every.setdefault(layer, LayerStats())
        merged.self_s += stats.self_s
        merged.calls += stats.calls
        merged.work.update(stats.work)

    out = {}
    for layer in LAYER_SELF:
        stats = run.get(layer)
        out[f"{layer}.self_s"] = (stats.self_s if stats else 0.0) / ops
    traced = root_seconds(spans, "run")
    out["bench.self_s"] = (result.window_s - traced) / ops
    out["trace.wall_s"] = result.window_s / ops
    out["trace.ops"] = float(result.attempted)
    for layer in SETUP_LAYERS:
        stats = setup.get(layer)
        out[f"setup.{layer}.self_s"] = (
            stats.self_s if stats else 0.0) / len(setups)

    consensus = run.get("consensus")
    out["consensus.calls"] = (consensus.calls if consensus else 0) / ops
    cost = every.get("consensus")
    out["consensus.ns_per_read_base"] = (
        cost.self_s / cost.work["bases"] * 1e9
        if cost and cost.work["bases"] else 0.0)
    cost = every.get("cluster")
    out["cluster.reads_per_s"] = (
        cost.work["reads"] / cost.self_s if cost and cost.self_s else 0.0)
    out["cluster.clusters_per_strand"] = (
        cost.work["clusters"] / (cost.work["pools"] * n_columns)
        if cost and cost.work["pools"] else 0.0)
    cost = every.get("ecc.decode")
    out["ecc.us_per_codeword"] = (
        cost.self_s / cost.work["codewords"] * 1e6
        if cost and cost.work["codewords"] else 0.0)
    out["ecc.failed_codeword_fraction"] = (
        cost.work["failed"] / cost.work["codewords"]
        if cost and cost.work["codewords"] else 0.0)
    cost = every.get("channel")
    out["channel.reads_per_s"] = (
        cost.work["reads"] / cost.self_s if cost and cost.self_s else 0.0)
    for key in ("cache_hit_rate", "requests_per_tick", "queue_wait_p50_ms",
                "generator_lag_p99_ms"):
        out[f"service.{key}"] = float(result.extra.get(key, 0.0))
    for layout in ("baseline", "gini"):
        key = f"min_coverage_{layout}"
        out[f"sweep.{key}"] = float(result.extra.get(key, 0.0))
    for name in ("setup_s", "units_per_s", "request_p50_ms",
                 "request_tail_ms"):
        out[f"traced.{name}"] = e2e[name]
    return out


def prepare(workload, seed, recorder):
    """Set up ``workload`` ``setup_repeats`` times and verify the last
    build; returns ``(state, setup seconds, verify seconds)``. Anything
    that goes wrong here is a SetupError."""
    from perfbench.workloads import SetupError

    try:
        setups = []
        state = None
        for _ in range(workload.setup_repeats):
            state = None  # free the previous build before timing the next
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setups.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.phase = "verify"
        t0 = time.perf_counter()
        workload.verify(state)
        return state, setups, time.perf_counter() - t0
    except SetupError:
        raise
    except Exception as error:
        raise SetupError(f"{workload.name}: {error!r}") from error


def run_one(workload, seed, seconds, trace, span_dir=None):
    """Set up, verify and run one workload in this process; returns
    ``(report, human-readable lines)`` or raises SetupError. A traced
    run writes its spans under ``span_dir`` when one is given."""
    from perfbench.tracing import Instrumentation, SpanRecorder

    name = workload.name
    recorder = SpanRecorder() if trace else None
    with (Instrumentation(recorder) if trace else contextlib.nullcontext()):
        state, setups, verify_s = prepare(workload, seed, recorder)
        if recorder is not None:
            recorder.phase = "run"
        # Collect once and freeze the heap: a full collection of the
        # set-up's objects must not land inside a millisecond-scale op.
        gc.collect()
        gc.freeze()
        result = workload.run(state, seconds, recorder)

    metrics, details = end_to_end(workload, setups, result)
    lines = [f"workload {name} seed {seed} trace {trace}: "
             f"{result.attempted} ops, {result.failed} failed, "
             f"window {result.window_s:.2f} s, verify {verify_s:.2f} s"]
    units = declared_units()
    for key in END_TO_END:
        lines.append(f"  {key:<22} {metrics[key]:>14.6g} {units[key]}")
    lines.append(
        f"  latency samples {details['samples']}, tail is "
        f"p{details['tail_percentile']:g}, limit "
        f"{details['latency_limit_ms']:g} ms, failed_fraction "
        f"{details['failed_fraction']:.4g}, slo_miss_fraction "
        f"{details['slo_miss_fraction']:.4g}"
    )
    for key, value in sorted(result.extra.items()):
        lines.append(f"  {key:<22} {value:>14.6g}")
    if trace:
        n_columns = workload.matrix.n_columns
        reported = per_layer(recorder, result, setups, metrics, n_columns)
        for key, value in reported.items():
            lines.append(f"  {key:<34} {value:>14.6g} {units[key]}")
        if span_dir is not None:
            path = Path(span_dir) / f"spans-{name}-seed{seed}.jsonl"
            recorder.write(path)
            lines.append(f"  {len(recorder.spans)} spans written to {path}")
    else:
        reported = metrics
    report = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in reported.items()
        },
    }
    return report, lines


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in manifest["end_to_end"] + manifest["per_layer"]}


def run_all(args):
    """Every workload in its own process, untraced then traced. Exits
    2 if any run could not be set up, else 1 if any op failed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setup_failed = False
    for name in WORKLOADS:
        reports = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if (proc.returncode not in (0, 1) or not lines
                    or not lines[-1].startswith("{")):
                print(f"{name} trace {trace}: exit {proc.returncode}",
                      file=sys.stderr)
                combined["correct"] = False
                setup_failed = True
                continue
            reports[trace] = json.loads(lines[-1])
            combined["correct"] &= reports[trace]["correct"]
            combined["attempted"] += reports[trace]["attempted"]
            combined["failed"] += reports[trace]["failed"]
        if 0 in reports:
            for key, metric in reports[0]["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
        if 0 in reports and 1 in reports:
            print(f"  tracing overhead on {name} (traced / untraced - 1):")
            for key in ("setup_s", "units_per_s", "request_p50_ms",
                        "request_tail_ms"):
                plain = reports[0]["metrics"][key]["value"]
                traced = reports[1]["metrics"][f"traced.{key}"]["value"]
                overhead = traced / plain - 1.0 if plain else 0.0
                print(f"    {key:<20} {overhead:+.3%}")
    print(json.dumps(combined))
    if setup_failed:
        return 2
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import SetupError, all_workloads

    try:
        report, lines = run_one(
            all_workloads()[args.workload], args.seed, args.seconds,
            args.trace, span_dir=ROOT / "perfbench" / "out",
        )
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
