"""End-to-end, layer-attributed benchmark of repro's user-facing paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload csv_audit --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``BENCHMARK.json`` and ``perfbench/README.md``).
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 when every output check passed, 1 when one failed, 2 when
the benchmark cannot run (for instance, no program source next to it).

The run itself happens in ``harness.PROCESSES`` child interpreters
started one after the other (``--part``); each prints its raw samples
as one JSON line, and this process pools them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.harness import BenchError, NullTracer, Tracer  # noqa: E402

#: (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: layers timed during set-up, reported as the median over processes
SETUP_LAYERS = (
    "startup.import", "data.pack", "subgroup.base_state", "service.start",
)
#: layers timed inside operations, reported as self seconds per operation
OP_LAYERS = (
    "data.csv_load", "data.open", "core.audit", "core.render",
    "streaming.ingest", "streaming.finalize",
    "subgroup.exhaustive", "subgroup.best_first", "subgroup.incremental",
    "service.submit", "service.queue_wait", "service.job_run",
    "monitor.observe", "monitor.flush",
)
#: (name, unit) of the counts and ratios each workload may report
COUNTS = (
    ("subgroup.evaluated", "count"),
    ("subgroup.pruned", "count"),
    ("subgroup.rescored", "count"),
    ("subgroup.pruned_fraction", "ratio"),
    ("service.rejected", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("monitor.windows", "count"),
    ("monitor.drift_events", "count"),
)
PER_LAYER = (
    tuple((f"{name}_s", "s") for name in SETUP_LAYERS + OP_LAYERS)
    + COUNTS
    + (("unaccounted_s", "s"), ("trace.overhead_ratio", "ratio"))
)

#: workload name -> (module, class) under perfbench
WORKLOADS = {
    "csv_audit": ("csv_audit", "CsvAudit"),
    "lattice_scan": ("lattice_scan", "LatticeScan"),
    "service_jobs": ("service_jobs", "ServiceJobs"),
    "monitor_fleet": ("monitor_fleet", "MonitorFleetWorkload"),
}
SIZES = ("full", "tiny")
WORK = harness.ROOT / ".perfbench_work"
TRACES = harness.ROOT / ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every input (self-tests)")
    parser.add_argument("--part", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- one child process -------------------------------------------------------


def _passes(workload, seconds: float, trace: bool, tracer) -> list:
    """Repeat the workload's pass until ``seconds`` have been measured;
    with tracing, alternate untraced and traced passes.

    Each pass's outputs are checked, and dropped, before the next pass
    starts from a collected heap: garbage-collector work grows with the
    live heap, so results kept across passes would slow later passes.
    """
    passes = []
    start = time.perf_counter()
    minimum = 2 if trace else 1
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        active = tracer if traced else NullTracer()
        gc.collect()
        with harness.instrument(active):
            done = workload.run_pass(len(passes), active)
        done.traced = traced
        workload.check(done)
        passes.append(done)
    return passes


def run_part(args) -> dict:
    """Set up, generate, measure and check in this process; return the
    raw samples as a JSON-able dict."""
    began = time.perf_counter()
    harness.import_repro()
    imported = time.perf_counter() - began
    module, cls = WORKLOADS[args.workload]
    workload_class = getattr(
        importlib.import_module(f"perfbench.{module}"), cls
    )
    tracer = Tracer() if args.trace else NullTracer()
    if tracer.enabled:
        tracer.add("startup.import", began, began + imported, op="setup")
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{args.part}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workload_class(args.seed, args.size, workdir)
        try:
            started = time.perf_counter()
            workload.prepare(tracer)
            prepared = time.perf_counter() - started
            passes = _passes(workload, args.seconds, bool(args.trace),
                             tracer)
            counts = workload.counts(passes)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    part = {
        "setup_s": imported + prepared,
        "peak_rss_mb": harness.peak_rss_mb(),
        "passes": [
            {"wall": p.wall, "traced": p.traced,
             "latencies": [op.latency for op in p.ops],
             "errors": [op.error for op in p.ops if op.error]}
            for p in passes
        ],
        "counts": counts,
        "describe": workload.describe(),
        "pass_size": workload.pass_size,
        "tail_percentile": workload.tail_percentile,
        "op_name": workload.op_name,
    }
    if tracer.enabled:
        setup = [s for s in tracer.spans if s["op"] == "setup"]
        part["setup_layers"] = {
            name: sum(s["end"] - s["start"] for s in setup
                      if s["name"] == name)
            for name in SETUP_LAYERS
        }
        part["layer_totals"] = harness.self_times(
            [s for s in tracer.spans if s["op"] != "setup"]
        )
        part["traced_ops"] = sum(len(p.ops) for p in passes if p.traced)
        tracer.write(TRACES / f"trace-{args.workload}-seed{args.seed}"
                              f"-part{args.part}.jsonl")
    return part


# -- the parent --------------------------------------------------------------


#: a run must end within 180 s; the children share this budget
DEADLINE_S = 170


def _spawn(args, part: int, deadline: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / harness.PROCESSES),
        "--trace", str(args.trace), "--size", args.size,
        "--part", str(part),
    ]
    try:
        done = subprocess.run(
            command, cwd=harness.ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"part {part} ran past the run's deadline") from None
    if done.returncode != 0:
        raise BenchError(
            f"part {part} exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[dict, list[str]]:
    """Run one workload in child processes; return the result object
    and the report lines."""
    deadline = time.monotonic() + DEADLINE_S
    parts = [_spawn(args, i, deadline) for i in range(harness.PROCESSES)]
    passes = [p for part in parts for p in part["passes"]]
    latencies = [x for p in passes for x in p["latencies"]]
    failures = [e for p in passes for e in p["errors"]]
    first = parts[0]
    lines = [f"workload {args.workload} seed {args.seed} size {args.size}: "
             f"{len(parts)} processes, {len(passes)} passes, "
             f"{len(latencies)} operations, {len(failures)} failed "
             f"(error_rate {len(failures) / max(1, len(latencies)):.4f})"]
    lines += [f"  FAILED: {message}" for message in failures[:10]]
    lines += [f"  {line}" for line in first["describe"]]
    metrics: dict[str, dict] = {}

    def put(name, unit, value, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")

    setups = [part["setup_s"] for part in parts]
    if not args.trace:
        walls = [p["wall"] for p in passes]
        percentile = first["tail_percentile"]
        tail, beyond = harness.tail(latencies, percentile)
        put("run_s", "s", statistics.median(walls),
            f"median of {len(walls)} passes ({first['pass_size']})")
        put("op_p50_s", "s", statistics.median(latencies),
            f"median of {len(latencies)} operations ({first['op_name']})")
        put("op_tail_s", "s", tail,
            f"p{percentile:g} of {len(latencies)} operations, "
            f"{beyond} beyond it")
        put("peak_rss_mb", "MB",
            statistics.median(part["peak_rss_mb"] for part in parts),
            f"median over {len(parts)} processes")
        put("setup_s", "s", statistics.median(setups),
            f"median of {len(setups)} set-ups")
    else:
        n_ops = sum(part["traced_ops"] for part in parts)
        totals: dict[str, float] = {}
        for part in parts:
            for name, seconds in part["layer_totals"].items():
                totals[name] = totals.get(name, 0.0) + seconds
        for name in SETUP_LAYERS:
            put(f"{name}_s", "s",
                statistics.median(part["setup_layers"][name]
                                  for part in parts),
                f"median of {len(parts)} set-ups")
        for name in OP_LAYERS:
            put(f"{name}_s", "s", totals.get(name, 0.0) / n_ops,
                f"self time per operation, {n_ops} traced operations")
        for name, unit in COUNTS:
            value, note = parts[-1]["counts"].get(name, (0, ""))
            put(name, unit, value, note)
        put("unaccounted_s", "s", totals.get("op", 0.0) / n_ops,
            "operation wall minus layer spans, per operation")
        traced = [p["wall"] for p in passes if p["traced"]]
        untraced = [p["wall"] for p in passes if not p["traced"]]
        put("trace.overhead_ratio", "ratio",
            statistics.median(traced) / statistics.median(untraced),
            f"median traced / untraced pass "
            f"({len(traced)}/{len(untraced)} passes)")
    result = {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not harness.have_program():
        print(f"perfbench: no program source at {harness.SRC / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        if args.part is not None:
            print(json.dumps(run_part(args)), flush=True)
            return 0
        result, lines = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
