"""Machinery shared by the workloads: the pass loop, span recording,
layer instrumentation and order statistics.

A run is made of ``PROCESSES`` fresh child interpreters, one after the
other, each measuring for an equal share of ``--seconds``; their
samples are pooled.  Timings of the same code differ from process to
process (hash seeds, memory layout), so pooling several processes per
run keeps one run's medians close to the next run's.  Each child has
three phases, and only the last is ever on the clock for
``run_s``/``op_*``:

1. *Set-up* — ``import repro``, timed in the fresh interpreter, plus
   the workload's program-side preparation.  ``setup_s`` is the median
   over the children.
2. *Inputs* — generated from the seed (never timed).  Generation needs
   ``repro``, so it runs after the import is timed.
3. *Passes* — the workload's fixed unit of work, repeated until the
   child's share of ``--seconds`` is used.  ``run_s`` is the median
   pass over all children.

With ``--trace 1`` passes alternate untraced and traced; layer spans
are recorded only on the traced ones, so ``trace.overhead_ratio`` is
the traced median over the untraced median.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: child interpreters per run; set-up is measured once in each
PROCESSES = 3


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def have_program() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def import_repro():
    """Import the program from this checkout's ``src``, nowhere else."""
    if not have_program():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics --------------------------------------------------------------


def tail(values, percentile: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` at a nearest-rank percentile;
    percentile 100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- spans -------------------------------------------------------------------


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name, op=None):
        return self._null

    def set_op(self, op):
        pass


class Tracer:
    """In-memory span recorder, thread-aware, written out at the end.

    A span has a name, perf-counter start/end, the id of the span open
    in the same thread when it began (its parent), and the operation id
    shared by every span of one user operation.  Spans opened on a
    thread the benchmark does not drive (an engine worker) take their
    operation from :meth:`set_op` on that thread.
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op) -> None:
        self._local.op = op

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    @contextmanager
    def span(self, name, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent["op"] if parent else getattr(self._local, "op", None)
        record = {
            "id": self._new_id(),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op,
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name, start, end, *, parent=None, op=None) -> dict:
        """Record a span measured elsewhere (e.g. a job's timestamps)."""
        record = {"id": self._new_id(), "name": name, "parent": parent,
                  "op": op, "start": start, "end": end}
        with self._lock:
            self.spans.append(record)
        return record

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its children cover (overlapping children count once).
    """
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    totals: dict[str, float] = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for lo, hi in sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = (s["end"] - s["start"]) - covered
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def _layer_targets():
    """The public entry points the traced run times from outside, as
    (module or class, attribute, span name).

    The CLI and the job engine look these names up at call time, so
    swapping in a timing wrapper also times their internal calls.
    """
    import repro.cli
    import repro.data.ooc
    import repro.service.engine
    import repro.streaming
    from repro.core.audit import FairnessAudit

    return [
        (repro.cli, "load_dataset", "data.csv_load"),
        (repro.data.ooc, "open_dataset", "data.open"),
        (repro.cli, "report_to_json", "core.render"),
        (FairnessAudit, "run", "core.audit"),
        (repro.streaming, "ingest_stream", "streaming.ingest"),
        (repro.service.engine, "ingest_stream", "streaming.ingest"),
        (repro.streaming, "finalize", "streaming.finalize"),
        (repro.service.engine, "finalize", "streaming.finalize"),
    ]


def _timed(fn, tracer, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _timed_scan(fn, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        strategy = getattr(kwargs.get("config"), "strategy", "exhaustive")
        with tracer.span(f"subgroup.{strategy}"):
            return fn(*args, **kwargs)

    return wrapper


def _tagging_stage_run(fn, tracer):
    # The engine runs each job body as StageRunner stage
    # "service.job:<kind>" with the JobRecord as first argument; tag the
    # worker thread with the job id so its layer spans join that job.
    @functools.wraps(fn)
    def wrapper(self, stage, call, *args, **kwargs):
        if not stage.startswith("service.job:") or not args:
            return fn(self, stage, call, *args, **kwargs)
        tracer.set_op(getattr(args[0], "job_id", None))
        try:
            return fn(self, stage, call, *args, **kwargs)
        finally:
            tracer.set_op(None)

    return wrapper


@contextmanager
def instrument(tracer):
    """Time calls into each layer's public functions while active."""
    if not tracer.enabled:
        yield
        return
    import repro.service.engine
    from repro.robustness.runner import StageRunner

    patches = [
        (owner, attr, _timed(getattr(owner, attr), tracer, name))
        for owner, attr, name in _layer_targets()
    ]
    patches.append((
        repro.service.engine, "scan_subgroups",
        _timed_scan(repro.service.engine.scan_subgroups, tracer),
    ))
    patches.append(
        (StageRunner, "run", _tagging_stage_run(StageRunner.run, tracer))
    )
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# -- passes ------------------------------------------------------------------


@dataclass
class Op:
    """One user operation: its latency and whether it went wrong."""

    latency: float
    error: str = ""


@dataclass
class Pass:
    """One repetition of a workload's fixed unit of work."""

    wall: float
    ops: list[Op]
    #: the workload's outputs, kept for the output check
    outputs: list = field(default_factory=list)
    traced: bool = False
