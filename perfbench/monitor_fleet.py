"""monitor_fleet — one ``MonitorFleet`` watching 64 named streams.

Seeded per-stream feeds are replayed through ``observe()`` in mixed
chunk sizes, interleaved across streams, and the pass ends with
``flush()``.  Drift is planted in every ``DRIFT_EVERY``-th stream from
the middle of its feed on.  This workload measures ``repro.monitor``
(encode-at-ingest, window diffs, the O(cells) scorer, the threshold,
spending and CUSUM detectors) with few cells and many rows — the
opposite accumulator regime to ``lattice_scan``.

Every pass replays the same feeds into a fresh fleet (built before the
pass starts; the set-up fleet serves pass 0).  One operation is one
``observe()`` call, or the closing ``flush()``.

Output check: each stream closes ``ceil(rows / window)`` windows that
tile its rows; every planted stream alarms, and only from its first
drifted window on; no null stream alarms.
"""

from __future__ import annotations

import math
import time

import numpy as np

from perfbench.harness import Op, Pass

SIZES = {
    "full": {"streams": 64, "rows": 24_000, "window": 2_000},
    "tiny": {"streams": 8, "rows": 12_000, "window": 2_000},
}
#: every feed is cut into chunks of these sizes in these proportions
#: (by rows), in a seeded order, so every seed has the same mix of
#: observe() calls
CHUNKS = {250: 1 / 12, 1_000: 1 / 4, 4_000: 2 / 3}
DRIFT_EVERY = 8
#: planted drift: the positive-prediction rate of one group falls by
#: this much; the threshold sits well above null window noise and
#: below the planted shift
SHIFT = 0.45
THRESHOLD = 0.25
#: the spending detector's total error budget; tiny so that 64 null
#: streams stay quiet on any seed
ALPHA = 1e-6
PROTECTED = ("sex", "age")


def check_summary(summary: dict, rows: int, window: int,
                  planted: dict[str, int]) -> list[str]:
    """Problems with a fleet summary; ``planted`` maps each drifted
    stream to its first drifted window."""
    problems = []
    expected_windows = math.ceil(rows / window)
    for name, stream in summary["streams"].items():
        tiles = [tuple(w["rows"]) for w in stream["results"]]
        bounds = [(lo, min(lo + window, rows)) for lo in range(0, rows, window)]
        if stream["windows"] != expected_windows or tiles != bounds \
                or stream["rows_seen"] != rows:
            problems.append(f"{name}: {stream['windows']} windows over "
                            f"{stream['rows_seen']} rows, expected "
                            f"{expected_windows} over {rows}")
        windows = sorted({e["window"] for e in stream["drift_events"]})
        if name in planted:
            if not windows:
                problems.append(f"{name}: planted drift raised no alarm")
            elif windows[0] < planted[name]:
                problems.append(f"{name}: alarm at window {windows[0]} "
                                f"before the drift at {planted[name]}")
        elif windows:
            problems.append(f"{name}: null stream alarmed at {windows}")
    return problems


class MonitorFleetWorkload:
    name = "monitor_fleet"
    op_name = "one observe() call or the closing flush()"
    #: about 15,000 calls per run: p99 leaves 150 beyond
    tail_percentile = 99

    def __init__(self, seed: int, size: str, workdir):
        shape = SIZES[size]
        rng = np.random.default_rng(seed)
        self.rows, self.window = shape["rows"], shape["window"]
        names = [f"stream-{i:02d}" for i in range(shape["streams"])]
        self.planted = {}
        feeds = {}
        for i, name in enumerate(names):
            sex = np.where(rng.random(self.rows) < 0.5, "female", "male")
            age = np.where(rng.random(self.rows) < 0.4, "over_40", "under_40")
            y_true = (rng.random(self.rows) < 0.5).astype(np.int64)
            rate = np.full(self.rows, 0.5)
            if i % DRIFT_EVERY == DRIFT_EVERY - 1:
                start = (self.rows // self.window // 2) * self.window
                rate[start:] -= SHIFT * (sex[start:] == "female")
                self.planted[name] = start // self.window
            predictions = (rng.random(self.rows) < rate).astype(np.int64)
            feeds[name] = (y_true, predictions, sex, age)
        # cut each feed into seeded chunks, then interleave the streams
        sizes = [size for size, share in CHUNKS.items()
                 for _ in range(round(self.rows * share / size))]
        assert sum(sizes) == self.rows, "CHUNKS must tile the feed"
        cuts = {}
        for name in names:
            ends = np.cumsum([sizes[k] for k in rng.permutation(len(sizes))])
            cuts[name] = list(zip(np.r_[0, ends[:-1]].tolist(), ends.tolist()))
        self.schedule = []
        for step in range(len(sizes)):
            for name in (names[k] for k in rng.permutation(len(names))):
                lo, hi = cuts[name][step]
                y, p, sex, age = feeds[name]
                self.schedule.append((name, y[lo:hi], p[lo:hi], {
                    "sex": sex[lo:hi], "age": age[lo:hi]}))
        self.names = names
        self.pass_size = (f"{len(names)} streams x {self.rows} rows, "
                          f"window {self.window}, "
                          f"{len(self.schedule)} chunks")
        self.fleet = None

    def _new_fleet(self):
        from repro import AuditConfig, MonitorConfig, MonitorFleet

        fleet = MonitorFleet(
            PROTECTED,
            config=AuditConfig(),
            monitor=MonitorConfig(
                window=self.window, drift_threshold=THRESHOLD,
                detectors=("threshold", "spending", "cusum"), alpha=ALPHA,
            ),
        )
        for name in self.names:
            fleet.add_stream(name)
        return fleet

    def prepare(self, tracer) -> None:
        """Build the fleet and register its streams."""
        self.fleet = self._new_fleet()

    def run_pass(self, index: int, tracer) -> Pass:
        fleet = self.fleet if index == 0 else self._new_fleet()
        ops = []
        start = time.perf_counter()
        try:
            for k, (name, y, p, protected) in enumerate(self.schedule):
                with tracer.span("op", op=f"{index}.{k}"):
                    began = time.perf_counter()
                    with tracer.span("monitor.observe"):
                        fleet.observe(name, y_true=y, predictions=p,
                                      protected=protected)
                    ops.append(Op(time.perf_counter() - began))
            with tracer.span("op", op=f"{index}.flush"):
                began = time.perf_counter()
                with tracer.span("monitor.flush"):
                    fleet.flush()
                ops.append(Op(time.perf_counter() - began))
        except Exception as exc:  # noqa: BLE001 — counted, reported
            ops.append(Op(time.perf_counter() - began,
                          f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start
        return Pass(wall, ops, [fleet])

    def check(self, done: Pass) -> None:
        fleet = done.outputs[0]
        summary = fleet.summary()
        problems = check_summary(summary, self.rows, self.window,
                                 self.planted)
        if problems and not any(op.error for op in done.ops):
            done.ops[-1].error = "; ".join(problems[:5])
        done.outputs = [(summary["windows"], summary["drift_events"])]

    def counts(self, passes) -> dict:
        windows, events = passes[-1].outputs[0]
        return {
            "monitor.windows": (windows, f"per pass, {len(self.names)} "
                                         "streams"),
            "monitor.drift_events": (events, f"per pass, {len(self.planted)} "
                                             "planted streams"),
        }

    def describe(self) -> list[str]:
        return [f"{len(self.planted)} of {len(self.names)} streams drift "
                f"by {SHIFT} from their middle window"]

    def close(self) -> None:
        self.fleet = None
