"""csv_audit — ``repro audit --data <csv> --format json``, in process.

The ROADMAP's headline path.  CSV parsing dominates the operation, so
this is the one workload where a CSV-ingress change shows.  Every other
call adds ``--chunk-size``, which routes the audit through
``ingest_stream``/``finalize`` (and ``finalize``'s row reconstruction).

Output check: each printed report must equal an in-memory
``repro.audit()`` of the same generated dataset (over in-memory chunks
for the chunked calls, whose provenance fingerprints the streamed
reconstruction).  Only wall-clock fields may differ.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from perfbench.harness import Op, Pass

SIZES = {
    # an odd file count makes the plain/chunked alternation visit every
    # file in both modes across passes
    "full": {"files": 5, "rows": 12_000, "chunk": 4_000},
    "tiny": {"files": 3, "rows": 800, "chunk": 300},
}
TOLERANCE = 0.05


def _chunks(dataset, size):
    for lo in range(0, dataset.n_rows, size):
        yield dataset.take(np.arange(lo, min(lo + size, dataset.n_rows)))


def normalized(report: dict) -> dict:
    """The report without its wall-clock fields."""
    report = json.loads(json.dumps(report))
    provenance = report.get("provenance", {})
    provenance.pop("created_unix", None)
    provenance.get("totals", {}).pop("elapsed", None)
    for stage in provenance.get("stages", []):
        stage.pop("elapsed", None)
    return report


def check_report(printed: str, expected: dict) -> str:
    """'' when the printed JSON report matches ``expected``, else why."""
    try:
        got = normalized(json.loads(printed))
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if got == expected:
        return ""
    differing = sorted(k for k in set(got) | set(expected)
                       if got.get(k) != expected.get(k))
    return f"report differs from the in-memory audit in {differing}"


class CsvAudit:
    name = "csv_audit"
    op_name = "one `repro audit` call"
    #: about 60 calls per run: p75 leaves 15 beyond
    tail_percentile = 75

    def __init__(self, seed: int, size: str, workdir):
        from repro import AuditConfig, audit, make_hiring
        from repro.core.serialize import report_to_dict
        from repro.data.io import save_dataset

        shape = SIZES[size]
        self.chunk = shape["chunk"]
        self.pass_size = f"{shape['files']} files x {shape['rows']} rows"
        rng = np.random.default_rng(seed)
        config = AuditConfig(tolerance=TOLERANCE)
        self.paths, self.expected = [], []
        for i in range(shape["files"]):
            dataset = make_hiring(
                n=shape["rows"],
                direct_bias=float(rng.uniform(0.0, 1.5)),
                proxy_strength=float(rng.uniform(0.0, 0.8)),
                random_state=int(rng.integers(2**31)),
            )
            path = workdir / f"hiring-{i}.csv"
            save_dataset(dataset, path)
            self.paths.append(str(path))
            plain = audit(dataset, config=config)
            chunked = audit(_chunks(dataset, self.chunk), config=config)
            self.expected.append({
                False: (normalized(report_to_dict(plain)),
                        1 if not plain.is_clean else 0),
                True: (normalized(report_to_dict(chunked)),
                       1 if not chunked.is_clean else 0),
            })

    def prepare(self, tracer) -> None:
        """No program-side set-up: the CLI loads everything per call."""

    def run_pass(self, index: int, tracer) -> Pass:
        from repro import cli

        ops, outputs = [], []
        start = time.perf_counter()
        for i, path in enumerate(self.paths):
            chunked = (index * len(self.paths) + i) % 2 == 1
            argv = ["audit", "--data", path, "--format", "json",
                    "--tolerance", str(TOLERANCE)]
            if chunked:
                argv += ["--chunk-size", str(self.chunk)]
            buffer = io.StringIO()
            error, code = "", None
            with tracer.span("op", op=f"{index}.{i}"):
                began = time.perf_counter()
                try:
                    with redirect_stdout(buffer):
                        code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 — counted, reported
                    error = f"{path}: {type(exc).__name__}: {exc}"
                latency = time.perf_counter() - began
            ops.append(Op(latency, error))
            outputs.append((i, chunked, code, buffer.getvalue()))
        return Pass(time.perf_counter() - start, ops, outputs)

    def check(self, done: Pass) -> None:
        for op, (i, chunked, code, printed) in zip(done.ops, done.outputs):
            if op.error:
                continue
            expected, expected_code = self.expected[i][chunked]
            if code != expected_code:
                op.error = f"{self.paths[i]}: exit code {code}, " \
                           f"expected {expected_code}"
            else:
                op.error = check_report(printed, expected)
        done.outputs = []

    def counts(self, passes) -> dict:
        return {}

    def describe(self) -> list[str]:
        return [f"{len(self.paths)} CSV files, every other call with "
                f"--chunk-size {self.chunk}"]

    def close(self) -> None:
        pass
