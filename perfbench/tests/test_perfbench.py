"""Self-tests of the benchmark: contract, smoke runs, output checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import harness, run  # noqa: E402

harness.import_repro()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _measure(workload, trace, seed=3, seconds=0.5):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                              trace=trace, size="tiny")
    return run.measure(args)


# -- the contract ------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = _units(SPEC["end_to_end"])
    assert setup["setup_s"] == "s"
    largest = max(m["bound"] for m in SPEC["end_to_end"])
    assert next(m for m in SPEC["end_to_end"]
                if m["name"] == "setup_s")["bound"] == largest


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert _units(SPEC["per_layer"]) == dict(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csv_audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- smoke runs --------------------------------------------------------------


@pytest.fixture(autouse=True)
def _one_process(monkeypatch):
    # one child process per run keeps the smoke runs short
    monkeypatch.setattr(harness, "PROCESSES", 1)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    result, lines = _measure(workload, trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _units(SPEC["per_layer" if trace else "end_to_end"])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_traced_run_attributes_layers():
    result, _ = _measure("csv_audit", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["data.csv_load_s"] > 0
    assert metrics["core.audit_s"] > 0
    assert metrics["streaming.ingest_s"] > 0
    assert metrics["unaccounted_s"] >= 0
    assert metrics["trace.overhead_ratio"] > 0


def test_service_cache_hits_equal_the_resubmitted_share():
    from perfbench.service_jobs import SHARES

    result, _ = _measure("service_jobs", 1)
    ratio = result["metrics"]["service.cache_hit_ratio"]["value"]
    assert ratio == pytest.approx(SHARES["resubmit"])
    assert result["metrics"]["service.rejected"]["value"] == 0


# -- seeded inputs -----------------------------------------------------------


def test_inputs_follow_the_seed(tmp_path):
    from perfbench.csv_audit import CsvAudit
    from perfbench.monitor_fleet import MonitorFleetWorkload

    def csv_bytes(seed, where):
        where.mkdir()
        workload = CsvAudit(seed, "tiny", where)
        return [Path(p).read_bytes() for p in workload.paths]

    assert csv_bytes(5, tmp_path / "a") == csv_bytes(5, tmp_path / "b")
    assert csv_bytes(5, tmp_path / "c") != csv_bytes(6, tmp_path / "d")

    def feed(seed):
        workload = MonitorFleetWorkload(seed, "tiny", tmp_path)
        return [(n, y.tobytes(), p.tobytes())
                for n, y, p, _ in workload.schedule]

    assert feed(5) == feed(5)
    assert feed(5) != feed(6)


# -- output checks fail on corrupted results ---------------------------------


def test_csv_check_catches_a_flipped_finding(tmp_path):
    import contextlib
    import io

    from repro import cli

    from perfbench.csv_audit import TOLERANCE, CsvAudit, check_report

    workload = CsvAudit(1, "tiny", tmp_path)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(["audit", "--data", workload.paths[0], "--format", "json",
                  "--tolerance", str(TOLERANCE)])
    expected, _ = workload.expected[0][False]
    assert check_report(buffer.getvalue(), expected) == ""
    report = json.loads(buffer.getvalue())
    finding = next(f for f in report["findings"] if f.get("status"))
    finding["status"] = "ok" if finding["status"] != "ok" else "violation"
    assert check_report(json.dumps(report), expected) != ""


def test_lattice_check_catches_a_dropped_finding(tmp_path):
    from perfbench.lattice_scan import LatticeScan, check_flags

    workload = LatticeScan(1, "tiny", tmp_path)
    flagged = workload.expected["base"]
    assert flagged, "the planted disparities must be flagged"
    assert check_flags("best_first", list(flagged), flagged) == ""
    assert check_flags("best_first", flagged[1:], flagged) != ""
    label, p, adjusted = flagged[0]
    moved = [(label, p, adjusted * 1.001)] + flagged[1:]
    assert check_flags("incremental", moved, flagged) != ""


def test_service_check_catches_a_wrong_finding():
    from perfbench.service_jobs import check_job

    findings = [{"metric": "demographic_parity", "gap": 0.1}]
    job = {"job_id": "j", "status": "succeeded", "cache_hit": False}
    payload = {"report": {"findings": json.loads(json.dumps(findings))}}
    assert check_job("audit", job, payload, findings, cache_hit=False) == ""
    payload["report"]["findings"][0]["gap"] = 0.2
    assert check_job("audit", job, payload, findings, cache_hit=False) != ""
    payload["report"]["findings"][0]["gap"] = 0.1
    assert check_job("audit", job, payload, findings, cache_hit=True) != ""
    failed = dict(job, status="failed")
    assert check_job("audit", failed, payload, findings, False) != ""


def test_monitor_check_catches_a_dropped_drift_event(tmp_path):
    from perfbench.harness import NullTracer
    from perfbench.monitor_fleet import MonitorFleetWorkload, check_summary

    workload = MonitorFleetWorkload(1, "tiny", tmp_path)
    workload.prepare(NullTracer())
    done = workload.run_pass(0, NullTracer())
    summary = done.outputs[0].summary()

    def problems(s):
        return check_summary(s, workload.rows, workload.window,
                             workload.planted)

    assert problems(summary) == []
    drifted = next(iter(workload.planted))
    dropped = json.loads(json.dumps(summary))
    dropped["streams"][drifted]["drift_events"] = []
    assert problems(dropped)
    null = next(n for n in workload.names if n not in workload.planted)
    false_alarm = json.loads(json.dumps(summary))
    false_alarm["streams"][null]["drift_events"] = [{"window": 0}]
    assert problems(false_alarm)
    short = json.loads(json.dumps(summary))
    short["streams"][null]["results"].pop()
    short["streams"][null]["windows"] -= 1
    assert problems(short)


# -- statistics --------------------------------------------------------------


def test_tail_is_a_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert harness.tail(values, 90) == (90, 10)
    assert harness.tail(values, 100) == (100, 0)
    assert harness.tail([3, 1, 2], 50) == (2, 1)


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 1, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "a", "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "b", "parent": 1, "start": 3.0, "end": 6.0},
        {"id": 4, "name": "c", "parent": 2, "start": 1.0, "end": 2.0},
    ]
    totals = harness.self_times(spans)
    assert totals == {"op": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}
