"""Parallel subgroup scanner: identical results, identical checkpoints.

The ``jobs=N`` scan must be indistinguishable from serial in everything
but wall time: findings (values, ordering), multiplicity-adjusted
p-values, checkpoint files, and resume fingerprints.  The chaos case
kills a worker mid-scan and requires resume to reproduce the serial
result exactly.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.kernel import chunk_ranges
from repro.subgroup import (
    adjust_for_multiple_testing,
    audit_subgroups,
    scan_subgroups,
)
from tests.subgroup.oracle import mask_scan


def finding_signature(finding):
    return (
        finding.subgroup.conditions,
        finding.subgroup.size,
        finding.rate,
        finding.complement_rate,
        finding.gap,
        finding.ci_low,
        finding.ci_high,
        finding.p_value,
        finding.adjusted_p_value,
    )


def flagged_key(findings):
    return sorted(
        (f.subgroup.label(), f.p_value, f.adjusted_p_value)
        for f in findings
        if f.significant(0.05)
    )


@pytest.fixture(scope="module")
def scan_inputs():
    data = make_intersectional(n=6000, random_state=5)
    return data, data.labels()


class _ThreadlessExecutor:
    """Deterministic in-process 'pool': chunks run inline at submit time.

    Lets the parallel code path run without real processes, and lets the
    chaos test fail an exact chunk.
    """

    def __init__(self, fail_from_call: int | None = None):
        self.calls = 0
        self.fail_from_call = fail_from_call

    def submit(self, fn, *args, **kwargs) -> Future:
        self.calls += 1
        future: Future = Future()
        if self.fail_from_call is not None and self.calls >= self.fail_from_call:
            future.set_exception(RuntimeError("worker died"))
        else:
            future.set_result(fn(*args, **kwargs))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_chunk_ranges_align_to_checkpoint_interval():
    assert chunk_ranges(0, 10, 4) == [(0, 4), (4, 8), (8, 10)]
    # Resuming mid-interval realigns to absolute multiples immediately.
    assert chunk_ranges(5, 10, 4) == [(5, 8), (8, 10)]
    assert chunk_ranges(10, 10, 4) == []


def test_parallel_findings_and_corrections_match_serial(scan_inputs, tmp_path):
    data, predictions = scan_inputs
    results = {}
    for jobs, name in ((1, "serial"), (4, "parallel")):
        findings = audit_subgroups(
            predictions, data, max_order=2, min_size=5, jobs=jobs,
            checkpoint_path=tmp_path / f"{name}.json", checkpoint_every=3,
        )
        findings = adjust_for_multiple_testing(findings, method="holm")
        results[name] = findings
    assert [finding_signature(f) for f in results["parallel"]] == [
        finding_signature(f) for f in results["serial"]
    ]
    # Checkpoint files — including the resume fingerprint — byte-identical.
    serial_text = (tmp_path / "serial.json").read_text()
    parallel_text = (tmp_path / "parallel.json").read_text()
    assert parallel_text == serial_text


def test_reference_backend_scan_matches_kernel(scan_inputs, tmp_path):
    # The scanner (joint cells, marginals, batched scoring, pruning) is
    # checked against the per-subgroup mask loop of the scalar
    # statistics, not against itself.
    data, predictions = scan_inputs
    oracle = mask_scan(predictions, data, max_order=2, min_size=5)
    exhaustive = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )
    assert [finding_signature(f) for f in exhaustive] == [
        finding_signature(f) for f in oracle
    ]
    for correction in ("holm", "bh"):
        expected = flagged_key(
            adjust_for_multiple_testing(oracle, method=correction)
        )
        assert expected
        for strategy in ("best_first", "incremental"):
            result = scan_subgroups(
                predictions, data,
                config=ScanConfig(
                    strategy=strategy, max_order=2, min_size=5,
                    correction=correction,
                ),
                state_path=str(tmp_path / f"{strategy}-{correction}.json"),
            )
            assert result.pruned > 0
            assert flagged_key(result.flagged) == expected


def test_worker_death_then_resume_reproduces_serial(scan_inputs, tmp_path):
    data, predictions = scan_inputs
    serial = audit_subgroups(predictions, data, max_order=2, min_size=5)

    checkpoint = tmp_path / "chaos.json"
    with pytest.raises(RuntimeError, match="worker died"):
        audit_subgroups(
            predictions, data, max_order=2, min_size=5, jobs=2,
            checkpoint_path=checkpoint, checkpoint_every=3,
            executor_factory=lambda n: _ThreadlessExecutor(fail_from_call=3),
        )
    assert checkpoint.exists()  # partial progress survived the crash

    resumed = audit_subgroups(
        predictions, data, max_order=2, min_size=5, jobs=4,
        checkpoint_path=checkpoint, checkpoint_every=3, resume=True,
        executor_factory=lambda n: _ThreadlessExecutor(),
    )
    assert [finding_signature(f) for f in resumed] == [
        finding_signature(f) for f in serial
    ]


def test_serial_checkpoint_resumes_under_parallel_and_vice_versa(
    scan_inputs, tmp_path
):
    data, predictions = scan_inputs

    class Stop(Exception):
        pass

    def stop_after(limit):
        def hook(evaluated, total):
            if evaluated >= limit:
                raise Stop

        return hook

    full = audit_subgroups(
        predictions, data, max_order=2, min_size=5,
        checkpoint_path=tmp_path / "full.json", checkpoint_every=3,
    )

    for jobs_first, jobs_second, name in ((1, 4, "s2p"), (4, 1, "p2s")):
        path = tmp_path / f"{name}.json"
        with pytest.raises(Stop):
            audit_subgroups(
                predictions, data, max_order=2, min_size=5, jobs=jobs_first,
                checkpoint_path=path, checkpoint_every=3,
                on_progress=stop_after(6),
                executor_factory=(
                    None if jobs_first == 1
                    else (lambda n: _ThreadlessExecutor())
                ),
            )
        resumed = audit_subgroups(
            predictions, data, max_order=2, min_size=5, jobs=jobs_second,
            checkpoint_path=path, checkpoint_every=3, resume=True,
            executor_factory=(
                None if jobs_second == 1
                else (lambda n: _ThreadlessExecutor())
            ),
        )
        assert [finding_signature(f) for f in resumed] == [
            finding_signature(f) for f in full
        ]
        assert path.read_text() == (tmp_path / "full.json").read_text()


def test_real_process_pool_matches_serial(scan_inputs):
    # One run through the genuine ProcessPoolExecutor path (the other
    # tests use the deterministic inline executor).
    data, predictions = scan_inputs
    serial = audit_subgroups(predictions, data, max_order=2, min_size=5)
    parallel = audit_subgroups(
        predictions, data, max_order=2, min_size=5, jobs=2
    )
    assert [finding_signature(f) for f in parallel] == [
        finding_signature(f) for f in serial
    ]
