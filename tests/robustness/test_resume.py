"""Chaos tests: anytime subgroup enumeration, checkpoints, and resume.

The ISSUE's acceptance criterion: a killed subgroup enumeration resumed
from its checkpoint produces the identical finding set as an
uninterrupted run.
"""

import json

import pytest

from repro.data import make_intersectional
from repro.exceptions import CheckpointError
from repro.subgroup.auditor import audit_subgroups


class Killed(RuntimeError):
    """Simulates the process being killed mid-scan."""


@pytest.fixture(scope="module")
def data():
    return make_intersectional(n=1500, random_state=3)


@pytest.fixture(scope="module")
def baseline(data):
    """The uninterrupted scan every resumed scan must reproduce."""
    return audit_subgroups(data.labels(), data, max_order=2, min_size=10)


def finding_keys(findings):
    return [
        (f.subgroup.label(), f.subgroup.size, round(f.gap, 12),
         round(f.p_value, 12), round(f.ci_low, 12), round(f.ci_high, 12))
        for f in findings
    ]


def kill_after(n):
    def hook(evaluated, total):
        if evaluated == n:
            raise Killed(f"killed after {evaluated}/{total}")
    return hook


class TestResumeEquivalence:
    @pytest.mark.parametrize("kill_at,every", [(2, 1), (5, 2), (7, 3)])
    def test_killed_scan_resumes_identically(
        self, data, baseline, tmp_path, kill_at, every
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        with pytest.raises(Killed):
            audit_subgroups(
                data.labels(), data, max_order=2, min_size=10,
                checkpoint_path=ckpt, checkpoint_every=every,
                on_progress=kill_after(kill_at),
            )
        assert ckpt.exists()
        resumed = audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt, checkpoint_every=every, resume=True,
        )
        assert finding_keys(resumed) == finding_keys(baseline)

    def test_resume_of_completed_scan_is_identical(
        self, data, baseline, tmp_path
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt,
        )
        resumed = audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt, resume=True,
        )
        assert finding_keys(resumed) == finding_keys(baseline)

    def test_resume_without_checkpoint_starts_fresh(
        self, data, baseline, tmp_path
    ):
        findings = audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=tmp_path / "never-written.json", resume=True,
        )
        assert finding_keys(findings) == finding_keys(baseline)

    def test_resume_skips_completed_work(self, data, tmp_path):
        from repro.observability import Tracer

        ckpt = tmp_path / "scan.ckpt.json"
        with pytest.raises(Killed):
            audit_subgroups(
                data.labels(), data, max_order=2, min_size=10,
                checkpoint_path=ckpt, checkpoint_every=1,
                on_progress=kill_after(6),
            )
        tracer = Tracer(run_id="resume")
        audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt, checkpoint_every=1, resume=True,
            tracer=tracer,
        )
        (scan,) = tracer.find("subgroups.scan")
        # the killed scan had counted every row: none is re-ingested
        assert scan.attrs["resumed_rows"] == data.n_rows


class TestCheckpointSafety:
    def test_resume_requires_checkpoint_path(self, data):
        with pytest.raises(CheckpointError, match="checkpoint_path"):
            audit_subgroups(
                data.labels(), data, max_order=2, min_size=10, resume=True
            )

    def test_corrupt_checkpoint_refused(self, data, tmp_path):
        ckpt = tmp_path / "scan.ckpt.json"
        with pytest.raises(Killed):
            audit_subgroups(
                data.labels(), data, max_order=2, min_size=10,
                checkpoint_path=ckpt, checkpoint_every=1,
                on_progress=kill_after(4),
            )
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])  # simulated torn write
        with pytest.raises(CheckpointError, match="byte offset"):
            audit_subgroups(
                data.labels(), data, max_order=2, min_size=10,
                checkpoint_path=ckpt, resume=True,
            )

    def test_checkpoint_from_different_dataset_refused(self, data, tmp_path):
        ckpt = tmp_path / "scan.ckpt.json"
        audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt,
        )
        other = make_intersectional(n=1500, random_state=99)
        with pytest.raises(CheckpointError, match="different run"):
            audit_subgroups(
                other.labels(), other, max_order=2, min_size=10,
                checkpoint_path=ckpt, resume=True,
            )

    def test_checkpoint_from_different_parameters_refused(
        self, data, tmp_path
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt,
        )
        with pytest.raises(CheckpointError, match="different run"):
            audit_subgroups(
                data.labels(), data, max_order=1, min_size=10,
                checkpoint_path=ckpt, resume=True,
            )

    def test_checkpoint_is_valid_json_at_every_interval(self, data, tmp_path):
        ckpt = tmp_path / "scan.ckpt.json"
        seen = []

        def check(evaluated, total):
            if ckpt.exists():
                payload = json.loads(ckpt.read_text())["payload"]
                seen.append(
                    (payload["format"], payload["complete"],
                     payload["rows_done"])
                )

        audit_subgroups(
            data.labels(), data, max_order=2, min_size=10,
            checkpoint_path=ckpt, checkpoint_every=2, on_progress=check,
        )
        assert seen  # checkpoints were written and parseable mid-run
        # mid-scoring, the file holds the format-1 ingest checkpoint
        assert set(seen) == {(1, False, data.n_rows)}
        final = json.loads(ckpt.read_text())["payload"]
        assert final["format"] == 1 and final["complete"]
