"""Tests for the lattice-pruned / incremental scanner (repro.subgroup.search).

The contract under test is the ISSUE's equivalence guarantee: every
strategy produces the same flagged set, the same Holm/BH-adjusted
values on that set, and byte-identical final checkpoint files — the
pruned strategies merely skip work that provably cannot flag.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core.config import ScanConfig
from repro.data import Column, Schema, TabularDataset, make_intersectional
from repro.exceptions import AuditError, CheckpointError, ValidationError
from repro.kernel import use_backend
from repro.streaming.accumulator import AuditAccumulator
from repro.subgroup import (
    ScanState,
    adjust_for_multiple_testing,
    audit_subgroups,
    rescan,
    scan_subgroups,
)


def _noisy_dataset(n=3000, seed=0, n_attrs=3, cats=("a", "b", "c")):
    """Multi-attribute data with one planted disparity and much noise.

    More attributes / categories than ``make_intersectional`` so the
    lattice has enough cells for pruning to matter either way.
    """
    rng = np.random.default_rng(seed)
    columns = []
    data = {}
    for i in range(n_attrs):
        name = f"g{i}"
        columns.append(
            Column(name, kind="categorical", role="protected",
                   categories=tuple(cats))
        )
        data[name] = rng.choice(cats, size=n)
    columns.append(Column("y", kind="binary", role="label"))
    rate = 0.45 + 0.25 * ((data["g0"] == "a") & (data["g1"] == "b"))
    data["y"] = (rng.random(n) < rate).astype(int)
    return TabularDataset(Schema(tuple(columns)), data)


def _flag_key(findings, alpha):
    return sorted(
        (f.subgroup.label(), f.p_value, f.adjusted_p_value)
        for f in findings
        if f.significant(alpha)
    )


@pytest.fixture(scope="module")
def dataset():
    return _noisy_dataset()


@pytest.fixture(scope="module")
def intersectional():
    return make_intersectional(n=4000, subgroup_penalty=0.3, random_state=0)


class TestScanConfigValidation:
    def test_defaults_valid(self):
        config = ScanConfig()
        assert config.strategy == "exhaustive"

    @pytest.mark.parametrize("field,value", [
        ("checkpoint_every", 0),
        ("checkpoint_every", -3),
        ("max_order", 0),
        ("min_size", 0),
        ("jobs", 0),
    ])
    def test_rejects_nonpositive_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScanConfig(**{field: value})

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            ScanConfig(strategy="depth_first")

    def test_rejects_negative_bound_slack(self):
        with pytest.raises(ValueError, match="bound_slack"):
            ScanConfig(bound_slack=-0.1)

    def test_legacy_kwargs_validated_with_field_name(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(ValueError, match="checkpoint_every"):
                audit_subgroups(
                    dataset.labels(), dataset, checkpoint_every=0
                )
            with pytest.raises(ValueError, match="max_order"):
                audit_subgroups(dataset.labels(), dataset, max_order=0)

    def test_roundtrip_and_unknown_key(self):
        config = ScanConfig(strategy="best_first", alpha=0.01, jobs=2)
        assert ScanConfig.from_dict(config.to_dict()) == config
        with pytest.raises(AuditError, match="bogus"):
            ScanConfig.from_dict({"bogus": 1})

    def test_fingerprint_covers_strategy_equivalence_key_does_not(self):
        a = ScanConfig(strategy="exhaustive")
        b = ScanConfig(strategy="best_first")
        assert a.fingerprint() != b.fingerprint()
        assert a.equivalence_key() == b.equivalence_key()


class TestDeprecationShim:
    def test_loose_kwargs_warn_once_with_names(self, dataset):
        with pytest.warns(DeprecationWarning, match="max_order"):
            audit_subgroups(
                dataset.labels(), dataset, max_order=1, min_size=20
            )

    def test_scan_config_does_not_warn(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            audit_subgroups(
                dataset.labels(), dataset,
                scan_config=ScanConfig(max_order=1, min_size=20),
            )

    def test_loose_kwarg_overrides_scan_config(self, dataset):
        with pytest.warns(DeprecationWarning):
            findings = audit_subgroups(
                dataset.labels(), dataset,
                scan_config=ScanConfig(max_order=2),
                max_order=1,
            )
        assert all(f.subgroup.order == 1 for f in findings)


class TestStrategyEquivalence:
    @pytest.mark.parametrize("correction", ["holm", "bh", "none"])
    def test_flagged_set_and_corrections_match(self, dataset, correction):
        config = ScanConfig(correction=correction, min_size=15)
        exhaustive = audit_subgroups(
            dataset.labels(), dataset, scan_config=config
        )
        if correction != "none":
            exhaustive = adjust_for_multiple_testing(
                exhaustive, method=correction
            )
        pruned = scan_subgroups(
            dataset.labels(), dataset,
            config=config.replace(strategy="best_first"),
        )
        assert pruned.pruned > 0
        assert _flag_key(pruned.findings, config.alpha) == _flag_key(
            exhaustive, config.alpha
        )

    @pytest.mark.parametrize("backend,jobs", [
        ("kernel", 1), ("kernel", 2), ("reference", 1),
    ])
    def test_checkpoint_bytes_identical(
        self, dataset, tmp_path, backend, jobs
    ):
        paths = {}
        for strategy in ("exhaustive", "best_first"):
            path = tmp_path / f"{backend}-{jobs}-{strategy}.json"
            with use_backend(backend):
                scan_subgroups(
                    dataset.labels(), dataset,
                    config=ScanConfig(
                        strategy=strategy, min_size=15, jobs=jobs
                    ),
                    checkpoint_path=str(path),
                )
            paths[strategy] = path.read_bytes()
        assert paths["exhaustive"] == paths["best_first"]

    def test_checkpoint_bytes_identical_across_backends(
        self, dataset, tmp_path
    ):
        blobs = []
        for backend in ("kernel", "reference"):
            path = tmp_path / f"{backend}.json"
            with use_backend(backend):
                scan_subgroups(
                    dataset.labels(), dataset,
                    config=ScanConfig(strategy="best_first", min_size=15),
                    checkpoint_path=str(path),
                )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_exhaustive_strategy_matches_legacy_scan(self, intersectional):
        legacy = audit_subgroups(
            intersectional.labels(), intersectional,
            scan_config=ScanConfig(),
        )
        legacy = adjust_for_multiple_testing(legacy, method="holm")
        result = scan_subgroups(
            intersectional.labels(), intersectional, config=ScanConfig()
        )
        assert result.pruned == 0
        assert [f.subgroup.label() for f in result.findings] == [
            f.subgroup.label() for f in legacy
        ]
        assert [f.adjusted_p_value for f in result.findings] == [
            f.adjusted_p_value for f in legacy
        ]

    def test_dispatch_through_audit_subgroups(self, dataset):
        findings = audit_subgroups(
            dataset.labels(), dataset,
            scan_config=ScanConfig(strategy="best_first", min_size=15),
        )
        direct = scan_subgroups(
            dataset.labels(), dataset,
            config=ScanConfig(strategy="best_first", min_size=15),
        )
        assert [f.subgroup.label() for f in findings] == [
            f.subgroup.label() for f in direct.findings
        ]
        # corrections arrive pre-attached from the censored-exact pass
        assert any(f.adjusted_p_value is not None for f in findings)


class TestBoundSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_never_prunes_a_flagged_subgroup(self, seed):
        """Property: across datasets the pruned flagged set is exact."""
        rng = np.random.default_rng(seed)
        data = _noisy_dataset(
            n=int(rng.integers(500, 2500)),
            seed=seed,
            n_attrs=int(rng.integers(2, 4)),
        )
        for correction in ("holm", "bh"):
            config = ScanConfig(correction=correction, min_size=10)
            exhaustive = scan_subgroups(
                data.labels(), data, config=config
            )
            pruned = scan_subgroups(
                data.labels(), data,
                config=config.replace(strategy="best_first"),
            )
            assert _flag_key(pruned.findings, config.alpha) == _flag_key(
                exhaustive.findings, config.alpha
            )
            assert pruned.total == exhaustive.total
            assert pruned.evaluated + pruned.pruned <= pruned.total


class TestIncremental:
    def _split(self, n_total, n_prefix, seed=3):
        full = _noisy_dataset(n=n_total, seed=seed)
        prefix = full.take(np.arange(n_prefix))
        return prefix, full

    def test_rescan_matches_from_scratch(self, tmp_path):
        prefix, full = self._split(3000, 2000)
        config = ScanConfig(strategy="incremental", min_size=15)
        state_path = tmp_path / "scan.state.json"
        first = scan_subgroups(
            prefix.labels(), prefix, config=config,
            state_path=str(state_path),
        )
        assert state_path.exists()
        ckpt_inc = tmp_path / "inc.ckpt.json"
        grown = scan_subgroups(
            full.labels(), full, config=config,
            state_path=str(state_path), checkpoint_path=str(ckpt_inc),
        )
        assert grown.rescored > 0
        scratch_state = tmp_path / "scratch.state.json"
        ckpt_scratch = tmp_path / "scratch.ckpt.json"
        scratch = scan_subgroups(
            full.labels(), full, config=config,
            state_path=str(scratch_state),
            checkpoint_path=str(ckpt_scratch),
        )
        assert _flag_key(grown.findings, config.alpha) == _flag_key(
            scratch.findings, config.alpha
        )
        assert [f.p_value for f in grown.findings] == [
            f.p_value for f in scratch.findings
        ]
        # the durable artifacts are byte-identical either way
        assert ckpt_inc.read_bytes() == ckpt_scratch.read_bytes()
        assert state_path.read_bytes() == scratch_state.read_bytes()
        assert first.rescored == 0

    def test_noop_rescan_rescores_nothing(self, tmp_path):
        prefix, _ = self._split(2000, 2000)
        config = ScanConfig(strategy="incremental", min_size=15)
        state_path = tmp_path / "scan.state.json"
        scan_subgroups(
            prefix.labels(), prefix, config=config,
            state_path=str(state_path),
        )
        again = scan_subgroups(
            prefix.labels(), prefix, config=config,
            state_path=str(state_path),
        )
        assert again.rescored == 0

    def test_shrunk_data_refused(self, tmp_path):
        prefix, full = self._split(2500, 1500)
        config = ScanConfig(strategy="incremental", min_size=15)
        state_path = tmp_path / "scan.state.json"
        scan_subgroups(
            full.labels(), full, config=config, state_path=str(state_path)
        )
        with pytest.raises(CheckpointError):
            scan_subgroups(
                prefix.labels(), prefix, config=config,
                state_path=str(state_path),
            )

    def test_incremental_requires_state_path(self, dataset):
        with pytest.raises(AuditError, match="state_path"):
            scan_subgroups(
                dataset.labels(), dataset,
                config=ScanConfig(strategy="incremental"),
            )

    def test_state_refuses_other_lattice_config(self, tmp_path, dataset):
        config = ScanConfig(strategy="incremental", min_size=15)
        state_path = tmp_path / "scan.state.json"
        scan_subgroups(
            dataset.labels(), dataset, config=config,
            state_path=str(state_path),
        )
        with pytest.raises(CheckpointError):
            scan_subgroups(
                dataset.labels(), dataset,
                config=config.replace(min_size=30),
                state_path=str(state_path),
            )

    def test_explicit_rescan_entrypoint(self, tmp_path):
        prefix, full = self._split(2400, 1600)
        config = ScanConfig(strategy="incremental", min_size=15)
        state_path = tmp_path / "scan.state.json"
        scan_subgroups(
            prefix.labels(), prefix, config=config,
            state_path=str(state_path),
        )
        state = ScanState.load(str(state_path))
        result = rescan(
            state, full.labels(), full, state_path=str(state_path)
        )
        scratch = scan_subgroups(
            full.labels(), full,
            config=config, state_path=str(tmp_path / "other.json"),
        )
        assert _flag_key(result.findings, config.alpha) == _flag_key(
            scratch.findings, config.alpha
        )


class TestAccumulatorDiff:
    def _accumulate(self, dataset, rows):
        acc = AuditAccumulator(["g0", "g1"], label=None)
        piece = dataset.take(np.arange(rows[0], rows[1]))
        acc.ingest(
            protected={
                "g0": np.asarray(piece.column("g0")),
                "g1": np.asarray(piece.column("g1")),
            },
            predictions=np.asarray(piece.column("y")),
        )
        return acc

    def test_diff_is_merge_inverse(self, dataset):
        base = self._accumulate(dataset, (0, 1000))
        tail = self._accumulate(dataset, (1000, 2000))
        merged = self._accumulate(dataset, (0, 1000))
        merged.merge(tail)
        delta = merged.diff(base)
        assert delta.n_rows == tail.n_rows
        assert delta.to_dict()["cells"] == tail.to_dict()["cells"]

    def test_diff_rejects_non_prefix(self, dataset):
        base = self._accumulate(dataset, (0, 1000))
        other = self._accumulate(dataset, (500, 600))
        with pytest.raises(AuditError):
            other.diff(base)

    def test_diff_rejects_layout_mismatch(self, dataset):
        base = AuditAccumulator(["g0"], label=None)
        grown = self._accumulate(dataset, (0, 1000))
        with pytest.raises(AuditError):
            grown.diff(base)


class TestResume:
    def test_complete_checkpoint_rewritten_identically(
        self, dataset, tmp_path
    ):
        path = tmp_path / "done.json"
        config = ScanConfig(strategy="best_first", min_size=15)
        scan_subgroups(
            dataset.labels(), dataset, config=config,
            checkpoint_path=str(path),
        )
        done = path.read_bytes()
        assert json.loads(done)["payload"]["complete"]
        scan_subgroups(
            dataset.labels(), dataset, config=config,
            checkpoint_path=str(path), resume=True,
        )
        assert path.read_bytes() == done

    def test_resume_needs_checkpoint_path(self, dataset):
        with pytest.raises(CheckpointError):
            scan_subgroups(
                dataset.labels(), dataset, config=ScanConfig(), resume=True
            )

    def test_legacy_checkpoint_layout_refused(self, dataset, tmp_path):
        # the retired next_index/findings payload fails closed, even
        # under a matching envelope fingerprint
        path = tmp_path / "legacy.json"
        scan_subgroups(
            dataset.labels(), dataset, config=ScanConfig(min_size=15),
            checkpoint_path=str(path),
        )
        envelope = json.loads(path.read_text())
        envelope["payload"] = {
            "next_index": 3, "total": 10, "complete": False, "findings": [],
        }
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="wrong layout"):
            scan_subgroups(
                dataset.labels(), dataset, config=ScanConfig(min_size=15),
                checkpoint_path=str(path), resume=True,
            )


class TestNumericAttributes:
    """One input rule at the scanner's front door (paper IV.C): only
    discrete columns are conjoined, whatever the strategy or caller."""

    @pytest.fixture(scope="class")
    def hiring(self):
        from repro.data import make_hiring

        return make_hiring(600, random_state=1)

    @pytest.mark.parametrize(
        "strategy", ["exhaustive", "best_first", "incremental"]
    )
    def test_numeric_attribute_refused(self, hiring, tmp_path, strategy):
        with pytest.raises(AuditError, match="'education' is numeric"):
            audit_subgroups(
                hiring.labels(), hiring, ["sex", "education"],
                scan_config=ScanConfig(strategy=strategy),
                state_path=str(tmp_path / "state.json"),
            )

    @pytest.mark.parametrize(
        "strategy", ["exhaustive", "best_first", "incremental"]
    )
    def test_cli_exits_2(self, hiring, tmp_path, capsys, strategy):
        from repro.cli import main
        from repro.data.io import save_dataset

        path = tmp_path / "hiring.csv"
        save_dataset(hiring, path)
        code = main(["subgroups", "--data", str(path),
                     "--attribute", "sex", "--attribute", "education",
                     "--strategy", strategy,
                     "--state", str(tmp_path / "state.json")])
        assert code == 2
        assert "'education' is numeric" in capsys.readouterr().err
