"""lattice_scan — subgroup discovery over a large packed lattice.

Eight categorical protected attributes of six categories each at
``max_order=3`` enumerate 13,152 subgroups, and the rows spread over
about as many distinct joint cells as there are rows.  That makes this
the one workload where ``streaming.AuditAccumulator`` holds tens of
thousands of cells — the opposite regime to ``monitor_fleet``.

One pass (= one operation) runs the three scans a user re-auditing a
growing population runs:

1. the CLI-default exhaustive path, ``audit_subgroups`` followed by
   ``adjust_for_multiple_testing("holm")``;
2. ``scan_subgroups(strategy="best_first")``;
3. an incremental rescan after 10% more rows were appended, from the
   ``ScanState`` built during set-up (copied fresh before every pass,
   since the rescan rewrites it).

Output check: the exhaustive scan of the pack must flag exactly what
an exhaustive scan of the in-memory dataset flags, with equal raw and
Holm-adjusted p-values; best_first must match it, and the incremental
rescan must match an exhaustive scan of the grown in-memory dataset.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from perfbench.harness import Op, Pass

SIZES = {
    "full": {"rows": 24_000, "attributes": 8, "categories": 6},
    "tiny": {"rows": 3_000, "attributes": 4, "categories": 3},
}
GROWTH = 0.10
MAX_ORDER = 3
MIN_SIZE = 20
#: planted disparities: these order-2 subgroups (attribute index,
#: category index) get their positive rate raised by LIFT, so every scan
#: has findings to agree on.  Fixed positions and strength keep the
#: share of the lattice the bounds prune nearly the same on every seed.
PLANTED = (((0, 0), (1, 1)), ((2, 2), (3, 0)), ((4, 1), (5, 2)))
LIFT = 0.25


def flag_key(findings, alpha) -> list:
    """Significant findings as sorted (label, p, adjusted p) triples."""
    return sorted(
        (f.subgroup.label(), f.p_value, f.adjusted_p_value)
        for f in findings
        if f.significant(alpha)
    )


def check_flags(name: str, got: list, expected: list) -> str:
    """'' when two flagged sets agree, else what differs."""
    if got == expected:
        return ""
    missing = sorted(set(expected) - set(got))[:3]
    extra = sorted(set(got) - set(expected))[:3]
    return (f"{name}: {len(got)} flagged vs {len(expected)} expected "
            f"(missing {missing}, unexpected {extra})")


def _exhaustive(dataset, config):
    """The CLI-default path: the exhaustive scan, then the correction."""
    from repro.subgroup.auditor import (
        adjust_for_multiple_testing,
        audit_subgroups,
    )

    return adjust_for_multiple_testing(
        audit_subgroups(dataset.labels(), dataset, scan_config=config),
        method=config.correction,
    )


def _population(rng, rows, attributes, categories, planted):
    from repro import Column, Schema, TabularDataset

    cats = tuple(f"c{i}" for i in range(categories))
    columns, data = [], {}
    for i in range(attributes):
        columns.append(Column(f"g{i}", kind="categorical", role="protected",
                              categories=cats))
        data[f"g{i}"] = np.asarray(cats)[rng.integers(categories, size=rows)]
    rate = np.full(rows, 0.5)
    for (a, va), (b, vb) in planted:
        rate += LIFT * ((data[a] == va) & (data[b] == vb))
    columns.append(Column("y", kind="binary", role="label"))
    data["y"] = (rng.random(rows) < np.clip(rate, 0.0, 1.0)).astype(int)
    return TabularDataset(Schema(tuple(columns)), data)


class LatticeScan:
    name = "lattice_scan"
    op_name = "one pass: exhaustive + best_first + incremental"
    #: about 6 passes per run: the slowest one
    tail_percentile = 100

    def __init__(self, seed: int, size: str, workdir):
        from repro.core.config import ScanConfig

        shape = SIZES[size]
        rng = np.random.default_rng(seed)
        attributes, categories = shape["attributes"], shape["categories"]
        planted = [
            tuple((f"g{a % attributes}", f"c{c % categories}") for a, c in pair)
            for pair in PLANTED
        ]
        rows = shape["rows"]
        self.base = _population(rng, rows, attributes, categories, planted)
        delta = _population(rng, int(rows * GROWTH), attributes, categories,
                            planted)
        self.grown = self.base.concat(delta)
        self.pass_size = (f"{rows} + {delta.n_rows} rows, {attributes} "
                          f"attributes x {categories} categories")
        self.config = ScanConfig(max_order=MAX_ORDER, min_size=MIN_SIZE)
        self.workdir = workdir
        self.expected = {}
        for key, dataset in (("base", self.base), ("grown", self.grown)):
            findings = _exhaustive(dataset, self.config)
            self.expected[key] = flag_key(findings, self.config.alpha)
        self.total = len(findings)
        self.paths = None

    def prepare(self, tracer) -> None:
        """Pack both datasets and build the base ScanState."""
        from repro.data import ooc
        from repro.subgroup.search import scan_subgroups

        with tracer.span("data.pack", op="setup"):
            base = ooc.pack_dataset(self.base, self.workdir / "base.packed")
            grown = ooc.pack_dataset(self.grown,
                                     self.workdir / "grown.packed")
        state = self.workdir / "base.scanstate.json"
        with tracer.span("subgroup.base_state", op="setup"):
            dataset = ooc.open_dataset(base)
            scan_subgroups(
                dataset.labels(), dataset,
                config=self.config.replace(strategy="incremental"),
                state_path=str(state),
            )
        self.paths = (base, grown, state)

    def run_pass(self, index: int, tracer) -> Pass:
        from repro.data import ooc
        from repro.subgroup.search import scan_subgroups

        base, grown, state = self.paths
        pass_state = self.workdir / "pass.scanstate.json"
        shutil.copyfile(state, pass_state)
        config = self.config
        outputs, error = None, ""
        start = time.perf_counter()
        with tracer.span("op", op=str(index)):
            try:
                dataset = ooc.open_dataset(base)
                with tracer.span("subgroup.exhaustive"):
                    exhaustive = _exhaustive(dataset, config)
                dataset = ooc.open_dataset(base)
                with tracer.span("subgroup.best_first"):
                    best_first = scan_subgroups(
                        dataset.labels(), dataset,
                        config=config.replace(strategy="best_first"),
                    )
                dataset = ooc.open_dataset(grown)
                with tracer.span("subgroup.incremental"):
                    incremental = scan_subgroups(
                        dataset.labels(), dataset,
                        config=config.replace(strategy="incremental"),
                        state_path=str(pass_state),
                    )
                outputs = (exhaustive, best_first, incremental)
            except Exception as exc:  # noqa: BLE001 — counted, reported
                error = f"scan pass failed: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        return Pass(wall, [Op(wall, error)], [outputs])

    def check(self, done: Pass) -> None:
        op, (outputs,) = done.ops[0], done.outputs
        if op.error:
            done.outputs = [None]
            return
        exhaustive, best_first, incremental = outputs
        alpha = self.config.alpha
        op.error = (
            check_flags("exhaustive", flag_key(exhaustive, alpha),
                        self.expected["base"])
            or check_flags("best_first", flag_key(best_first.flagged, alpha),
                           self.expected["base"])
            or check_flags("incremental",
                           flag_key(incremental.flagged, alpha),
                           self.expected["grown"])
        )
        # keep only the counts the per-layer report needs
        done.outputs = [(best_first.summary(), incremental.summary())]

    def counts(self, passes) -> dict:
        checked = [p.outputs[0] for p in passes if p.outputs[0] is not None]
        if not checked:
            return {}
        best_first, incremental = checked[-1]
        base = f"of {best_first['total']} subgroups"
        return {
            "subgroup.evaluated": (best_first["evaluated"],
                                   f"best_first, {base}"),
            "subgroup.pruned": (best_first["pruned"], f"best_first, {base}"),
            "subgroup.rescored": (incremental["rescored"],
                                  f"incremental, of {incremental['total']} "
                                  "subgroups"),
            "subgroup.pruned_fraction": (best_first["pruned_fraction"],
                                         f"best_first pruned / {base}"),
        }

    def describe(self) -> list[str]:
        return [f"{self.total} subgroups at max_order={MAX_ORDER}, "
                f"{len(self.expected['base'])} flagged on the base rows, "
                f"{len(self.expected['grown'])} after growth"]

    def close(self) -> None:
        pass
