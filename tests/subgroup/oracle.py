"""Test-only oracle for the subgroup scanner: one member mask per subgroup.

The executable specification :func:`repro.subgroup.scan_subgroups` is
checked against.  Every enumerated subgroup's boolean member mask is
materialised and its rates, Wilson interval and two-proportion z-test
computed with the scalar statistics of the ``"reference"`` backend —
no joint cells, marginals, batching, pruning or worker pool.
"""

from __future__ import annotations

import numpy as np

from repro.kernel import use_backend
from repro.stats.tests import two_proportion_z_test, wilson_interval
from repro.subgroup import SubgroupFinding, enumerate_subgroups


def mask_scan(predictions, dataset, attributes=None, *, max_order, min_size):
    """Exhaustive raw-p findings, most disparate first."""
    predictions = np.asarray(predictions)
    if attributes is None:
        attributes = dataset.schema.protected_names
    subgroups = enumerate_subgroups(
        dataset, attributes, max_order=max_order, min_size=min_size
    )
    findings = []
    with use_backend("reference"):
        for subgroup in subgroups:
            inside = predictions[subgroup.mask]
            outside = predictions[~subgroup.mask]
            if len(outside) == 0:
                continue
            rate = float(inside.mean())
            complement = float(outside.mean())
            test = two_proportion_z_test(
                int(inside.sum()), len(inside),
                int(outside.sum()), len(outside),
            )
            lo, hi = wilson_interval(int(inside.sum()), len(inside))
            findings.append(
                SubgroupFinding(
                    subgroup=subgroup,
                    rate=rate,
                    complement_rate=complement,
                    gap=rate - complement,
                    ci_low=lo,
                    ci_high=hi,
                    p_value=test.p_value,
                )
            )
    findings.sort(key=lambda f: (-abs(f.gap), f.subgroup.label()))
    return findings
