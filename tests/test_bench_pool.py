"""Every candidate of the exact benchmark pools passes its workload check.

A benchmark seed draws one candidate per stratum, so a seeded run checks
only part of a pool against ``bench/reference.json``.  This builds and runs
every candidate of ``exact_finite`` and ``recurrence_deep``: exact outputs
must match their recorded digests, and numeric ones must pass the
workload's checks within its tolerance, ``mpmath.hyper``'s nu_0 included
(and report their Gram entries as mpf).
The benchmark files are only read.
"""

import json
import sys
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", ["exact_finite", "recurrence_deep"])
def test_every_pool_candidate_passes_its_check(name):
    workload = WORKLOADS[name]
    failures = []
    count = 0
    with mp.workdps(workload.dps):
        for stratum in workload.strata():
            for recipe in stratum:
                item = workload.build(recipe)
                out = workload.run(item)
                reason = workload.check(item, out, REFERENCE[name])
                if reason is not None:
                    failures.append(f"{item.label}: {reason}")
                if name == "recurrence_deep" and not item.exact:
                    # the Gram check of a numeric table rounds each entry to mpf
                    gram = out["gram"]
                    if not all(isinstance(d, mp.mpf) for d in gram["diagonal"]):
                        failures.append(f"{item.label}: a Gram entry is not an mpf")
                count += 1
    assert count == 169
    assert failures == []
