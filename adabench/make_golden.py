"""Regenerate the golden answers: ``python3 adabench/make_golden.py [WORKLOAD ...]``.

Writes ``adabench/golden/<workload>.json`` with one record per problem-table
entry, computed from the program as it stands:

* ``plan``: the cold plan of each entry (strategy, stage boundaries,
  per-stage saved-unit counts, feasibility, modelled and simulated
  iteration times).
* ``replan``: the same fields for a **cold** 1-worker sweep on the changed
  pool, plus the chosen placement. The benchmark's warm replans must equal
  it, because warm and cold replans select bit-identical plans.
* ``robust``: nominal, mean, p95 and worst times, per-device criticality,
  simulated peaks and the memory-audit verdict of each evaluation.

Goldens are regenerated only by a change to the benchmark itself, never
by a change that claims a performance gain.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from repro.hardware.cluster import cluster_a  # noqa: E402
from repro.model.spec import model_by_name  # noqa: E402


def _unique(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.key, op)
    return list(seen.values())


def plan_golden():
    workload = workloads.PlanWorkload("")
    workload.setup()
    return {op.key: op.answer(op.run()) for op in _unique(workloads.ops_of(workload))}


def replan_golden():
    spec = model_by_name(workloads.REPLAN_MODEL)
    pools = workloads._base_pools()
    entries = {}
    for key, _cls, pool, event, argument in workloads.REPLAN_TABLE:
        if key in entries:
            continue
        base = cluster_a(1).with_device_pool(pools[pool])
        changed = workloads.changed_cluster(base, event, argument)
        result, _cache = workloads.cold_sweep(changed, spec)
        entries[key] = workloads.replan_record(result.best, changed)
    return entries


def robust_golden():
    workload = workloads.RobustWorkload("")
    workload.setup()
    return {op.key: op.answer(op.run()) for op in _unique(workloads.ops_of(workload))}


GENERATORS = {"plan": plan_golden, "replan": replan_golden, "robust": robust_golden}


def main(argv) -> int:
    names = argv or list(GENERATORS)
    for name in names:
        entries = {key: check.normalise(record) for key, record in GENERATORS[name]().items()}
        document = {"workload": name, "rel_tol": check.REL_TOL, "entries": entries}
        os.makedirs(check.GOLDEN_DIR, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=check.GOLDEN_DIR, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.chmod(tmp, 0o644)
        os.replace(tmp, check.golden_path(name))
        print(f"{check.golden_path(name)}: {len(entries)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
