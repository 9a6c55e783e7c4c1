"""Write ``frozen.json``: each workload's per-term reference values.

Usage: python3 bench/freeze.py

Runs every workload once per class-function term, with that term alone and
coefficient 1, through the public harness, and stores what ``check.py``
compares against.  Re-freeze only on purpose: the frozen values are the
benchmark's correctness gate, so a change that alters them is a change in
the numbers the package computes.
"""

from __future__ import annotations

import json
import math
import sys

import env
from check import FROZEN_PATH
from workloads import WORKLOADS, schedule_values


def _term_report(harness, workload, term):
    mapping, _ = workload.mapping(seed=0)
    mapping["f"] = f"{term}:1"
    cfg = harness.ExperimentConfig.from_mapping(mapping)
    return harness.run_experiment(cfg).to_dict()


def freeze_workload(harness, workload):
    paths = workload.paths.split(",")
    reports = [_term_report(harness, workload, t) for t in workload.terms]
    rows = {}
    for n in schedule_values(workload.schedule):
        per_term = [next(r for r in rep["rows"] if r["N"] == n)
                    for rep in reports]
        ref = {}
        if "exact" in paths:
            ref["exact"] = [row["exact"] for row in per_term]
        elif "quad" in paths:
            ref["quad"] = [row["quad"] for row in per_term]
        if "asymptotic" in paths:
            est = per_term[0]["estimate"]
            ref["estimate"] = {
                "kappa_term": est["kappa_term"],
                "det_a": est["det_a"],
                "log_dim_power": est["log_dim_power"],
                "prefactor": est["prefactor"],
                "log_scale": (est["log_abs_value"]
                              - math.log(abs(est["pi_sum_re"]))),
                "pi": [[row["estimate"]["pi_sum_re"],
                        row["estimate"]["pi_sum_im"]] for row in per_term],
            }
        rows[str(n)] = ref
    return {"terms": list(workload.terms), "rows": rows}


def main():
    env.pin_blas_threads()
    env.use_checkout_source()
    from liemoments import harness
    frozen = {name: freeze_workload(harness, w)
              for name, w in WORKLOADS.items()}
    with open(FROZEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FROZEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
