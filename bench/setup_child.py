"""One fresh-interpreter measurement of set-up time and, optionally, the
peak resident memory of set-up plus one sweep.

Usage: python3 bench/setup_child.py WORKLOAD ['<config mapping json>']

Times ``import liemoments`` plus the workload's set-up (root system and
cold weight systems), in reference seconds (see ``speed.py``) and wall
seconds.  Given a config mapping, it then runs and renders one
sweep.  Prints one JSON object: ``setup_s``, ``setup_wall_s``, ``peak_rss_mb``
and the rendered ``report`` (or null).
"""

from __future__ import annotations

import json
import resource
import sys

import env
import speed
from workloads import WORKLOADS


def main(argv):
    workload = WORKLOADS[argv[1]]
    mapping = json.loads(argv[2]) if len(argv) > 2 else None
    env.use_checkout_source()

    def set_up():
        import liemoments
        workload.set_up()
        return liemoments

    # Set-up is pure Python (imports, Freudenthal), whatever the workload.
    liemoments, setup_s, setup_wall_s = speed.Sampler("python").measure(set_up)
    env.check_imported(liemoments)

    report = None
    if mapping is not None:
        from liemoments.harness import ExperimentConfig, run_experiment
        report = run_experiment(ExperimentConfig.from_mapping(mapping)) \
            .to_json()
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                      "peak_rss_mb": peak_mb, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
