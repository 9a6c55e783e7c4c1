"""Smoke test of the benchmark command.

Usage: python3 bench/smoke.py

Runs every workload named in ``BENCHMARK.json`` on a two-row schedule for
one second, untraced and traced, and checks that the last output line is
the result object with every metric ``BENCHMARK.json`` lists, under its
unit, that all checked values were correct, and that the command refuses to
run (non-zero exit, no result line) in a copy of the checkout that holds
only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from env import ROOT
from workloads import WORKLOADS

BARE_DIR = Path(__file__).resolve().parent / "runs" / "smoke-bare"


def _run(spec, cwd, workload, trace, rows=2):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--max-rows", str(rows)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def _check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: correct/attempted/failed "
                        f"{result.get('correct')}/{result.get('attempted')}/"
                        f"{result.get('failed')}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        metric = got.get(name)
        if metric is None:
            problems.append(f"{where}: metric {name} missing")
        elif metric.get("unit") != unit or not isinstance(
                metric.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} is {metric}, "
                            f"want unit {unit}")
    extra = set(got) - set(wanted)
    if extra:
        problems.append(f"{where}: unlisted metrics {sorted(extra)}")
    return problems


def _check_bare(spec):
    """The command must fail cleanly without the package's source."""
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    BARE_DIR.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE_DIR)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, BARE_DIR / rel,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    try:
        proc = _run(spec, BARE_DIR, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(BARE_DIR, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare checkout: exit {proc.returncode}, output {lines[-1:]}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"{sorted(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            proc = _run(spec, ROOT, workload, trace)
            problems += _check_result(spec, workload, trace, proc)
            print(f"{workload} --trace {trace}: exit {proc.returncode}",
                  flush=True)
    problems += _check_bare(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
