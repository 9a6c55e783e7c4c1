"""Benchmark of liemoments convergence sweeps through the public harness.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--max-rows K]

Each workload (see ``workloads.py``) is one ``ExperimentConfig`` built from
a seeded mapping and run as a closed loop in a single process: the next
sweep starts when the previous one has been rendered and checked.  Every
sweep's report is checked against ``frozen.json``; any wrong or crashed
value makes the command exit 1 after printing its result.

With ``--trace 0`` the run measures end-to-end metrics with tracing off:
``sweep_s`` (median warm ``run_experiment`` plus JSON render), ``setup_s``
(median over fresh interpreters of import, root system and cold weight
systems), ``peak_rss_mb`` (a fresh process doing set-up plus one sweep) and
``answered_frac``.  Times are in reference seconds (see ``speed.py``).  With
``--trace 1`` it alternates untraced and traced sweeps and reports
per-layer metrics (medians over the traced sweeps), the traced set-up and
the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A record of the run, with the machine and, when traced, every span, is
written to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

env.pin_blas_threads()

import check  # noqa: E402  (imports numpy, after the thread count is set)
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = BENCH_DIR / "runs"

SETUP_REPS = 5          # fresh interpreters per run for setup_s
MIN_SWEEPS = 3          # timed sweeps per run even when --seconds is short
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answered_frac": "fraction",
}

PER_LAYER_UNITS = {
    "charring.moment_weight_system.s": "s",
    "charring.product.s": "s",
    "charring.product.calls": "count",
    "charring.product.pairs": "count",
    "charring.product.max_support": "count",
    "charring.trivial_multiplicity.s": "s",
    "charring.trivial_multiplicity.weights": "count",
    "charring.share": "fraction",
    "torusquad.quad.s": "s",
    "torusquad.quad.calls": "count",
    "torusquad.grid_points": "count",
    "torusquad.s_per_mpoint": "s/Mpoint",
    "torusquad.peak_bytes_per_point": "B/point",
    "torusquad.quad.share": "fraction",
    "repweights.a_lambda.s": "s",
    "repweights.a_lambda.calls": "count",
    "repweights.a_lambda.share": "fraction",
    "asymptotics.leading_term.s": "s",
    "asymptotics.leading_term.calls": "count",
    "asymptotics.leading_term.refusals": "count",
    "repweights.weight_system.cold_s": "s",
    "repweights.weight_system.calls": "count",
    "repweights.weight_system.support": "count",
    "rootsys.build_root_system.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.render.s": "s",
    "harness.fit_error_exponent.s": "s",
    "trace.overhead_frac": "fraction",
}


class Sweeper:
    """Runs and checks sweeps of one generated config."""

    def __init__(self, mapping, coeffs, frozen):
        from liemoments import harness
        self.harness = harness
        self.cfg = harness.ExperimentConfig.from_mapping(mapping)
        self.coeffs = coeffs
        self.frozen = frozen
        self.tally = check.Tally()
        self.first_report = None

    @property
    def pairs(self):
        return len(self.cfg.schedule) * len(self.cfg.paths)

    def check(self, text):
        """Check a rendered report; every report of a run must have the
        bytes of the first one."""
        result = check.check_report(json.loads(text), self.cfg.schedule,
                                    self.cfg.paths, self.coeffs, self.frozen)
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            result.wrong = result.attempted
            result.problems.append("report bytes differ between repetitions")
        self.tally.add(result)

    def run(self, sampler=None, tracer=None, label=None):
        """One checked sweep, timed by ``sampler`` when given and traced
        by ``tracer`` when given.  Returns ``(reference_s, wall_s)`` (the
        reference time is None without a sampler), or None if the sweep
        raised (its pairs then count as wrong)."""
        if tracer is not None:
            tracer.sweep = label
        span = tracer.span if tracer is not None else _no_span

        def sweep():
            with span("sweep"):
                with span("harness.run_experiment"):
                    report = self.harness.run_experiment(self.cfg)
                with span("harness.render"):
                    return report.to_json()

        try:
            if sampler is not None:
                text, ref_s, wall_s = sampler.measure(sweep)
            else:
                t0 = time.perf_counter()
                text = sweep()
                ref_s, wall_s = None, time.perf_counter() - t0
        except Exception as exc:  # a crash is a wrong value, not an abort
            self.tally.crashed(self.pairs, f"sweep raised {exc!r}")
            return None
        self.check(text)
        return ref_s, wall_s


def _no_span(name):
    return contextlib.nullcontext()


def run_child(workload, mapping):
    """Fresh-interpreter set-up (plus a sweep when ``mapping`` is given)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), workload.name]
    if mapping is not None:
        cmd.append(json.dumps(mapping))
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}):\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_loop(seconds, step):
    """Call ``step`` until ``seconds`` have passed and it has run at least
    MIN_SWEEPS times; stops early when a step returns False."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_SWEEPS or time.perf_counter() < deadline:
        if step() is False:
            return
        done += 1


def end_to_end(workload, mapping, sweeper, seconds, record):
    """Set-up in fresh interpreters, then warm sweeps timed in reference
    seconds (see ``speed.py``)."""
    setups, setups_wall = [], []
    peak_rss = None
    for i in range(SETUP_REPS):
        out = run_child(workload, mapping if i == 0 else None)
        setups.append(out["setup_s"])
        setups_wall.append(out["setup_wall_s"])
        if out["report"] is not None:
            peak_rss = out["peak_rss_mb"]
            sweeper.check(out["report"])

    workload.set_up()
    sampler = speed.Sampler(workload.kernel)
    times, walls = [], []

    def step():
        measured = sweeper.run(sampler)
        if measured is None:
            return False
        times.append(measured[0])
        walls.append(measured[1])

    _timed_loop(seconds, step)
    record.update(setup_s=setups, setup_wall_s=setups_wall, sweep_s=times,
                  sweep_wall_s=walls, kernel_s=sampler.kernel_s)
    if not times:
        return None
    q1, q3 = _quartiles(times)
    print(f"sweep_s quartiles {q1:.6g}, {q3:.6g} over {len(times)} sweeps; "
          f"wall medians: sweep {statistics.median(walls):.6g} s, set-up "
          f"{statistics.median(setups_wall):.6g} s")
    tally = sweeper.tally
    return {
        "sweep_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "answered_frac": ((tally.attempted - tally.wrong - tally.refused)
                          / tally.attempted),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _layer_metrics(tracer, label, sweep_wall_s):
    """Per-layer numbers of one traced sweep, times in wall seconds."""
    st = tracer.self_times(label)
    c = tracer.counts[label]
    points = c["torusquad.grid_points"]
    charring = sum(v for k, v in st.items() if k.startswith("charring."))
    quad = st["torusquad.quad"]
    a_lambda = st["repweights.a_lambda"]
    return {
        "charring.moment_weight_system.s": st["charring.moment_weight_system"],
        "charring.product.s": st["charring.product"],
        "charring.product.calls": c["charring.product.calls"],
        "charring.product.pairs": c["charring.product.pairs"],
        "charring.product.max_support": c["charring.product.max_support"],
        "charring.trivial_multiplicity.s": st["charring.trivial_multiplicity"],
        "charring.trivial_multiplicity.weights":
            c["charring.trivial_multiplicity.weights"],
        "charring.share": charring / sweep_wall_s,
        "torusquad.quad.s": quad,
        "torusquad.quad.calls": c["torusquad.quad.calls"],
        "torusquad.grid_points": points,
        "torusquad.s_per_mpoint": quad / (points / 1e6) if points else 0.0,
        "torusquad.quad.share": quad / sweep_wall_s,
        "repweights.a_lambda.s": a_lambda,
        "repweights.a_lambda.calls": c["repweights.a_lambda.calls"],
        "repweights.a_lambda.share": a_lambda / sweep_wall_s,
        "asymptotics.leading_term.s": st["asymptotics.leading_term"],
        "asymptotics.leading_term.calls": c["asymptotics.leading_term.calls"],
        "asymptotics.leading_term.refusals":
            c["asymptotics.leading_term.refusals"],
        "repweights.weight_system.calls": c["repweights.weight_system.calls"],
        "harness.run_experiment.self_s": st["harness.run_experiment"],
        "harness.render.s": st["harness.render"],
        "harness.fit_error_exponent.s": st["harness.fit_error_exponent"],
    }


def traced(workload, mapping, coeffs, frozen, seconds, record):
    """Traced cold set-up, then untraced and traced sweeps in turn, then
    one sweep with tracemalloc inside quadrature calls.

    Traced intervals run without the speed sampler's timer, whose handler
    would land in the spans; their times are scaled by the mean kernel
    time of the untraced sweeps around them (of samples taken just before
    and after, for the set-up).
    """
    tracer = Tracer()
    setup_sampler = speed.Sampler("python")
    setup_sampler.sample()
    tracer.install()
    tracer.sweep = "setup"
    try:
        workload.set_up()
    finally:
        tracer.uninstall()
    setup_sampler.sample()
    setup_st = tracer.self_times("setup")

    sweeper = Sweeper(mapping, coeffs, frozen)
    sampler = speed.Sampler(workload.kernel)
    plain, traced_wall, per_sweep = [], [], []

    def step():
        measured = sweeper.run(sampler)
        if measured is None:
            return False
        plain.append(measured[1])
        label = len(per_sweep)
        tracer.install()
        try:
            measured = sweeper.run(tracer=tracer, label=label)
        finally:
            tracer.uninstall()
        if measured is None:
            return False
        traced_wall.append(measured[1])
        per_sweep.append(_layer_metrics(tracer, label, measured[1]))

    _timed_loop(seconds, step)

    tracer.install()
    tracer.track_memory = True
    try:
        sweeper.run(tracer=tracer, label="memory")
    finally:
        tracer.track_memory = False
        tracer.uninstall()

    record.update(plain_sweep_wall_s=plain, traced_sweep_wall_s=traced_wall,
                  setup_kernel_s=setup_sampler.kernel_s,
                  kernel_s=sampler.kernel_s, per_sweep=per_sweep,
                  trace=tracer.dump())
    if not per_sweep:
        return sweeper, None
    factor = sampler.factor()
    metrics = {}
    for name in per_sweep[0]:
        value = statistics.median(m[name] for m in per_sweep)
        scaled = PER_LAYER_UNITS[name] in ("s", "s/Mpoint")
        metrics[name] = value * factor if scaled else value
    setup_factor = setup_sampler.factor()
    metrics.update({
        "torusquad.peak_bytes_per_point":
            tracer.counts["memory"]["torusquad.peak_bytes_per_point"],
        "repweights.weight_system.cold_s":
            setup_st["repweights.weight_system"] * setup_factor,
        "repweights.weight_system.support":
            tracer.counts["setup"]["repweights.weight_system.support"],
        "rootsys.build_root_system.s":
            setup_st["rootsys.build_root_system"] * setup_factor,
        "trace.overhead_frac": (statistics.median(traced_wall)
                                / statistics.median(plain) - 1.0),
    })
    return sweeper, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-rows", type=int, default=None,
                   help="keep only the first K values of the N schedule "
                        "(for smoke tests)")
    return p.parse_args(argv)


def _print_metrics(metrics, units):
    width = max(len(k) for k in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    try:
        env.use_checkout_source()
        import liemoments
        env.check_imported(liemoments)
    except (env.MissingPackage, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    mapping, coeffs = workload.mapping(args.seed, args.max_rows)
    frozen = check.load_frozen()[workload.name]
    machine = env.machine()
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "mapping": mapping, "machine": machine}
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name} seed {args.seed}: "
          f"{json.dumps(mapping)}")

    if args.trace:
        sweeper, metrics = traced(workload, mapping, coeffs, frozen,
                                  args.seconds, record)
        units = PER_LAYER_UNITS
    else:
        sweeper = Sweeper(mapping, coeffs, frozen)
        metrics = end_to_end(workload, mapping, sweeper, args.seconds,
                             record)
        units = END_TO_END_UNITS

    tally = sweeper.tally
    record.update(metrics=metrics, attempted=tally.attempted,
                  wrong=tally.wrong, refused=tally.refused,
                  problems=tally.problems[:50])
    RUNS_DIR.mkdir(exist_ok=True)
    out = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in tally.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    error_frac = tally.wrong / tally.attempted
    refusal_frac = tally.refused / tally.attempted
    print(f"pairs attempted {tally.attempted}: error_frac {error_frac:.6g} "
          f"fraction, refusal_frac {refusal_frac:.6g} fraction")
    if metrics is None:
        print("error: no sweep completed", file=sys.stderr)
        return 1
    _print_metrics(metrics, units)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong + tally.refused,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
