"""Output checks against values frozen from the package.

``frozen.json`` holds, per workload and per N, the values of each
class-function term with coefficient 1: exact integers, quadrature values
where the workload has no exact route to compare with, and the estimate's
f-independent fields plus each term's central sum.  Every value the harness
reports is linear in the term coefficients, so a seed's expected values are
exact (integers) or rounded (floats) linear combinations of the frozen ones.

Tolerances: exact integers and the exact estimate fields must match
exactly; quadrature 1e-9 relative; other estimate floats 1e-12 relative;
ratio, error and fitted exponent, recomputed from the checked values,
1e-9 relative.  Relative tolerances scale with max(|reference|, 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"

REL_QUAD = 1e-9
REL_ESTIMATE = 1e-12
REL_DERIVED = 1e-9

ROUTE_FIELD = {"exact": "exact", "quad": "quad", "asymptotic": "estimate"}


def load_frozen():
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(x, ref, rel):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x)
            and abs(x - ref) <= rel * max(abs(ref), 1.0))


def _combine(values, coeffs):
    return sum(c * v for c, v in zip(coeffs, values))


@dataclass
class Tally:
    """(row, route) pairs attempted, wrong and refused, with reasons."""
    attempted: int = 0
    wrong: int = 0
    refused: int = 0
    problems: list = field(default_factory=list)

    def add(self, other):
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.refused += other.refused
        self.problems.extend(other.problems)

    def crashed(self, pairs, reason):
        """A sweep that raised: every pair it attempted is wrong."""
        self.attempted += pairs
        self.wrong += pairs
        self.problems.append(reason)


def _check_exact(value, ref, coeffs):
    expected = _combine(ref["exact"], coeffs)
    if type(value) is not int or value != expected:
        return f"exact {value!r} != frozen {expected}"
    return None


def _expected_quad(ref, coeffs):
    if "quad" in ref:
        return _combine(ref["quad"], coeffs)
    return _combine(ref["exact"], coeffs)


def _check_quad(value, ref, coeffs):
    expected = _expected_quad(ref, coeffs)
    if not _close(value, expected, REL_QUAD):
        return f"quad {value!r} off reference {expected!r}"
    return None


def _expected_pi(ref, coeffs):
    est = ref["estimate"]
    return (_combine([p[0] for p in est["pi"]], coeffs),
            _combine([p[1] for p in est["pi"]], coeffs))


def _check_estimate(value, ref, coeffs):
    if not isinstance(value, dict):
        return f"estimate {value!r} is not an estimate"
    est = ref["estimate"]
    for key in ("kappa_term", "det_a"):
        if value.get(key) != est[key]:
            return f"{key} {value.get(key)!r} != frozen {est[key]!r}"
    for key in ("log_dim_power", "prefactor"):
        if not _close(value.get(key), est[key], REL_ESTIMATE):
            return f"{key} {value.get(key)!r} != frozen {est[key]!r}"
    pi_re, pi_im = _expected_pi(ref, coeffs)
    got_pi = (value.get("pi_sum_re"), value.get("pi_sum_im"))
    if not (_close(got_pi[0], pi_re, REL_ESTIMATE)
            and _close(got_pi[1], pi_im, REL_ESTIMATE)):
        return f"central sum {got_pi} != frozen {(pi_re, pi_im)}"
    expected_log = est["log_scale"] + math.log(abs(pi_re))
    if not _close(value.get("log_abs_value"), expected_log, REL_ESTIMATE):
        return (f"log_abs_value {value.get('log_abs_value')!r} != "
                f"{expected_log!r}")
    v = value.get("value")
    if not (isinstance(v, (int, float)) and math.isfinite(v)):
        return f"estimate value {v!r} is not finite"
    return None


CHECKS = {"exact": _check_exact, "quad": _check_quad,
          "asymptotic": _check_estimate}


def _expected_ratio(row):
    """(ratio, abs_error) the harness must derive from the row's checked
    reference and estimate, or None when it derives none."""
    ref = row["exact"] if row["exact"] is not None else row["quad"]
    est = row["estimate"]
    if ref is None or est is None:
        return None
    if ref == 0:
        return 0.0, 1.0
    sign = 1.0 if (ref > 0) == (est["pi_sum_re"] > 0) else -1.0
    ratio = sign * math.exp(math.log(abs(ref)) - est["log_abs_value"])
    return ratio, abs(ratio - 1.0)


def _expected_exponent(ns, errors):
    """Least-squares slope of log error against log N over the upper half
    of the schedule, as the report's fitted exponent is defined."""
    cut = ns[len(ns) // 2] if ns else 0
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errors)
           if n >= cut and e is not None and e > 0]
    if len(pts) < 2:
        return None
    slope, _ = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)
    return float(slope)


def check_report(report, schedule, paths, coeffs, frozen):
    """Check one rendered report (a parsed dict) against frozen values.

    A wrong derived value (ratio, error, fitted exponent) marks the
    asymptotic pairs it was derived from, or the whole row when the
    asymptotic route was not requested.
    """
    tally = Tally(attempted=len(schedule) * len(paths))
    wrong = set()

    def mark(n, route, problem):
        routes = [route] if route in paths else list(paths)
        wrong.update((n, r) for r in routes)
        tally.problems.append(f"N={n}: {problem}")

    rows = report.get("rows", [])
    if [r.get("N") for r in rows] != list(schedule):
        for n in schedule:
            mark(n, None, "rows do not match the schedule")
        tally.wrong = len(wrong)
        return tally
    for row in rows:
        n = row["N"]
        ref = frozen["rows"][str(n)]
        skipped = {note.split(" ", 1)[0] for note in row["notes"]
                   if " skipped: " in note}
        for route, key in ROUTE_FIELD.items():
            value = row[key]
            if route not in paths:
                if value is not None:
                    mark(n, None, f"unrequested {route} value")
            elif value is None and route in skipped:
                tally.refused += 1
            else:
                problem = CHECKS[route](value, ref, coeffs)
                if problem:
                    mark(n, route, problem)
        derived = _expected_ratio(row)
        got = (row["ratio"], row["abs_error"])
        if derived is None:
            ok = got == (None, None)
        else:
            ok = all(_close(g, d, REL_DERIVED) for g, d in zip(got, derived))
        if not ok:
            mark(n, "asymptotic", f"ratio/abs_error {got} != {derived}")
    ns = list(schedule)
    expected = _expected_exponent(ns, [r["abs_error"] for r in rows])
    got = report.get("fitted_exponent")
    if not (got is None and expected is None
            or expected is not None and _close(got, expected, REL_DERIVED)):
        for n in ns[len(ns) // 2:]:
            mark(n, "asymptotic", f"fitted_exponent {got!r} != {expected!r}")
    tally.wrong = len(wrong)
    return tally
