"""Convergence experiments: exact vs quadrature vs leading-order values.

An experiment fixes a group, a highest weight, cycle types and a test class
function, then sweeps the power index N over a schedule, computing whichever
of the three routes are requested and the ratio of the reference value to the
leading-order estimate.  Reports serialize deterministically (byte-identical
reruns); wall-clock timings are kept on the report object and only serialized
on explicit request.  JSON is written by :func:`_json_text`, the bytes of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` from the C
encoder, which ``json.dumps`` itself uses only without ``indent``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from . import asymptotics, charring, rootsys
from .asymptotics import (AsymptoticEstimate, ClassFunction, HypothesisError,
                          leading_term_I, leading_term_K)
from .charring import CycleType
from .repweights import check_dominant_integral, is_regular

_PATHS = ("exact", "quad", "asymptotic")


def _json_text(obj):
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, from
    one C-encoder call per nonempty dict or list.  The encoder joins items
    by ``","``, a newline and the depth's indentation, so only the brackets
    move.  A nonempty child container is encoded as ``null`` and spliced
    in after its key's line prefix, which is unique because the encoder
    escapes every newline inside a string; a list holding one joins its
    rendered items."""
    containers = (dict, list, tuple)
    levels = []         # (encoder, item indent, bracket indent) per depth
    default = json.JSONEncoder().default  # TypeError on unsupported types
    quote = json.encoder.encode_basestring_ascii

    def render(obj, depth):
        if len(levels) == depth:
            inner = "\n" + "  " * (depth + 1)
            levels.append((json.encoder.c_make_encoder(
                None, default, quote, None, ": ", "," + inner, True, False,
                False), inner, inner[:-2]))
        encode, inner, outer = levels[depth]
        if not isinstance(obj, containers) or not obj:
            return "".join(encode(obj, 0))
        kids = ()
        if isinstance(obj, dict):
            kids = [k for k, v in obj.items()
                    if isinstance(v, containers) and v]
            text = "".join(encode({**obj, **dict.fromkeys(kids)}
                                  if kids else obj, 0))
        elif any(isinstance(v, containers) and v for v in obj):
            return "[" + inner + ("," + inner).join(
                [render(v, depth + 1) for v in obj]) + outer + "]"
        else:
            text = "".join(encode(obj, 0))
        text = text[0] + inner + text[1:-1] + outer + text[-1]
        for k in kids:
            # a key that is not a string is written as the encoder writes it
            key = inner + (quote(k) + ": " if isinstance(k, str) else
                           "".join(encode({k: None}, 0))[1:-5])
            text = text.replace(key + "null",
                                key + render(obj[k], depth + 1), 1)
        return text

    return render(obj, 0)


def _parse_ints(text, what, count=None, sep=","):
    try:
        vals = tuple(int(p) for p in str(text).split(sep))
    except ValueError:
        raise rootsys.ConfigurationError(f"bad {what} {text!r}") from None
    if count is not None and len(vals) != count:
        raise rootsys.ConfigurationError(
            f"{what} {text!r} has {len(vals)} coordinates, expected {count}")
    return vals


def parse_weight(text, rank=None):
    return _parse_ints(text, "weight", rank)


def parse_grid(text, rank):
    """Parse per-axis grid sizes ``"64,64"``, one size >= 1 per torus axis."""
    sizes = _parse_ints(text, "grid", rank)
    if min(sizes) < 1:
        raise rootsys.ConfigurationError(f"grid {text!r} has a size below 1")
    return sizes


def parse_schedule(text):
    """Parse ``"1,2,4"`` or an inclusive range ``"2:160:2"``."""
    text = str(text).strip()
    if ":" not in text:
        return _parse_ints(text, "schedule")
    nums = _parse_ints(text, "schedule", sep=":")
    start, stop, step = (nums + (1,))[:3]
    if len(nums) > 3 or step <= 0 or stop < start:
        raise rootsys.ConfigurationError(f"bad schedule {text!r}")
    return tuple(range(start, stop + 1, step))


def parse_class_function(text, rank):
    """Parse ``"1"`` (constant 1) or ``"w1,..,wr:coeff; w1,..,wr:coeff"``."""
    text = str(text).strip()
    if text in ("", "1"):
        return ClassFunction.one(rank)
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise rootsys.ConfigurationError(
                f"bad class-function term {chunk!r} (want coords:coeff)")
        coords, coeff = chunk.rsplit(":", 1)
        try:
            value = float(coeff)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise rootsys.ConfigurationError(
                f"bad class-function coefficient {coeff.strip()!r} in "
                f"{chunk!r}")
        terms.append((parse_weight(coords, rank), value))
    if not terms:
        raise rootsys.ConfigurationError(f"empty class function {text!r}")
    return ClassFunction(tuple(terms))


@dataclass(frozen=True)
class ExperimentConfig:
    group: str
    lam: tuple
    a: CycleType
    b: CycleType = CycleType(())
    schedule: tuple = ()
    f: ClassFunction | None = None
    paths: tuple = _PATHS
    grid_sizes: tuple | None = None
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if not self.schedule:
            raise rootsys.ConfigurationError("empty N schedule")
        if any(n <= 0 for n in self.schedule) or \
                any(x >= y for x, y in zip(self.schedule, self.schedule[1:])):
            raise rootsys.ConfigurationError(
                f"schedule must be strictly increasing and positive: "
                f"{self.schedule}")
        bad = [p for p in self.paths if p not in _PATHS]
        if bad or not self.paths:
            raise rootsys.ConfigurationError(
                f"paths must be a nonempty subset of {_PATHS}, got "
                f"{self.paths}")
        if self.fmt not in ("json", "csv"):
            raise rootsys.ConfigurationError(
                f"format must be json or csv, got {self.fmt!r}")

    @staticmethod
    def from_mapping(m):
        m = {str(k).lower(): v for k, v in m.items()}
        group = m.get("group")
        if not group:
            raise rootsys.ConfigurationError("config needs a group")
        rs = rootsys.build_root_system(group)
        lam = parse_weight(m.get("lambda", ""), rs.rank)
        a = CycleType.parse(str(m.get("a", "")))
        b = CycleType.parse(str(m.get("b", "")))
        schedule = parse_schedule(m.get("n", ""))
        f = parse_class_function(m.get("f", "1"), rs.rank)
        paths = tuple(p.strip() for p in
                      str(m.get("paths", ",".join(_PATHS))).split(",")
                      if p.strip())
        grid = m.get("grid")
        grid = "" if grid is None else str(grid).strip()
        grid_sizes = parse_grid(grid, rs.rank) if grid else None
        return ExperimentConfig(group=group, lam=lam, a=a, b=b,
                                schedule=schedule, f=f, paths=paths,
                                grid_sizes=grid_sizes,
                                out=m.get("out") or None,
                                fmt=m.get("format", "json"))

    @staticmethod
    def from_file(path):
        """Read a ``key = value`` config file ('#' starts a comment)."""
        mapping = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise rootsys.ConfigurationError(
                        f"{path}:{lineno}: expected key = value")
                key, val = line.split("=", 1)
                mapping[key.strip().lower()] = val.strip()
        return ExperimentConfig.from_mapping(mapping)

    def echo(self):
        return {
            "group": self.group,
            "lambda": list(self.lam),
            "a": list(self.a.exps),
            "b": list(self.b.exps),
            "N": list(self.schedule),
            "f": [[list(nu), c] for nu, c in
                  (self.f.terms if self.f else ())],
            "paths": list(self.paths),
            "grid": list(self.grid_sizes) if self.grid_sizes else None,
            "format": self.fmt,
        }


@dataclass(frozen=True)
class HypothesisVerdict:
    """Structured yes/no record of the leading-term hypotheses.

    ``vanishing_period`` is the smallest q >= 1 such that q * k_a * lam lies
    in the root lattice; the one-sided moment is identically zero whenever N
    is not a multiple of it.
    """
    regular: bool
    gcd_one_sided: int
    gcd_two_sided: int
    k_a: int
    k_b: int
    balanced: bool
    vanishing_period: int
    problems_one_sided: tuple
    problems_two_sided: tuple

    def to_dict(self):
        return {
            "regular": self.regular,
            "gcd_one_sided": self.gcd_one_sided,
            "gcd_two_sided": self.gcd_two_sided,
            "k_a": self.k_a,
            "k_b": self.k_b,
            "balanced": self.balanced,
            "vanishing_period": self.vanishing_period,
            "problems_one_sided": list(self.problems_one_sided),
            "problems_two_sided": list(self.problems_two_sided),
        }


def check_hypotheses(rs, lam, a, b=CycleType(())):
    """Check leading-term hypotheses without throwing on failures."""
    lam = check_dominant_integral(rs, lam)
    regular = is_regular(rs, lam)
    g1 = a.gcd_support
    g2 = math.gcd(a.gcd_support, b.gcd_support)
    k_a, k_b = a.weight, b.weight
    if k_a == 0:
        period = 1
    else:
        period = rootsys.order_mod_root_lattice(
            rs, tuple(k_a * c for c in lam))
    p1 = []
    p2 = []
    if not regular:
        p1.append("highest weight is not regular")
        p2.append("highest weight is not regular")
    if g1 != 1:
        p1.append(f"one-sided support gcd is {g1}, need 1")
    if g2 != 1:
        p2.append(f"combined support gcd is {g2}, need 1")
    if k_a != k_b:
        p2.append(f"unbalanced powers: k_a={k_a}, k_b={k_b}")
    return HypothesisVerdict(regular=regular, gcd_one_sided=g1,
                             gcd_two_sided=g2, k_a=k_a, k_b=k_b,
                             balanced=(k_a == k_b),
                             vanishing_period=period,
                             problems_one_sided=tuple(p1),
                             problems_two_sided=tuple(p2))


@dataclass
class ExperimentRow:
    n: int
    exact: object = None        # int, or float when f has float coefficients
    quad: float = None
    estimate: AsymptoticEstimate = None
    ratio: float = None
    abs_error: float = None
    notes: tuple = ()

    def to_dict(self):
        return {
            "N": self.n,
            "exact": self.exact,
            "quad": self.quad,
            "estimate": self.estimate.to_dict() if self.estimate else None,
            "ratio": self.ratio,
            "abs_error": self.abs_error,
            "notes": list(self.notes),
        }


@dataclass
class ConvergenceReport:
    config: dict
    hypotheses: HypothesisVerdict
    rows: list
    fitted_exponent: float = None
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings=False):
        out = {
            "config": self.config,
            "hypotheses": self.hypotheses.to_dict(),
            "rows": [r.to_dict() for r in self.rows],
            "fitted_exponent": self.fitted_exponent,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings=False):
        text = _json_text(self.to_dict(include_timings=include_timings))
        return text + "\n"

    def to_csv(self):
        lines = ["N,exact,quad,estimate,ratio,abs_error,notes"]
        for r in self.rows:
            est = repr(r.estimate.value) if r.estimate else ""
            cells = [str(r.n),
                     "" if r.exact is None else repr(r.exact),
                     "" if r.quad is None else repr(r.quad),
                     est,
                     "" if r.ratio is None else repr(r.ratio),
                     "" if r.abs_error is None else repr(r.abs_error),
                     "|".join(r.notes)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def render(self, fmt="json", include_timings=False):
        if fmt == "csv":
            return self.to_csv()
        return self.to_json(include_timings=include_timings)


def _log_abs(x):
    return math.log(abs(x)) if x else float("-inf")


def _exact_values(rs, lam, a, b, ns, f):
    """Exact moments at each n of ``ns``, with the class-function factor
    folded in, from one Klimyk chain per simple factor
    (:func:`charring.moment_sequence`).
    Yields per n the value or the :class:`charring.SupportCapExceeded`
    that refused it."""
    exact_coeffs = all(float(c).is_integer() for _, c in f.terms)
    for mults in charring.moment_sequence(rs, lam, a, b, ns,
                                          [nu for nu, _ in f.terms]):
        if isinstance(mults, charring.SupportCapExceeded):
            yield mults
        else:
            yield sum((int(c) if exact_coeffs else c) * mult
                      for (_, c), mult in zip(f.terms, mults))


# route -> the ExperimentRow field it fills
_ROUTES = {"exact": "exact", "quad": "quad", "asymptotic": "estimate"}


def route_value(path, rs, lam, a, b, n, f, grid_sizes=None):
    """Value of one route at index ``n``: the exact integer (a float when f
    has non-integer coefficients), the quadrature float, or the
    :class:`AsymptoticEstimate`.  Refusals propagate as typed errors.

    ``grid_sizes`` fixes the quadrature grid instead of the default one;
    the quadrature integrand with an empty ``b`` is the one-sided moment.
    A negative ``n`` is refused the same way on every route.
    """
    if n < 0:
        raise rootsys.ConfigurationError(
            f"power index N must be >= 0, got {n}")
    if path == "exact":
        # one chain of the scaled types, all Tr(g) factors first: the
        # factor order, and so every refusal, is that of
        # exact_moment(rs, lam, a.scaled(n), b.scaled(n))
        (value,) = _exact_values(rs, lam, a.scaled(n), b.scaled(n), (1,), f)
        if isinstance(value, charring.SupportCapExceeded):
            raise value
        return value
    if path == "quad":
        from . import torusquad  # the only route that needs numpy
        grid = torusquad.TorusGrid(sizes=grid_sizes) if grid_sizes else None
        return torusquad.quad_K_N(rs, lam, a, b, n, f=f, grid=grid)
    return _leading_term(rs, lam, a, b, n, f)


def _leading_term(rs, lam, a, b, n, f, peak=None):
    if b.exps:
        return leading_term_K(rs, lam, a, b, n, f=f, peak=peak)
    return leading_term_I(rs, lam, a, n, f=f, peak=peak)


def _quad_column(rs, lam, cfg, f):
    """Quadrature over the schedule from one :func:`torusquad.quad_sequence`
    call, which walks each simple factor's alcove once and shares each
    character synthesis across a band of rows; yields per N the value or
    the :class:`torusquad.GridError`.  Band tops and caller-grid rows equal
    :func:`route_value`'s bits, and the other rows equal them to
    roundoff."""
    from . import torusquad  # the only route that needs numpy
    grid = (torusquad.TorusGrid(sizes=cfg.grid_sizes) if cfg.grid_sizes
            else None)
    return torusquad.quad_sequence(rs, lam, cfg.a, cfg.b, cfg.schedule, f=f,
                                   grid=grid)


def _asymptotic_column(rs, lam, cfg, f, verdict):
    """Leading terms over the schedule.  When the hypotheses hold, the
    N-independent peak data (:func:`asymptotics.peak_data`, with the values
    of ``f`` at the center) is built once here, not once per row; otherwise
    every row refuses as it would alone.  Yields per N the estimate or the
    :class:`HypothesisError`."""
    problems = (verdict.problems_two_sided if cfg.b.exps
                else verdict.problems_one_sided)
    peak = None if problems else asymptotics.peak_data(rs, lam, f)
    for n in cfg.schedule:
        try:
            yield _leading_term(rs, lam, cfg.a, cfg.b, n, f, peak)
        except HypothesisError as exc:
            yield exc


def run_experiment(cfg):
    """Run all requested value routes over the N schedule."""
    rs = rootsys.build_root_system(cfg.group)
    lam = check_dominant_integral(rs, cfg.lam)
    f = cfg.f if cfg.f is not None else ClassFunction.one(rs.rank)
    verdict = check_hypotheses(rs, lam, cfg.a, cfg.b)
    timings = {p: 0.0 for p in cfg.paths}
    columns = {}
    if "exact" in cfg.paths:
        columns["exact"] = _exact_values(rs, lam, cfg.a, cfg.b, cfg.schedule,
                                         f)
    if "quad" in cfg.paths:
        columns["quad"] = _quad_column(rs, lam, cfg, f)
    if "asymptotic" in cfg.paths:
        columns["asymptotic"] = _asymptotic_column(rs, lam, cfg, f, verdict)
    rows = []
    for n in cfg.schedule:
        row = ExperimentRow(n=n)
        notes = []
        for path, column in columns.items():
            t0 = time.perf_counter()
            value = next(column)
            # each column yields only its own typed refusal
            if isinstance(value, Exception):
                notes.append(f"{path} skipped: {value}")
            else:
                setattr(row, _ROUTES[path], value)
            timings[path] += time.perf_counter() - t0

        ref = row.exact if row.exact is not None else row.quad
        if ref is not None and row.estimate is not None:
            est_log = row.estimate.log_abs_value()
            if est_log == float("-inf"):
                if ref == 0:
                    notes.append("estimate and reference both zero")
                else:
                    notes.append("estimate zero but reference nonzero")
            elif ref == 0:
                row.ratio = 0.0
                row.abs_error = 1.0
            else:
                sign = (1.0 if (ref > 0) == (row.estimate.pi_sum.real > 0)
                        else -1.0)
                row.ratio = sign * math.exp(_log_abs(ref) - est_log)
                row.abs_error = abs(row.ratio - 1.0)
        row.notes = tuple(notes)
        rows.append(row)

    fitted = fit_error_exponent([r.n for r in rows],
                                [r.abs_error for r in rows])
    return ConvergenceReport(config=cfg.echo(), hypotheses=verdict,
                             rows=rows, fitted_exponent=fitted,
                             timings=timings)


def fit_error_exponent(ns, errors):
    """Least-squares slope of log|error| vs log N over the schedule tail.

    Only the upper half of the schedule enters the fit, and only rows with a
    defined nonzero error; returns None with fewer than two usable points.
    """
    cut = ns[len(ns) // 2] if ns else 0
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errors)
           if n >= cut and e is not None and e > 0]
    if len(pts) < 2:
        return None
    import numpy as np  # polyfit fixes the bytes of the fitted exponent
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def write_report(report, cfg, include_timings=False):
    """Render and optionally write the report; returns the rendered text."""
    text = report.render(fmt=cfg.fmt, include_timings=include_timings)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
