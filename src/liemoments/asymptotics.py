"""Closed-form leading-order values for large-power trace moments.

The Laplace analysis of the torus integral concentrates at the center Z of
the group: every central element contributes a Gaussian peak whose constant
is a Mehta-type integral, weighted by the central characters of V_lam and of
the test class function there.  Z's characters are orthogonal, so the
weights sum exactly to |Z| times the sum of c dim V_nu over the terms
c chi_nu of f whose highest weight completes N k_a lam to the root lattice:
one integer test on classes mod the root lattice
(``rootsys.root_lattice_class``) per term, with no phase evaluated.  This
module assembles the constants exactly where possible (kappa factors and
determinants as Fractions, the central sum from integer classes) and in
floats only at the very end.  The peak's kappa(A_lam^-1 rho) and det A_lam
are closed forms in root data (``repweights.SecondMoment``), whose
lam-free parts are memoised per root datum: one integer pass over the
Casimir scales of one ``a_lambda`` call gives both, as one reduced
Fraction each, so A_lam's matrix goes through no Gaussian elimination.
A sweep is one :func:`leading_sequence` call, and a one-N leading term
its one-element schedule; it builds one :class:`PeakData` for all its N,
whose values are all computed when it is built: dim V_lam by the coroot
recurrence of ``repweights.weyl_dimension``, the classes of lam and of
each term of f with the term's c dim V_nu, and the floats of the exact
constants (log dim, kappa, log kappa, sqrt det A, log det A), each read
off the reduced Fractions.  So a row is float arithmetic and one class
test per term of f, and its estimate holds log |value| as a field.  The
value is the float product of its factors only when each factor and the
product are normal floats, else the exponential of the summed logs, so
no subnormal factor costs it bits; sqrt det A is inf past the float
range.  An estimate is an immutable named tuple, so a row builds it in
one tuple construction, with no attribute set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import rootsys
from .charring import CycleType
from .repweights import (_closed_forms, a_lambda, check_dominant_integral,
                         is_regular, weyl_dimension)


class HypothesisError(ValueError):
    """An input violates a hypothesis of the asymptotic formulas."""


@dataclass(frozen=True)
class ClassFunction:
    """Finite real-coefficient combination of irreducible characters.

    ``terms`` is a tuple of (highest weight, coefficient) pairs.  Only such
    band-limited class functions are supported anywhere in this package.
    """
    terms: tuple

    @staticmethod
    def one(rank):
        """The constant function 1 (the trivial character)."""
        return ClassFunction((((0,) * rank, 1.0),))


class AsymptoticEstimate(NamedTuple):
    """Factored leading-order value of a trace-moment sequence at index N.

    An immutable named tuple, as :class:`PeakData` is: it compares, hashes
    and unpacks as the tuple of its fields, in the order below.

    value        -- the leading term itself: exactly 0.0 when pi_sum is,
                    +-inf past the float range
    log_dim_power-- N * (number of factors) * log dim
    kappa_term   -- kappa(A^{-1} rho), exact
    det_a        -- det A, exact
    pi_sum       -- the central sum, a real float: |Z| times the sum of
                    c dim V_nu over the terms of f whose class completes
                    that of N k_a lam (one-sided; 0 two-sided) to 0 mod the
                    root lattice, in term order; exactly 0.0 when no term
                    does
    prefactor    -- (2 pi)^d / ((2 pi l N)^{dim G / 2} sqrt(det A)); 0.0
                    below the float range
    log_abs      -- log |value|, finite past the float range; -inf when the
                    value is 0
    """
    value: float
    log_dim_power: float
    kappa_term: Fraction
    det_a: Fraction
    pi_sum: float
    prefactor: float
    N: int
    log_abs: float

    def log_abs_value(self):
        """log |value| computed in log space; -inf when the value is 0."""
        return self.log_abs

    def to_dict(self):
        """Plain fields for strict JSON: a value past the float range is
        None (log_abs_value carries its magnitude), and so is the log of a
        zero value."""
        log_abs = self.log_abs_value()
        return {
            "value": self.value if math.isfinite(self.value) else None,
            "log_abs_value": log_abs if math.isfinite(log_abs) else None,
            "log_dim_power": self.log_dim_power,
            "kappa_term": str(self.kappa_term),
            "det_a": str(self.det_a),
            "pi_sum_re": self.pi_sum,
            "pi_sum_im": 0.0,
            "prefactor": self.prefactor,
            "N": self.N,
        }


def _log_fraction(fr):
    """log of a positive Fraction from its numerator and denominator, so
    it stays finite where ``float(fr)`` would not."""
    return math.log(fr.numerator) - math.log(fr.denominator)


class PeakData(NamedTuple):
    """The N-independent data of the Laplace peaks at the center."""
    dim: int              # dim V_lam
    kappa_term: Fraction  # kappa(A_lam^{-1} rho)
    det_a: Fraction       # det A_lam
    lam_class: tuple      # rootsys.root_lattice_class of lam
    f_classes: tuple      # (class of nu, c * dim V_nu) per term c chi_nu of f
    floats: tuple         # log dim, kappa, log kappa, sqrt det A, log det A


def peak_data(rs, lam, f=None):
    """:class:`PeakData` of ``(rs, lam)`` and the class function ``f``
    (default 1).  None of it depends on N, so :func:`leading_sequence`
    builds it once for all its rows.

    ``kappa_term`` and ``det_a`` are the closed forms of
    :class:`repweights.SecondMoment`, from one :func:`a_lambda` call and
    one integer pass over its scales: no elimination of A_lam's matrix,
    and ValueError("matrix is singular") when lam vanishes on a simple
    factor.  The classes mod the root lattice of lam
    and of each term of f, with the term's c dim V_nu, are all a row needs
    for its central sum (:func:`_central_sum`).  ``lam`` and every highest
    weight of ``f`` are checked here, by their Weyl dimensions, before any
    class is taken; each refusal is a ConfigurationError."""
    f = ClassFunction.one(rs.rank) if f is None else f
    sm = a_lambda(rs, lam)
    dim = weyl_dimension(rs, lam)
    kap, det = _closed_forms(sm)
    weights = [_term_weight(c, weyl_dimension(rs, nu)) for nu, c in f.terms]
    classes = (rootsys.root_lattice_class(rs, nu) for nu, _ in f.terms)
    return PeakData(dim, kap, det, rootsys.root_lattice_class(rs, lam),
                    tuple(zip(classes, weights)),
                    (math.log(dim), float(kap), _log_fraction(kap),
                     _sqrt_or_inf(det), _log_fraction(det)))


def _term_weight(c, dim):
    """c dim V_nu as a float: +-inf where dim V_nu alone is past the float
    range, and 0.0 there when c is 0."""
    try:
        return c * dim
    except OverflowError:
        return math.copysign(math.inf, c) if c else 0.0


def _sqrt_or_inf(fr):
    """sqrt of a positive Fraction, and inf past the float range."""
    try:
        return math.sqrt(fr)
    except OverflowError:
        return math.inf


def _central_sum(rs, peak, k):
    """|Z| times the sum, in term order, of c dim V_nu over the terms of f
    with k lam + nu in the root lattice: the sum over the center of the
    phase of the k-th dilate of lam times f, by the orthogonality of Z's
    characters.  A real float, exactly 0.0 when no term survives; a sum
    past the float range is refused with :class:`HypothesisError`."""
    den = rootsys.scaled_cartan_inv(rs)[0]
    total = 0.0
    for cls, weight in peak.f_classes:
        if not any((k * l + c) % den for l, c in zip(peak.lam_class, cls)):
            total += weight
    total *= rs.center.order
    if not math.isfinite(total):
        raise HypothesisError(
            "the terms of f take the central sum past the float range; "
            "refusing rather than return a non-finite leading term")
    return total


def _leading_core(rs, num_factors, l_total, pi_sum, n, peak):
    """Shared assembly for the one- and two-sided leading terms: float
    arithmetic on the peak's floats, which do not depend on N."""
    log_dim, kappa, log_kappa, sqrt_det, log_det = peak.floats
    d = rs.num_positive_roots
    try:
        log_dim_power = n * num_factors * log_dim
    except OverflowError:   # N (|a| + |b|) is past the float range
        log_dim_power = math.inf
    if log_dim_power == math.inf:
        raise HypothesisError(
            "N (|a| + |b|) log dim V_lam is past the float range; refusing "
            "rather than return a non-finite leading term")
    try:
        prefactor = ((2 * math.pi) ** d
                     / ((2 * math.pi * l_total * n) ** (rs.dim_group / 2)
                        * sqrt_det))
    except OverflowError:
        prefactor = 0.0
    normal = sys.float_info.min
    if prefactor >= normal:
        log_prefactor = math.log(prefactor)
    else:
        # (2 pi l N)^{dim G / 2} sqrt(det A) is past the float range (E8
        # from N = 46): the prefactor comes from log space, and so does
        # 2 pi l N where it is past the float range too
        scale = 2 * math.pi * l_total * n
        log_scale = (math.log(scale) if math.isfinite(scale)
                     else math.log(2 * math.pi) + math.log(l_total * n))
        log_prefactor = (d * math.log(2 * math.pi)
                         - rs.dim_group / 2 * log_scale - log_det / 2)
        prefactor = math.exp(log_prefactor)
    # log |dim^{N k} * prefactor * kappa * pi_sum| from its logs; -inf at
    # pi_sum = 0
    log_abs = (log_dim_power + log_prefactor + log_kappa
               + math.log(abs(pi_sum)) if pi_sum else -math.inf)
    value = math.nan
    if min(prefactor, kappa, abs(pi_sum)) >= normal:
        try:
            value = math.exp(log_dim_power) * prefactor * kappa * pi_sum
        except OverflowError:
            pass
    if not normal <= abs(value) < math.inf:
        # a factor or the product is past the float range or subnormal,
        # while the value need not be (dim^N for E8 rho from N = 9; kappa
        # for E8 36 rho, whose subnormal bits would cost the product its
        # precision): add the logs instead
        try:
            value = (math.copysign(math.exp(log_abs), pi_sum) if pi_sum
                     else 0.0)
        except OverflowError:
            value = math.copysign(math.inf, pi_sum)
    return AsymptoticEstimate(value, log_dim_power, peak.kappa_term,
                              peak.det_a, pi_sum, prefactor, n, log_abs)


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
        """The fields by name; the problems stay tuples, which JSON writes
        as lists."""
        return dict(vars(self))


def check_hypotheses(rs, lam, a, b=CycleType(())):
    """The hypotheses of :func:`leading_term_I` and :func:`leading_term_K`
    on ``(lam, a, b)``, reported without raising; N >= 1 is not among
    them."""
    lam = check_dominant_integral(rs, lam)
    regular = is_regular(rs, lam)
    g1 = a.gcd_support
    g2 = math.gcd(a.gcd_support, b.gcd_support)
    k_a, k_b = a.weight, b.weight
    p1 = [] if regular else ["highest weight is not regular"]
    p2 = list(p1)
    if g1 != 1:
        p1.append(f"one-sided support gcd is {g1}, need 1")
    if g2 != 1:
        p2.append(f"combined support gcd is {g2}, need 1")
    if k_a != k_b:
        p2.append(f"unbalanced powers: k_a={k_a}, k_b={k_b}")
    return HypothesisVerdict(
        regular=regular, gcd_one_sided=g1, gcd_two_sided=g2, k_a=k_a,
        k_b=k_b, balanced=(k_a == k_b),
        vanishing_period=rootsys.order_mod_root_lattice(
            rs, tuple(k_a * c for c in lam)),
        problems_one_sided=tuple(p1), problems_two_sided=tuple(p2))


def _require_hypotheses(rs, lam, a, b, n, two_sided):
    """Raise :class:`HypothesisError` on the first hypothesis of the
    leading term at ``n`` that fails: regularity, N >= 1, balance
    (two-sided only), then gcd 1 on the supported powers."""
    if not is_regular(rs, lam):
        raise HypothesisError(
            f"highest weight {lam} is not regular (every coordinate must be "
            f">= 1) — the Laplace peaks would degenerate")
    if n < 1:
        raise HypothesisError(f"index N must be >= 1, got {n}")
    if two_sided and a.weight != b.weight:
        raise HypothesisError(
            f"total powers must balance: k_a = {a.weight} != k_b = "
            f"{b.weight}")
    g = math.gcd(a.gcd_support, b.gcd_support)
    if g != 1:
        powers = f"{a.support()} u {b.support()}" if two_sided else a.support()
        raise HypothesisError(
            f"supported powers {powers} must have gcd 1, got gcd {g}")


def leading_sequence(rs, lam, a, b, ns, f=None):
    """The leading term of :func:`leading_term_K` at each N of ``ns``, or
    of :func:`leading_term_I` when ``b`` is empty.  ``lam`` is checked
    once, each row's hypotheses at its N, and :func:`peak_data` is built
    at the first row that passes them; yields per N the estimate or the
    :class:`HypothesisError` of the one-N call."""
    return _sequence(rs, lam, a, b, ns, f, bool(b.exps))


def _sequence(rs, lam, a, b, ns, f, two_sided):
    lam = check_dominant_integral(rs, lam)
    peak = None
    for n in ns:
        try:
            _require_hypotheses(rs, lam, a, b, n, two_sided)
            peak = peak or peak_data(rs, lam, f)
            # k_a = k_b: the phases of lam cancel, so only the terms of f
            # in the root lattice survive
            pi_sum = _central_sum(rs, peak, 0 if two_sided else n * a.weight)
            row = _leading_core(rs, a.size + b.size, a.quad + b.quad, pi_sum,
                                n, peak)
        except HypothesisError as exc:
            row = exc
        yield row


def _one_row(rs, lam, a, b, n, f, two_sided):
    """The one-element schedule of :func:`_sequence`, raising its refusal."""
    (est,) = _sequence(rs, lam, a, b, (n,), f, two_sided)
    if isinstance(est, HypothesisError):
        raise est
    return est


def leading_term_I(rs, lam, a, n, f=None):
    """Leading term of the one-sided moment with exponents N * a.

    Requires a regular highest weight and gcd 1 on the supported powers of
    the cycle type; ``f`` defaults to the constant class function 1.
    """
    return _one_row(rs, lam, a, CycleType(()), n, f, False)


def leading_term_K(rs, lam, a, b, n, f=None):
    """Leading term of the two-sided (conjugate-balanced) moment.

    Requires k_a = k_b (else the phases do not cancel and the scaling is
    different; an empty ``b`` is refused so) and gcd 1 over the union of
    supported powers.
    """
    return _one_row(rs, lam, a, b, n, f, True)


def biane_dimension_estimate(rs, lam, n):
    """Leading-order dimension of the invariant subspace of the N-th power:
    the leading term of I_N with a = (1), a float (inf past its range).

    Valid for regular highest weights lying in the root lattice (otherwise
    the center characters make the count oscillate in N).
    """
    lam = check_dominant_integral(rs, lam)
    _require_hypotheses(rs, lam, CycleType((1,)), CycleType(()), n, False)
    if rootsys.order_mod_root_lattice(rs, lam) != 1:
        raise HypothesisError(
            f"highest weight {lam} must lie in the root lattice")
    return leading_term_I(rs, lam, CycleType((1,)), n).value
