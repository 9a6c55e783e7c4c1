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
Fraction each.  A_lam's matrix is never eliminated, and only the Mehta
closed forms eliminate a caller's form.  A sweep builds one
:class:`PeakData` for all its N, whose values are all computed when it is
built: dim V_lam by the coroot recurrence of ``repweights.weyl_dimension``,
the classes of lam and of each term of f with the term's c dim V_nu, and
the floats of the exact constants (log dim, kappa, log kappa, sqrt det A,
log det A), each read off the reduced Fractions.  So a row is float
arithmetic and one class test per term of f, and its estimate holds
log |value| as a field.  An estimate is an immutable named tuple, so a row
builds it in one tuple construction, with no attribute set.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from . import rootsys
from .charring import CycleType
from .exactla import eliminate
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
    (default 1).  None of it depends on N, so a caller evaluating many N
    builds it once and passes it to the leading terms as ``peak``.

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
    weights = [c * weyl_dimension(rs, nu) for nu, c in f.terms]
    classes = (rootsys.root_lattice_class(rs, nu) for nu, _ in f.terms)
    return PeakData(dim, kap, det, rootsys.root_lattice_class(rs, lam),
                    tuple(zip(classes, weights)),
                    (math.log(dim), float(kap), _log_fraction(kap),
                     math.sqrt(det), _log_fraction(det)))


def _central_sum(rs, peak, k):
    """|Z| times the sum, in term order, of c dim V_nu over the terms of f
    with k lam + nu in the root lattice: the sum over the center of the
    phase of the k-th dilate of lam times f, by the orthogonality of Z's
    characters.  A real float, exactly 0.0 when no term survives."""
    den = rootsys.scaled_cartan_inv(rs)[0]
    total = 0.0
    for cls, weight in peak.f_classes:
        if not any((k * l + c) % den for l, c in zip(peak.lam_class, cls)):
            total += weight
    return rs.center.order * total


def _leading_core(rs, num_factors, l_total, pi_sum, n, peak):
    """Shared assembly for the one- and two-sided leading terms: float
    arithmetic on the peak's floats, which do not depend on N."""
    log_dim, kappa, log_kappa, sqrt_det, log_det = peak.floats
    d = rs.num_positive_roots
    log_dim_power = n * num_factors * log_dim
    try:
        prefactor = ((2 * math.pi) ** d
                     / ((2 * math.pi * l_total * n) ** (rs.dim_group / 2)
                        * sqrt_det))
    except OverflowError:
        prefactor = 0.0
    direct = prefactor >= sys.float_info.min
    if direct:
        log_prefactor = math.log(prefactor)
    else:
        # (2 pi l N)^{dim G / 2} sqrt(det A) is past the float range (E8
        # from N = 46): the prefactor comes from log space
        log_prefactor = (d * math.log(2 * math.pi)
                         - rs.dim_group / 2 * math.log(2 * math.pi
                                                       * l_total * n)
                         - log_det / 2)
        prefactor = math.exp(log_prefactor)
    # log |dim^{N k} * prefactor * kappa * pi_sum| from its logs; -inf at
    # pi_sum = 0
    log_abs = (log_dim_power + log_prefactor + log_kappa
               + math.log(abs(pi_sum)) if pi_sum else -math.inf)
    value = math.nan
    if direct:
        try:
            value = math.exp(log_dim_power) * prefactor * kappa * pi_sum
        except OverflowError:
            pass
    if not math.isfinite(value):
        # a factor alone is past the float range while the value need not
        # be (dim^N for E8 rho from N = 9): add the logs instead
        try:
            value = (math.copysign(math.exp(log_abs), pi_sum) if pi_sum
                     else 0.0)
        except OverflowError:
            value = math.copysign(math.inf, pi_sum)
    return AsymptoticEstimate(value, log_dim_power, peak.kappa_term,
                              peak.det_a, pi_sum, prefactor, n, log_abs)


def _check_common(rs, lam, n, peak=None):
    # a caller's peak data was built from a checked lam
    if peak is None:
        lam = check_dominant_integral(rs, lam)
    if not is_regular(rs, lam):
        raise HypothesisError(
            f"highest weight {lam} is not regular (every coordinate must be "
            f">= 1) — the Laplace peaks would degenerate")
    if n < 1:
        raise HypothesisError(f"index N must be >= 1, got {n}")
    return lam


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


def leading_term_I(rs, lam, a, n, f=None, peak=None):
    """Leading term of the one-sided moment with exponents N * a.

    Requires a regular highest weight and gcd 1 on the supported powers of
    the cycle type; ``f`` defaults to the constant class function 1.
    ``peak``, when given, must be :func:`peak_data` of ``(rs, lam, f)``;
    ``lam`` and ``f`` are then not checked again, only the hypotheses.
    """
    lam = _check_common(rs, lam, n, peak)
    if a.gcd_support != 1:
        raise HypothesisError(
            f"supported powers {a.support()} must have gcd 1, got gcd "
            f"{a.gcd_support}")
    peak = peak_data(rs, lam, f) if peak is None else peak
    return _leading_core(rs, a.size, a.quad,
                         _central_sum(rs, peak, n * a.weight), n, peak)


def leading_term_K(rs, lam, a, b, n, f=None, peak=None):
    """Leading term of the two-sided (conjugate-balanced) moment.

    Requires k_a = k_b (else the phases do not cancel and the scaling is
    different) and gcd 1 over the union of supported powers.  ``peak`` is
    as for :func:`leading_term_I`.
    """
    lam = _check_common(rs, lam, n, peak)
    if a.weight != b.weight:
        raise HypothesisError(
            f"total powers must balance: k_a = {a.weight} != k_b = "
            f"{b.weight}")
    g = math.gcd(a.gcd_support, b.gcd_support)
    if g != 1:
        raise HypothesisError(
            f"supported powers {a.support()} u {b.support()} must have "
            f"gcd 1, got gcd {g}")
    peak = peak_data(rs, lam, f) if peak is None else peak
    # k_a = k_b: the phases of lam cancel, so only the terms of f in the
    # root lattice survive
    return _leading_core(rs, a.size + b.size, a.quad + b.quad,
                         _central_sum(rs, peak, 0), n, peak)


def biane_dimension_estimate(rs, lam, n):
    """Leading-order dimension of the invariant subspace of the N-th power:
    the leading term of I_N with a = (1), a float (inf past its range).

    Valid for regular highest weights lying in the root lattice (otherwise
    the center characters make the count oscillate in N).
    """
    lam = _check_common(rs, lam, n)
    if rootsys.order_mod_root_lattice(rs, lam) != 1:
        raise HypothesisError(
            f"highest weight {lam} must lie in the root lattice")
    return leading_term_I(rs, lam, CycleType((1,)), n).value


# Entries may be floats: commuting with the Weyl action is checked to this
# relative tolerance, so a float multiple of an invariant form passes.
_EQUIVARIANCE_TOL = 1e-9


def _integer_form(h):
    """``(L, L h)``: the lcm L of the denominators of the int or Fraction
    entries of ``h``, and ``h`` scaled by it to integers."""
    den = math.lcm(*(x.denominator for row in h for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in h]


def weyl_equivariant(rs, h):
    """Whether the form ``h`` (covectors -> weights; int or Fraction
    entries) commutes with the Weyl action: h o s_i equals s_i^* o h for
    every simple reflection, to the relative tolerance ``_EQUIVARIANCE_TOL``.

    In these coordinates the weight-side reflection matrix is the transpose
    of the covector-side one, so the condition is  h S_i = S_i^T h.  With
    c_k = cartan[k][i], entry (j, k) of  h S_i - S_i^T h  is
    c_j h[i][k] - h[j][i] c_k.  It is checked exactly, in integers, on ``h``
    scaled by the common denominator of its entries.
    """
    return _scaled_equivariant(rs, *_integer_form(h))


def _scaled_equivariant(rs, den, m):
    """:func:`weyl_equivariant` of the form ``m / den``, for ``(den, m)``
    from :func:`_integer_form`."""
    n = rs.rank
    # the differences are integers, so comparing with the floor is exact
    limit = math.floor(Fraction(_EQUIVARIANCE_TOL) * max(
        den, max(abs(x) for row in m for x in row)))
    for i in range(n):
        c = [rs.cartan[k][i] for k in range(n)]
        for j in range(n):
            for k in range(n):
                if abs(c[j] * m[i][k] - m[j][i] * c[k]) > limit:
                    return False
    return True


def _checked_form(rs, h):
    """The quadratic form ``h`` as an exact rank x rank Fraction matrix,
    h^-1 rho and det h, from the elimination that decides definiteness.

    ``Fraction(x)`` is exact for int, Fraction and float entries alike, so
    nothing is rounded here.  The form is scaled once to L h, in integers,
    for L the lcm of the entries' denominators; the equivariance and
    symmetry checks and the elimination all run on L h, and
    h^-1 rho = L (L h)^-1 rho and det h = det(L h) / L^rank.  Refused with
    ValueError, in this order: a shape other than rank x rank, a form that
    does not commute with the Weyl action, one that is not symmetric, and
    one that is not positive definite.
    """
    try:
        m = [[Fraction(x) for x in row] for row in h]
    except (OverflowError, ValueError):
        raise ValueError("form entries must be finite numbers") from None
    n = len(m)
    if n != rs.rank or any(len(r) != n for r in m):
        raise ValueError(f"form must be {rs.rank} x {rs.rank}")
    den, scaled = _integer_form(m)
    if not _scaled_equivariant(rs, den, scaled):
        raise ValueError(
            "form does not commute with the Weyl action; the kappa closed "
            "form does not apply")
    if any(scaled[i][j] != scaled[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    done = eliminate(scaled, (rs.rho,))
    if done is None:
        raise ValueError("matrix must be positive definite")
    minors, (x,) = done
    return m, tuple(den * c for c in x), Fraction(minors[-1], den ** n)


def _mehta_parts(rs, h):
    """kappa(h^{-1} rho) and det h, exact, for a form that passes
    :func:`_checked_form`; one elimination gives both."""
    _, x, det = _checked_form(rs, h)
    return rootsys.kappa(rs, x), det


def mehta_closed_form(rs, h):
    """Closed form of the Gaussian integral of kappa^2 with form ``h``:
    (2 pi)^{rank/2} |W| kappa(h^{-1} rho) / sqrt(det h).

    The closed form is an identity only for forms commuting with the Weyl
    action (every Hessian produced by the theory is a positive multiple of
    the invariant form per simple factor), so anything else is refused.
    kappa and det h are exact; the value is rounded once, at the end.
    """
    kap, det = _mehta_parts(rs, h)
    return ((2 * math.pi) ** (rs.rank / 2) * rs.weyl_order
            * float(kap) / math.sqrt(det))


def _decimal(q):
    """The Fraction ``q`` in the current decimal context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


# Forty digits keep the powers of sqrt(2 pi) (exponent 4d + rank, about 1000
# for E8 x E8) far below float resolution; the exponent range is unbounded.
_LEADING_CONTEXT = decimal.Context(prec=40, Emax=decimal.MAX_EMAX,
                                   Emin=decimal.MIN_EMIN)


def vanish_leading_constant(rs, h, g0, phi0, n):
    """Leading constant of a torus integral with vanishing-order amplitude.

    For an integrand g * e^{N Phi} whose amplitude vanishes like kappa^2 at
    the peak with Hessian form ``h``, the peak contributes
    (2 pi / N)^{dim G / 2} (2 pi)^d g0 e^{N phi0} |W| kappa(h^{-1} rho)
    / sqrt(det h), that is (2 pi)^{2d} N^{-dim G / 2} g0 e^{N phi0} times
    :func:`mehta_closed_form`.  The factors are multiplied in decimal
    arithmetic with no exponent limit and rounded to float once, so only a
    final value past the float range raises OverflowError.
    """
    if n < 1:
        raise HypothesisError(f"index N must be >= 1, got {n}")
    kap, det = _mehta_parts(rs, h)
    with decimal.localcontext(_LEADING_CONTEXT):
        value = (Decimal(2 * math.pi).sqrt()
                 ** (4 * rs.num_positive_roots + rs.rank)
                 / Decimal(n).sqrt() ** rs.dim_group
                 * Decimal(float(g0)) * Decimal(float(n * phi0)).exp()
                 * rs.weyl_order * _decimal(kap) / _decimal(det).sqrt())
    out = float(value)
    if math.isinf(out):
        raise OverflowError(
            f"leading constant {value:.6e} is past the float range")
    return out
