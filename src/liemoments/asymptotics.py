"""Closed-form leading-order values for large-power trace moments.

The Laplace analysis of the torus integral concentrates at the center of the
group: every central element contributes a Gaussian peak whose constant is a
Mehta-type integral, weighted by a root of unity determined by the highest
weight and by the value of the test class function there.  This module
assembles those constants exactly where possible (kappa factors and
determinants as Fractions, central phases as exact roots of unity) and in
floats only at the very end.  The peak's kappa(A_lam^-1 rho) and det A_lam
are closed forms in root data (``repweights.SecondMoment``), whose
lam-free parts are memoised per root datum; A_lam's matrix is never
eliminated, and only the Mehta closed forms eliminate a caller's form.
A sweep builds one :class:`PeakData` for all its N: the values of f and
the pairings <lam, psi> at the central elements, and the floats derived
from the exact constants (log dim, kappa, log kappa, sqrt det A, log det A)
are taken once per sweep, so a row is float arithmetic and one integer
gcd per central element, and carries its log |value| from the start.
"""

from __future__ import annotations

import cmath
import decimal
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import rootsys
from .charring import CycleType
from .exactla import eliminate
from .repweights import (a_lambda, check_dominant_integral, is_regular,
                         weyl_dimension)


class HypothesisError(ValueError):
    """An input violates a hypothesis of the asymptotic formulas."""


def _unit_phase(t):
    """exp(2 pi i t) for rational t, exact at the lattice points that matter
    (halves and quarters); cmath otherwise."""
    t = Fraction(t)
    return _root_of_unity(t.numerator, t.denominator)


def _root_of_unity(num, den):
    """exp(2 pi i num / den) for num / den in lowest terms, den > 0."""
    if den == 1:
        return complex(1, 0)
    if den == 2:
        return complex(-1, 0)
    # num / den mod 1 is (num mod den) / den, still in lowest terms, and
    # float(Fraction) is that true division
    num %= den
    if den == 4:
        return complex(0, 1) if num == 1 else complex(0, -1)
    return cmath.exp(2j * math.pi * (num / den))


def nu_character(rs, lam, m, psi):
    """Phase of the central element ``psi`` on the m-th dilate of ``lam``.

    ``psi`` is a covector representing an element of the center; the value is
    exp(2 pi i m <lam, psi>), a root of unity.
    """
    return _unit_phase(m * rootsys.pairing(lam, psi))


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

    def validated(self, rs):
        for nu, _ in self.terms:
            check_dominant_integral(rs, nu)
        return self

    def central_value(self, rs, psi):
        """Value at the central element psi: sum c * dim * phase."""
        (out,) = _central_values(rs, self, (psi,))
        return out


def _central_values(rs, f, center):
    """:meth:`ClassFunction.central_value` of ``f`` at each element of
    ``center``, with each term's Weyl dimension taken once."""
    dims = [weyl_dimension(rs, nu) for nu, _ in f.terms]
    out = []
    for psi in center:
        value = complex(0, 0)
        for (nu, c), dim in zip(f.terms, dims):
            phase = _unit_phase(rootsys.pairing(nu, psi))
            value += c * dim * phase
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Factored leading-order value of a trace-moment sequence at index N.

    value        -- the leading term itself (may be 0 when the central phases
                    cancel, or +-inf past the float range)
    log_dim_power-- N * (number of factors) * log dim
    kappa_term   -- kappa(A^{-1} rho), exact
    det_a        -- det A, exact
    pi_sum       -- complex sum over the center of phase * f value
    prefactor    -- (2 pi)^d / ((2 pi l N)^{dim G / 2} sqrt(det A)); 0.0
                    below the float range
    log_prefactor-- log of the prefactor, finite where it is 0.0
    """
    value: float
    log_dim_power: float
    kappa_term: Fraction
    det_a: Fraction
    pi_sum: complex
    prefactor: float
    log_prefactor: float
    N: int

    def log_abs_value(self):
        """log |value| computed in log space; -inf when the value is 0.
        The leading terms take it once, when they build the estimate."""
        return self._log_abs_value

    @cached_property
    def _log_abs_value(self):
        # an estimate not built by a leading term (by hand, or by
        # dataclasses.replace) takes its log from its fields
        return _log_abs(self.log_dim_power, self.log_prefactor,
                        _log_fraction(self.kappa_term), self.pi_sum.real)

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
            "pi_sum_re": self.pi_sum.real,
            "pi_sum_im": self.pi_sum.imag,
            "prefactor": self.prefactor,
            "N": self.N,
        }


def _log_fraction(fr):
    fr = Fraction(fr)
    if fr <= 0:
        raise ValueError(f"log of non-positive fraction {fr}")
    return math.log(fr.numerator) - math.log(fr.denominator)


def _log_abs(log_dim_power, log_prefactor, log_kappa, re):
    """log |dim^{N k} * prefactor * kappa * re| from its logs; -inf at
    re = 0."""
    if re == 0:
        return float("-inf")
    return log_dim_power + log_prefactor + log_kappa + math.log(abs(re))


class _PeakFields(NamedTuple):
    dim: int              # dim V_lam
    kappa_term: Fraction  # kappa(A_lam^{-1} rho)
    det_a: Fraction       # det A_lam
    f_at_center: tuple    # f at each element of rs.center.elements
    lam_at_center: tuple  # <lam, psi> at each element psi, Fractions


class PeakData(_PeakFields):
    """The N-independent data of the Laplace peaks at the center: five
    exact fields.  The floats a leading-term row reads are derived from
    them on the first row and kept on the instance, so a sweep that passes
    one PeakData to every row derives them once."""

    @cached_property
    def _floats(self):
        """``(log dim, float(kappa), log kappa, sqrt(det A), log det A)``."""
        return (math.log(self.dim), float(self.kappa_term),
                _log_fraction(self.kappa_term), math.sqrt(self.det_a),
                _log_fraction(self.det_a))

    @cached_property
    def _pairs(self):
        """Each pairing <lam, psi> as its (numerator, denominator) in
        lowest terms."""
        return tuple((p.numerator, p.denominator)
                     for p in self.lam_at_center)


def peak_data(rs, lam, f=None):
    """:class:`PeakData` of ``(rs, lam)`` and the class function ``f``
    (default 1).  None of it depends on N, so a caller evaluating many N
    builds it once and passes it to the leading terms as ``peak``.

    ``kappa_term`` and ``det_a`` are the closed forms of
    :class:`repweights.SecondMoment`, from one :func:`a_lambda` call: no
    elimination of A_lam's matrix.  ``lam_at_center`` holds each pairing
    <lam, psi>, so a one-sided row takes its central phases as
    exp(2 pi i N k_a <lam, psi>) with no pairing of its own."""
    f = ClassFunction.one(rs.rank) if f is None else f
    sm = a_lambda(rs, lam)
    center = rs.center.elements
    return PeakData(weyl_dimension(rs, lam), sm.kappa_rho, sm.det,
                    _central_values(rs, f, center),
                    tuple(rootsys.pairing(lam, psi) for psi in center))


def _leading_core(rs, num_factors, l_total, pi_sum, n, peak):
    """Shared assembly for the one- and two-sided leading terms: float
    arithmetic on the peak's floats, which do not depend on N."""
    log_dim, kappa, log_kappa, sqrt_det, log_det = peak._floats
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
    re = pi_sum.real
    log_abs = _log_abs(log_dim_power, log_prefactor, log_kappa, re)
    value = math.nan
    if direct:
        try:
            value = math.exp(log_dim_power) * prefactor * kappa * re
        except OverflowError:
            pass
    if not math.isfinite(value):
        # a factor alone is past the float range while the value need not
        # be (dim^N for E8 rho from N = 9): add the logs instead
        try:
            value = math.copysign(math.exp(log_abs), re) if re else 0.0
        except OverflowError:
            value = math.copysign(math.inf, re)
    est = AsymptoticEstimate(value=value, log_dim_power=log_dim_power,
                             kappa_term=peak.kappa_term, det_a=peak.det_a,
                             pi_sum=pi_sum, prefactor=prefactor,
                             log_prefactor=log_prefactor, N=n)
    object.__setattr__(est, "_log_abs_value", log_abs)
    return est


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


def _checked_peak(rs, lam, f):
    f = (ClassFunction.one(rs.rank) if f is None else f).validated(rs)
    return peak_data(rs, lam, f)


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
    peak = _checked_peak(rs, lam, f) if peak is None else peak
    # the phase exp(2 pi i N k_a <lam, psi>) of each central element, with
    # N k_a <lam, psi> reduced to lowest terms in integers
    k = n * a.weight
    pi_sum = complex(0, 0)
    for (num, den), f_psi in zip(peak._pairs, peak.f_at_center):
        m = k * num
        g = math.gcd(m, den)
        pi_sum += _root_of_unity(m // g, den // g) * f_psi
    return _leading_core(rs, a.size, a.quad, pi_sum, n, peak)


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
    peak = _checked_peak(rs, lam, f) if peak is None else peak
    pi_sum = sum(peak.f_at_center, complex(0, 0))
    return _leading_core(rs, a.size + b.size, a.quad + b.quad, pi_sum, n,
                         peak)


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
