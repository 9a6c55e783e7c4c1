import json
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments.asymptotics import (ClassFunction, HypothesisError,
                                    biane_dimension_estimate,
                                    leading_sequence, leading_term_I,
                                    leading_term_K, peak_data)
from liemoments import (asymptotics, charring, exactla, repweights, rootsys,
                        torusquad)
from liemoments.charring import CycleType
from liemoments.cli import main
from liemoments.repweights import a_lambda, weyl_dimension
from liemoments.rootsys import build_root_system, kappa

import oracles
from oracles import (_checked_form, _mehta_parts, central_value,
                     mehta_closed_form, nu_character, vanish_leading_constant,
                     weyl_equivariant)


def test_cycle_constants():
    # (number of factors, total power, quadratic weight), read by the
    # leading-term assembly straight from the cycle type
    for a, want in ((CycleType((2, 0, 1)), (3, 5, 11)),
                    (CycleType(()), (0, 0, 0))):
        assert (a.size, a.weight, a.quad) == want


def test_nu_character_a1():
    rs = build_root_system("A1")
    psi = (Fraction(1, 2),)
    assert nu_character(rs, (1,), 3, psi) == -1
    assert nu_character(rs, (1,), 4, psi) == 1
    assert nu_character(rs, (1,), 0, psi) == 1
    assert nu_character(rs, (2,), 3, psi) == 1


def test_nu_character_trivial_on_root_lattice():
    rs = build_root_system("A2")
    for psi in rs.center.elements:
        assert nu_character(rs, (1, 1), 5, psi) == 1


def test_class_function_one():
    rs = build_root_system("A2")
    f = ClassFunction.one(2)
    assert f.terms == (((0, 0), 1.0),)
    assert central_value(rs, f, rs.center.elements[0]) == 1
    for psi in rs.center.elements:
        assert central_value(rs, f, psi) == 1


def test_class_function_central_values():
    rs = build_root_system("A2")
    f = ClassFunction((((1, 0), 2.0),))
    vals = [central_value(rs, f, psi) for psi in rs.center.elements]
    assert vals[0] == 6.0
    # the nontrivial central elements multiply the standard character by the
    # two primitive cube roots of unity, so the three values sum to zero
    assert abs(sum(vals)) < 1e-12
    g = ClassFunction((((1, 0), 1.0), ((0, 1), 1.0)))
    total = sum(central_value(rs, g, psi) for psi in rs.center.elements)
    assert abs(total.imag) < 1e-13


def test_leading_term_I_a1_values():
    rs = build_root_system("A1")
    a = CycleType((1,))
    for n in (2, 10, 100, 160):
        est = leading_term_I(rs, (1,), a, n)
        want = 4 * 2 ** n / (math.sqrt(2 * math.pi) * n ** 1.5)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.pi_sum == 2
    for n in (1, 3, 101):
        est = leading_term_I(rs, (1,), a, n)
        assert est.value == 0.0
        assert est.pi_sum == 0


def test_estimate_reconstruction():
    rs = build_root_system("A2")
    est = leading_term_I(rs, (1, 1), CycleType((1,)), 12)
    rebuilt = (math.exp(est.log_dim_power) * est.prefactor
               * float(est.kappa_term) * est.pi_sum.real)
    assert est.value == pytest.approx(rebuilt, rel=1e-12)
    assert math.log(abs(est.value)) == pytest.approx(est.log_abs_value(),
                                                     abs=1e-10)
    d = est.to_dict()
    assert d["N"] == 12
    assert d["kappa_term"] == str(est.kappa_term)
    # an immutable named tuple: it unpacks, compares and hashes as the
    # tuple of its fields, and its repr names them in order
    value, *_, n, log_abs = est
    assert (value, n, log_abs) == (est.value, 12, est.log_abs)
    assert est == tuple(est) and hash(est) == hash(tuple(est))
    assert repr(est) == "AsymptoticEstimate(" + ", ".join(
        f"{name}={getattr(est, name)!r}" for name in (
            "value", "log_dim_power", "kappa_term", "det_a", "pi_sum",
            "prefactor", "N", "log_abs")) + ")"
    with pytest.raises(AttributeError):
        est.value = 0.0


def test_leading_term_manual_assembly():
    # independent reassembly from dimension, second-moment form and kappa
    rs = build_root_system("A1")
    n = 9
    est = leading_term_I(rs, (2,), CycleType((1,)), n)
    assert est.pi_sum == 2  # 2 omega lies in the root lattice
    dim = weyl_dimension(rs, (2,))
    sm = a_lambda(rs, (2,))
    manual = (dim ** n
              * (2 * math.pi) ** rs.num_positive_roots
              / ((2 * math.pi * n) ** (rs.dim_group / 2)
                 * math.sqrt(sm.det))
              * float(kappa(rs, oracles.solve_fraction(sm.matrix, rs.rho)))
              * 2)
    assert est.value == pytest.approx(manual, rel=1e-12)


def test_leading_term_hypotheses():
    rs = build_root_system("A1")
    with pytest.raises(HypothesisError):
        leading_term_I(rs, (0,), CycleType((1,)), 4)       # not regular
    with pytest.raises(HypothesisError):
        leading_term_I(rs, (1,), CycleType((0, 1)), 4)     # gcd 2
    with pytest.raises(HypothesisError):
        leading_term_I(rs, (1,), CycleType((1,)), 0)       # bad index
    with pytest.raises(HypothesisError):
        leading_term_K(rs, (1,), CycleType((2,)), CycleType((1,)), 4)
    with pytest.raises(HypothesisError):
        leading_term_K(rs, (1,), CycleType((0, 1)), CycleType((0, 1)), 4)
    # gcd is taken over the union of supports: squares on one side are fine
    # when the other side contributes an odd power and the totals balance
    est = leading_term_K(rs, (1,), CycleType((0, 3)), CycleType((6,)), 2)
    assert est.value > 0


@pytest.mark.parametrize("lam, a, b, n", [
    ((1, 1), (1,), None, 0),            # N = 0
    ((1, 0), (1,), None, 4),            # not regular
    ((1, 1), (0, 1), None, 4),          # gcd 2
    ((1, 0), (0, 1), None, 0),          # all three: regularity first
    ((1, 1), (1,), (1,), 0),            # two-sided: N = 0
    ((2, 0), (1,), (1,), 4),            # two-sided: not regular
    ((1, 1), (0, 1), (0, 1), 4),        # two-sided: gcd 2
    ((1, 1), (2,), (1,), 4),            # k_a != k_b
    ((1, 1), (2,), (0, 1), 0),          # N before balance
    ((1, 1), (0, 2), (0, 1), 4),        # balance before gcd
])
def test_peak_data_keeps_every_refusal(monkeypatch, lam, a, b, n):
    # a sequence checks lam once and builds its peak data once, at the
    # first row that passes the hypotheses, not again per row; each
    # refusal is the one its one-N call raises
    rs = build_root_system("A2")
    f = ClassFunction((((0, 0), 2.0), ((1, 1), 3.0)))
    a, b_type = CycleType(a), CycleType(b or ())

    def refusal(row):
        assert isinstance(row, HypothesisError)
        return type(row), str(row)

    with pytest.raises(HypothesisError) as info:
        if b is None:
            leading_term_I(rs, lam, a, n, f=f)
        else:
            leading_term_K(rs, lam, a, b_type, n, f=f)
    checks, builds = _count_checks_and_builds(monkeypatch)
    ns = (0, 3, 4)
    rows = dict(zip(ns, leading_sequence(rs, lam, a, b_type, ns, f)))
    assert refusal(rows[n]) == refusal(info.value)
    assert ("regular" in refusal(rows[n])[1]) == (min(lam) == 0)
    assert checks == [lam]
    assert len(builds) == any(not isinstance(row, HypothesisError)
                              for row in rows.values())


def _count_checks_and_builds(monkeypatch):
    """Lists that record each check of lam and each peak-data build of
    the asymptotic route from here on."""
    checks, builds = [], []
    check, build = asymptotics.check_dominant_integral, asymptotics.peak_data
    monkeypatch.setattr(asymptotics, "check_dominant_integral",
                        lambda rs, lam: checks.append(lam) or check(rs, lam))
    monkeypatch.setattr(asymptotics, "peak_data",
                        lambda *args: builds.append(args) or build(*args))
    return checks, builds


def test_peak_data_skips_rechecking_lam_and_f(monkeypatch):
    # a sweep's rows reuse its peak data, which checked lam and f once
    rs = build_root_system("A2")
    f = ClassFunction((((0, 0), 2.0), ((1, 1), 3.0)))
    a, ns = CycleType((1,)), (1, 2, 3)
    want = [(leading_term_I(rs, (1, 1), a, n, f=f),
             leading_term_K(rs, (1, 1), a, a, n, f=f)) for n in ns]
    checks, builds = _count_checks_and_builds(monkeypatch)
    assert list(zip(leading_sequence(rs, (1, 1), a, CycleType(()), ns, f),
                    leading_sequence(rs, (1, 1), a, a, ns, f))) == want
    assert checks == [(1, 1)] * 2
    assert builds == [(rs, (1, 1), f)] * 2


@pytest.mark.parametrize("terms, text", [
    ((((0, -1), 1.0),),
     "highest weight must be dominant integral, got (0, -1)"),
    ((((0, 0), 2.0), ((1,), 1.0)), "weight (1,) has wrong rank for A2"),
])
@pytest.mark.parametrize("call", [
    lambda rs, f, a: peak_data(rs, (1, 1), f),
    lambda rs, f, a: leading_term_I(rs, (1, 1), a, 3, f=f),
    lambda rs, f, a: leading_term_K(rs, (1, 1), a, a, 3, f=f),
    lambda rs, f, a: next(leading_sequence(rs, (1, 1), a, a, (3,), f)),
], ids=["peak_data", "I", "K", "K_sequence"])
def test_peak_data_refuses_a_bad_term_of_f(terms, text, call):
    # every highest weight of f is checked once, where the peak is built
    rs = build_root_system("A2")
    with pytest.raises(rootsys.ConfigurationError) as info:
        call(rs, ClassFunction(terms), CycleType((1,)))
    assert str(info.value) == text


def test_cli_refuses_a_bad_term_of_f(capsys):
    args = ["asym", "--group", "A2", "--lam", "1,1", "--a", "1", "--N", "3",
            "--f", "0,-1:1"]
    assert main(args) == 2
    assert ("highest weight must be dominant integral, got (0, -1)"
            in capsys.readouterr().err)


def test_peak_data_takes_each_dimension_once(monkeypatch):
    # the central sum of f on A1xA2 (6 central elements) needs each term's
    # dimension and class once: one call per term and one for lam, not one
    # per term and element (13)
    rs = build_root_system("A1xA2")
    f = ClassFunction((((0, 0, 0), 2.0), ((1, 1, 0), 5.0)))
    dims, dim = [], asymptotics.weyl_dimension
    classes, cls = [], rootsys.root_lattice_class
    monkeypatch.setattr(asymptotics, "weyl_dimension",
                        lambda rs, lam: dims.append(lam) or dim(rs, lam))
    monkeypatch.setattr(rootsys, "root_lattice_class",
                        lambda rs, mu: classes.append(mu) or cls(rs, mu))
    peak = peak_data(rs, (1, 1, 1), f)
    assert dims == [(1, 1, 1), (0, 0, 0), (1, 1, 0)]
    assert classes == [(1, 1, 1), (0, 0, 0), (1, 1, 0)]
    monkeypatch.undo()
    # lam's class, and per term its class and c * dim V_nu, in term order:
    # residues of D C^-1 mu mod D, D = 6 on A1xA2
    assert peak.lam_class == (3, 0, 0)
    assert peak.f_classes == (((0, 0, 0), 2.0), ((3, 4, 2), 5.0 * 6))


def test_leading_term_K_values():
    rs = build_root_system("A1")
    for n in (1, 2, 40, 160):
        est = leading_term_K(rs, (1,), CycleType((1,)), CycleType((1,)), n)
        want = 4 ** n / (math.sqrt(math.pi) * n ** 1.5)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.pi_sum == 2
    a2 = build_root_system("A2")
    est = leading_term_K(a2, (1, 1), CycleType((1,)), CycleType((1,)), 7)
    assert est.pi_sum == 3  # the constant test function sums to |center|


def test_leading_term_k_is_regevs_constant_on_a1():
    # K_N of the standard representation of SU(2) counts the permutations
    # of N with no increasing subsequence of length 3; Regev's leading term
    # for them is the paper's two-sided leading term
    rs = build_root_system("A1")
    one = CycleType((1,))
    for n in (5, 10, 20, 40, 160):
        est = leading_term_K(rs, (1,), one, one, n)
        assert est.value == pytest.approx(oracles.regev_leading(2, n),
                                          rel=1e-13)
    # and the exact counts approach it: K_N / leading -> 1 like 1 + c/N
    ratios = [oracles.bounded_lis_count(2, n) / oracles.regev_leading(2, n)
              for n in (50, 100, 200)]
    assert ratios[0] < ratios[1] < ratios[2] < 1
    assert 1 - ratios[2] < 0.01


def test_biane_estimate_a1():
    rs = build_root_system("A1")
    for n in (10, 60, 120):
        got = biane_dimension_estimate(rs, (2,), n)
        want = 2 * 3 ** n * (3 / 4) / (math.sqrt(2 * math.pi) * n ** 1.5
                                       * math.sqrt(8 / 3))
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(HypothesisError):
        biane_dimension_estimate(rs, (1,), 10)   # not in the root lattice
    with pytest.raises(HypothesisError):
        biane_dimension_estimate(rs, (0,), 10)   # not regular


@pytest.mark.parametrize("spec, lam, n", [("E8", (1,) * 8, 9),
                                          ("E8", (1,) * 8, 10),
                                          ("E8", (1,) * 8, 11),
                                          ("E8", (1,) * 8, 12),
                                          ("E7", (2,) * 7, 13),
                                          ("B3", (2, 2, 2), 77)])
def test_biane_estimate_where_one_factor_overflows(spec, lam, n):
    # dim^N (E8 rho: 2^{120 N}) or dim^N times the prefactor is past the
    # float range while the estimate itself is not
    rs = build_root_system(spec)
    dim, kap, det_a, *_ = peak_data(rs, lam)
    want = (math.log(rs.center.order) + n * math.log(dim)
            + math.log(kap.numerator) - math.log(kap.denominator)
            - (rs.rank / 2) * math.log(2 * math.pi)
            - (rs.dim_group / 2) * math.log(n)
            - (math.log(det_a.numerator) - math.log(det_a.denominator)) / 2)
    got = biane_dimension_estimate(rs, lam, n)
    assert math.isfinite(got)
    assert got == pytest.approx(math.exp(want), rel=1e-12)


def test_vanish_leading_constant_a1():
    rs = build_root_system("A1")
    got = vanish_leading_constant(rs, [[1]], 1.0, 0.0, 1)
    assert got == pytest.approx(4 * (2 * math.pi) ** 2.5, rel=1e-12)
    # index dependence: (2 pi / N)^{3/2} and e^{N phi0}
    got4 = vanish_leading_constant(rs, [[1]], 1.0, 0.5, 4)
    assert got4 == pytest.approx(4 * (2 * math.pi) ** 2.5 * 4 ** -1.5
                                 * math.exp(2.0), rel=1e-12)
    with pytest.raises(HypothesisError):
        vanish_leading_constant(rs, [[1]], 1.0, 0.0, 0)


def test_quadratic_form_validation():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        mehta_closed_form(rs, [[1, 0], [0, 2]])      # not equivariant
    with pytest.raises(ValueError):
        mehta_closed_form(rs, [[-2, 1], [1, -2]])    # not positive definite
    with pytest.raises(ValueError):
        mehta_closed_form(rs, [[1]])                 # wrong shape
    assert weyl_equivariant(rs, a_lambda(rs, (2, 1)).matrix)
    assert weyl_equivariant(rs, [[2, -1], [-1, 2]])
    assert not weyl_equivariant(rs, [[2, 1], [1, 3]])


def test_mehta_closed_form_a1():
    rs = build_root_system("A1")
    assert mehta_closed_form(rs, [[1]]) == \
        pytest.approx(4 * math.sqrt(2 * math.pi), rel=1e-13)
    # kappa has degree one here, so scaling the form by c divides the value
    # by c^{3/2}
    assert mehta_closed_form(rs, [[4]]) == \
        pytest.approx(4 * math.sqrt(2 * math.pi) / 8, rel=1e-13)


def _rho_form(rs):
    # the Hessian-scale float form (2 pi)^2 * 2 * A_rho of the balanced
    # moment with a = b = (1)
    scale = (2 * math.pi) ** 2 * 2
    return [[scale * float(x) for x in row]
            for row in a_lambda(rs, rs.rho).matrix]


def _mehta_mpmath(rs, h):
    # the same closed form in 50-digit mpmath, from the same float entries:
    # (2 pi)^{rank/2} |W| kappa(h^{-1} rho) / sqrt(det h)
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in h])
        x = mpmath.lu_solve(m, mpmath.matrix([1] * rs.rank))
        kap = mpmath.mpf(1)
        for alpha in rs.positive_roots:
            kap *= mpmath.fsum(a * x[i] for i, a in enumerate(alpha))
        return ((2 * mpmath.pi) ** (mpmath.mpf(rs.rank) / 2)
                * rs.weyl_order * kap / mpmath.sqrt(mpmath.det(m)))


@pytest.mark.parametrize("spec", ["F4", "E7", "E8", "B8", "C8", "D8"])
def test_mehta_closed_form_rounds_once(spec):
    # float entries are converted exactly and the value is rounded once, so
    # it agrees with high precision to a few ulp even at rank 8
    rs = build_root_system(spec)
    h = _rho_form(rs)
    got = mehta_closed_form(rs, h)
    want = _mehta_mpmath(rs, h)
    assert abs(mpmath.mpf(got) / want - 1) <= 1e-14


@pytest.mark.parametrize("spec", ["A1", "A2", "B3", "G2", "A1xA2", "F4"])
def test_mehta_closed_form_float_and_fraction_agree(spec):
    rs = build_root_system(spec)
    h = _rho_form(rs)
    exact = [[Fraction(x) for x in row] for row in h]
    assert mehta_closed_form(rs, h) == mehta_closed_form(rs, exact)
    cartan_form = [[Fraction(2 * x) for x in row]
                   for row in a_lambda(rs, rs.rho).matrix]
    assert mehta_closed_form(rs, cartan_form) == mehta_closed_form(
        rs, [[float(x) for x in row] for row in cartan_form])


@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A1xA1", "D4"])
def test_vanish_leading_constant_scales_mehta(spec):
    rs = build_root_system(spec)
    h = _rho_form(rs)
    mehta = mehta_closed_form(rs, h)
    d = rs.num_positive_roots
    for g0, phi0, n in ((1.0, 0.0, 1), (0.5, 0.25, 3), (2.0, -0.1, 7)):
        got = vanish_leading_constant(rs, h, g0, phi0, n)
        scalar = ((2 * math.pi) ** (2 * d) * n ** (-rs.dim_group / 2)
                  * g0 * math.exp(n * phi0))
        assert got == pytest.approx(scalar * mehta, rel=1e-15)
        # the documented form, assembled the long way
        long_way = ((2 * math.pi / n) ** (rs.dim_group / 2)
                    * (2 * math.pi) ** d * g0 * math.exp(n * phi0)
                    * mehta / (2 * math.pi) ** (rs.rank / 2))
        assert got == pytest.approx(long_way, rel=1e-13)


def test_quadratic_form_refusal_messages():
    rs = build_root_system("A2")
    for h, message in (
            ([[1]], "form must be 2 x 2"),
            ([[2, -1], [-1]], "form must be 2 x 2"),
            ([[1, 0], [0, 2]], "does not commute with the Weyl action"),
            ([[-2, 1], [1, -2]], "matrix must be positive definite"),
            ([[2.0, float("nan")], [-1.0, 2.0]], "must be finite numbers"),
            ([[2.0, float("inf")], [-1.0, 2.0]], "must be finite numbers"),
            # equivariant to the float tolerance, but not bit-for-bit
            # symmetric: exact input is compared exactly
            ([[2.0, -1.0 + 1e-13], [-1.0, 2.0]],
             "matrix must be symmetric")):
        with pytest.raises(ValueError, match=message):
            mehta_closed_form(rs, h)
        with pytest.raises(ValueError, match=message):
            vanish_leading_constant(rs, h, 1.0, 0.0, 1)


def test_composition_identity():
    # the one-sided leading term reassembles from the vanishing-order
    # constant evaluated at the critical Hessian scale
    for spec, lam in [("A1", (1,)), ("A1", (3,)), ("A2", (1, 1))]:
        rs = build_root_system(spec)
        a = CycleType((1, 1))
        n = 6
        est = leading_term_I(rs, lam, a, n)
        sm = a_lambda(rs, lam)
        h = [[(2 * math.pi) ** 2 * a.quad * float(x) for x in row]
             for row in sm.matrix]
        dim = weyl_dimension(rs, lam)
        v = vanish_leading_constant(rs, h, 1.0, a.size * math.log(dim), n)
        rebuilt = v / rs.weyl_order * est.pi_sum.real
        assert rebuilt == pytest.approx(est.value, rel=1e-12)


def test_pi_sum_real_for_real_class_functions():
    # conjugate center elements pair up, so the central sum of a real
    # combination of characters is real: a float, with no imaginary part
    rs = build_root_system("A2")
    f = ClassFunction((((1, 0), 1.5), ((1, 1), 0.25)))
    est = leading_term_I(rs, (1, 1), CycleType((1,)), 3, f=f)
    assert est.pi_sum.imag == 0
    assert est.to_dict()["pi_sum_im"] == 0.0
    assert est.pi_sum == 3 * 0.25 * 8


@pytest.mark.parametrize("spec", ["E7", "E8"])
def test_leading_term_needs_no_weight_system(monkeypatch, spec):
    # A_lambda comes from root data: no weight system, no Weyl orbit walk
    # (the orbit of rho has 696,729,600 points on E8).
    def refuse(*args, **kwargs):
        raise AssertionError("the asymptotic route walked a weight system")

    for module in (repweights, charring, torusquad):
        monkeypatch.setattr(module, "weight_system", refuse)
    for name in ("dominant_orbit", "_walk_orbit", "_replay_orbit"):
        monkeypatch.setattr(rootsys, name, refuse)
    rs = build_root_system(spec)
    est = leading_term_I(rs, rs.rho, CycleType((1,)), 5)
    assert est.det_a > 0
    assert est.kappa_term > 0
    assert weyl_equivariant(rs, a_lambda(rs, rs.rho).matrix)


def test_equivariance_accepts_float_multiples_of_invariant_forms():
    # each float entry carries its own rounding, so the check needs its
    # relative tolerance even though it runs in exact arithmetic
    g2 = build_root_system("G2")
    tenth = [[0.1 * float(x) for x in row]
             for row in a_lambda(g2, g2.rho).matrix]
    assert _checked_form(g2, tenth)[0] == [[Fraction(x) for x in row]
                                           for row in tenth]
    assert mehta_closed_form(g2, tenth) > 0
    for spec in ("F4", "E8"):
        rs = build_root_system(spec)
        assert len(_checked_form(rs, _rho_form(rs))[0]) == rs.rank


def _g2_tenth(rs):
    return [[0.1 * float(x) for x in row]
            for row in a_lambda(rs, rs.rho).matrix]


@pytest.mark.parametrize("spec, form", [
    ("A2", lambda rs: [[2, -1], [-1, 2]]),
    ("E8", lambda rs: rs.cartan),
    ("G2", lambda rs: a_lambda(rs, rs.rho).matrix),
    ("F4", lambda rs: a_lambda(rs, (1, 2, 1, 1)).matrix),
    ("G2", _g2_tenth),
    ("F4", _rho_form),
    ("E8", _rho_form)])
def test_mehta_parts_are_the_row_exchange_oracles(spec, form):
    # int, Fraction and float entries: the elimination of the form scaled
    # to integers gives exactly the oracles' kappa(h^-1 rho) and det h
    rs = build_root_system(spec)
    h = form(rs)
    assert _mehta_parts(rs, h) == (
        kappa(rs, oracles.solve_fraction(h, rs.rho)),
        oracles.det_fraction(h))


@pytest.mark.parametrize("spec", ["G2", "F4", "E8"])
def test_equivariance_refuses_a_relative_perturbation(spec):
    rs = build_root_system(spec)
    h = _rho_form(rs)
    h[0][0] *= 1 + 1e-6
    with pytest.raises(ValueError, match="does not commute with the Weyl"):
        mehta_closed_form(rs, h)


def test_equivariance_is_checked_without_floats():
    # 10^400 is past the float range; the exact check never converts
    rs = build_root_system("G2")
    big = Fraction(10 ** 400)
    h = [[big * x for x in row] for row in a_lambda(rs, rs.rho).matrix]
    assert weyl_equivariant(rs, h)
    assert _checked_form(rs, h)[0] == h


def test_vanish_leading_constant_past_float_intermediates():
    # (2 pi)^{2d} alone overflows for E8 x E8 (d = 240); the constant, a
    # product over the two E8 factors, does not
    rs = build_root_system("E8xE8")
    e8 = build_root_system("E8")
    got = vanish_leading_constant(rs, rs.cartan, 1.0, 0.0, 100)
    want_log10 = (2 * rs.num_positive_roots * math.log10(2 * math.pi)
                  - rs.dim_group / 2 * 2
                  + 2 * math.log10(mehta_closed_form(e8, e8.cartan)))
    assert math.log10(got) == pytest.approx(want_log10, abs=1e-12)
    assert math.log10(got) == pytest.approx(123.384, abs=1e-3)
    # e^{N phi0} = e^{750} overflows on its own; g0 = 1e-300 brings the
    # value back in range
    a1 = build_root_system("A1")
    got = vanish_leading_constant(a1, [[1]], 1e-300, 7.5, 100)
    want = math.exp(math.log(1e-300) + 750 - 1.5 * math.log(100)
                    + math.log(4 * (2 * math.pi) ** 2.5))
    assert got == pytest.approx(want, rel=1e-12)
    # only a final value past the float range raises
    with pytest.raises(OverflowError, match="past the float range"):
        vanish_leading_constant(rs, rs.cartan, 1.0, 0.0, 1)


@pytest.mark.parametrize("spec", ["E7", "E8"])
def test_vanish_leading_constant_matches_float_assembly(spec):
    # where plain float products stay in range, the value is theirs
    rs = build_root_system(spec)
    h = _rho_form(rs)
    mehta = mehta_closed_form(rs, h)
    for g0, phi0, n in ((1.0, 0.0, 1), (0.5, 0.25, 3), (-2.0, 1.5, 20)):
        want = ((2 * math.pi) ** (2 * rs.num_positive_roots)
                * n ** (-rs.dim_group / 2) * g0 * math.exp(n * phi0) * mehta)
        assert vanish_leading_constant(rs, h, g0, phi0, n) == \
            pytest.approx(want, rel=1e-14)
    assert vanish_leading_constant(rs, h, 0.0, 0.0, 1) == 0.0


PEAK_SPECS = ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6",
              "A1xA2", "G2xA1", "A1xA1xA1", "B3xA2"]


def _peak_outcome(build):
    """A built peak as its tuple with the hex of its floats, or a refusal
    as its type and text."""
    try:
        peak = tuple(build())
    except Exception as exc:  # noqa: BLE001 -- the refusal is compared
        return type(exc), str(exc)
    return peak, [x.hex() for x in peak[-1]]


@st.composite
def peak_case(draw):
    """A group, a weight with coordinates in [0, 3] (so vanishing on a
    factor of a product now and then), and one to three terms of f; one
    case in five gets a negative coordinate in lam or in a term."""
    rs = build_root_system(draw(st.sampled_from(PEAK_SPECS)))
    lam = draw(st.tuples(*[st.integers(0, 3)] * rs.rank))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * rs.rank),
                  st.sampled_from([1.0, -2.5, 3, 0.5])),
        min_size=1, max_size=3))
    spoil = draw(st.sampled_from([None, None, None, "lam", "term"]))
    if spoil == "lam":
        lam = lam[:-1] + (-1,)
    elif spoil == "term":
        k = draw(st.integers(0, len(terms) - 1))
        terms[k] = (terms[k][0][:-1] + (-1,), terms[k][1])
    return rs, lam, ClassFunction(tuple(terms))


_REFUSED_PEAKS = [
    ("A1xA2", (0, 1, 1), (((0, 0, 0), 1.0),), ValueError,
     "matrix is singular"),
    ("B3", (1, -1, 1), (((0, 0, 0), 1.0),), rootsys.ConfigurationError,
     "highest weight must be dominant integral, got (1, -1, 1)"),
    ("G2", (1, 1), (((0, 0), 1.0), ((0, -1), 2.0)),
     rootsys.ConfigurationError,
     "highest weight must be dominant integral, got (0, -1)"),
    ("A2", (1, 1), (((1,), 1.0),), rootsys.ConfigurationError,
     "weight (1,) has wrong rank for A2"),
]


@settings(max_examples=120, deadline=None)
@given(peak_case())
@example((build_root_system("A2xD4xA1"), (1, 1, 0, 0, 0, 0, 2),
          ClassFunction((((0,) * 7, 1.0),))))
@example((build_root_system("F4"), (1, 1, 1, 1),
          ClassFunction((((0, 0, 0, 0), 5.0),))))
@example((build_root_system("E6"), (1, 0, 2, 1, 1, 3),
          ClassFunction((((1, 0, 0, 0, 0, 0), -2.5), ((0, 1, 0, 0, 0, 1),
                                                       3)))))
def test_peak_data_matches_the_second_moment_properties(case):
    # the one-pass build against kappa_rho and det read one at a time,
    # with floats compared bit for bit and every refusal by type and text
    rs, lam, f = case
    assert (_peak_outcome(lambda: peak_data(rs, lam, f))
            == _peak_outcome(lambda: oracles.peak_data_from_second_moment(
                rs, lam, f)))


@pytest.mark.parametrize("spec, lam, terms, kind, text", _REFUSED_PEAKS)
def test_peak_data_refuses_as_the_second_moment_properties(spec, lam, terms,
                                                           kind, text):
    rs, f = build_root_system(spec), ClassFunction(terms)
    want = (kind, text)
    assert _peak_outcome(lambda: peak_data(rs, lam, f)) == want
    assert _peak_outcome(lambda: oracles.peak_data_from_second_moment(
        rs, lam, f)) == want


@pytest.mark.parametrize("spec, lam", [("F4", (1, 2, 1, 1)),
                                       ("E8", (1,) * 8),
                                       ("A1xA2", (1, 1, 2))])
def test_peak_data_makes_no_elimination(monkeypatch, spec, lam):
    # kappa(A_lam^{-1} rho) and det A_lam are closed forms in root data and
    # definiteness is decided in integers on the Cartan matrix, whose
    # minors are memoised per datum: the first peak data eliminates the
    # Cartan matrix once, later ones nothing, A_lam's matrix is never
    # eliminated, and the values equal the row-exchange oracles on it
    rs = build_root_system(spec)
    matrix = a_lambda(rs, lam).matrix
    calls = []
    real = exactla.eliminate

    def counted(mat, columns=()):
        calls.append(tuple(map(tuple, mat)))
        return real(mat, columns)

    for module in (exactla, repweights, rootsys):
        monkeypatch.setattr(module, "eliminate", counted)
    repweights._cartan_minors.cache_clear()
    peak = peak_data(rs, lam)
    assert calls == [rs.cartan]
    assert peak_data(rs, lam) == peak
    assert calls == [rs.cartan]
    assert matrix not in calls
    assert peak.det_a == oracles.det_fraction(matrix) > 0
    assert peak.kappa_term == kappa(rs, oracles.solve_fraction(matrix,
                                                               rs.rho))


@pytest.mark.parametrize("n", [46, 48, 50, 100, 10 ** 4])
def test_leading_term_past_float_intermediates(n):
    # (2 pi l N)^{dim G / 2} overflows for E8 from N = 50 (dim G / 2 = 124),
    # and its product with sqrt(det A) from N = 46; the estimate falls back
    # to log space and its log stays finite
    rs = build_root_system("E8")
    est = leading_term_I(rs, rs.rho, CycleType((1,)), n)
    dim, kap, det_a, *_ = peak_data(rs, rs.rho)
    # the Laplace constant of I_N, a = (1), assembled in log space: E8 has
    # no center, and (2 pi)^d / (2 pi)^{dim G / 2} = (2 pi)^{-rank / 2}
    want = (n * math.log(dim) + math.log(kap.numerator)
            - math.log(kap.denominator)
            - (rs.rank / 2) * math.log(2 * math.pi)
            - (rs.dim_group / 2) * math.log(n)
            - (math.log(det_a.numerator) - math.log(det_a.denominator)) / 2)
    assert math.isfinite(est.log_abs_value())
    assert est.log_abs_value() == pytest.approx(want, rel=1e-12)
    assert est.value == math.inf
    assert est.to_dict()["log_abs_value"] == est.log_abs_value()


# one cyclic center of each order up to 5, two types with a center of order
# 2 and 4 (B2, C3: Z/2; D4: Z/2 x Z/2), E6 (Z/3) and a product (Z/2 x Z/3)
_CLASS_GROUPS = ("A1", "A2", "A3", "A4", "B2", "C3", "D4", "E6", "A1xA2")
# where the exact route is cheap enough to run on every drawn row
_EXACT_GROUPS = ("A1", "A2", "B2", "A1xA2")


def _in_root_lattice(rs, mu):
    return all(c.denominator == 1 for c in oracles.root_lattice_coords(rs, mu))


@st.composite
def _class_rows(draw):
    """(group, lam, a, b, terms of f, N) of a row whose hypotheses hold:
    lam regular, a with a_1 >= 1, b empty or a; f has 1-3 distinct terms,
    most of them off the root lattice, with positive coefficients."""
    spec = draw(st.sampled_from(_CLASS_GROUPS))
    rank = build_root_system(spec).rank
    lam = draw(st.tuples(*[st.integers(1, 2)] * rank))
    a = draw(st.sampled_from([(1,), (2,), (1, 1)]))
    b = a if draw(st.booleans()) else ()
    nus = draw(st.lists(st.tuples(*[st.integers(0, 2)] * rank),
                        min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(1, 5), min_size=len(nus),
                           max_size=len(nus)))
    return spec, lam, a, b, tuple(zip(nus, map(float, coeffs))), \
        draw(st.integers(1, 10))


@settings(max_examples=100)
@given(_class_rows())
@example(("A2", (1, 1), (1,), (1,), (((1, 0), 1.0), ((0, 2), 2.0)), 3))
@example(("A1xA2", (1, 1, 2), (1,), (), (((1, 1, 0), 1.0),), 2))
@example(("D4", (1, 1, 1, 1), (1,), (1,), (((1, 0, 0, 0), 1.0),), 1))
def test_leading_term_is_zero_exactly_when_no_term_completes_the_class(row):
    # A term c chi_nu of f survives the central sum when N k_a lam + nu
    # (one-sided) or nu (two-sided) lies in the root lattice, decided here
    # from Fraction root coordinates.  The leading term is 0.0 exactly when
    # no term survives, and the exact moment is 0 there too; otherwise
    # pi_sum is |Z| sum c dim V_nu over the survivors.  Either way it equals
    # the float phase sum over the center's elements to roundoff.
    spec, lam, a, b, terms, n = row
    rs = build_root_system(spec)
    a, b, f = CycleType(a), CycleType(b), ClassFunction(terms)
    k = 0 if b.exps else n * a.weight
    survivors = [(nu, c) for nu, c in terms
                 if _in_root_lattice(rs, [k * l + v for l, v in zip(lam, nu)])]
    est = (leading_term_K(rs, lam, a, b, n, f=f) if b.exps
           else leading_term_I(rs, lam, a, n, f=f))
    assert (est.value == 0.0) == (not survivors)
    assert est.pi_sum == rs.center.order * sum(
        c * weyl_dimension(rs, nu) for nu, c in survivors)
    scale = sum(abs(c) * weyl_dimension(rs, nu) for nu, c in terms)
    phases = oracles.phase_central_sum(rs, lam, k, f)
    assert abs(est.pi_sum - phases.real) <= 1e-12 * scale
    assert abs(phases.imag) <= 1e-12 * scale
    if not survivors and spec in _EXACT_GROUPS and n * a.weight <= 8:
        nus = [nu for nu, _ in terms]
        (got,) = charring.moment_sequence(rs, lam, a, b, (n,), weights=nus)
        assert got == [0] * len(nus)


# groups with one or two simple factors whose sequences are cheap to draw
_SEQUENCE_GROUPS = ("A1", "A2", "B2", "G2", "A1xA2")


@st.composite
def _sequence_cases(draw):
    """(group, lam, a, b, terms of f, schedule): lam with zeros (not
    regular), a and b that may have gcd 2 or unbalanced powers, b empty
    (one-sided) or not, gapped schedules from 0, and coefficients up to
    1e308, whose central sums can pass the float range."""
    spec = draw(st.sampled_from(_SEQUENCE_GROUPS))
    rank = build_root_system(spec).rank
    lam = draw(st.tuples(*[st.integers(0, 2)] * rank))
    cycle = st.sampled_from([(1,), (2,), (0, 1), (1, 1), (0, 2), (1, 0, 1)])
    a = draw(cycle)
    b = draw(st.sampled_from([(), a, draw(cycle)]))
    nus = draw(st.lists(st.tuples(*[st.integers(0, 2)] * rank),
                        min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.sampled_from([1.0, -2.5, 3.0, 1e308]),
                           min_size=len(nus), max_size=len(nus)))
    ns = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=5)))
    return spec, lam, a, b, tuple(zip(nus, coeffs)), ns


@settings(max_examples=150, deadline=None)
@given(_sequence_cases())
@example(("A2", (1, 0), (1,), (), (((0, 0), 1.0),), [0, 2, 5]))
@example(("A2", (1, 1), (0, 1), (0, 1), (((0, 0), 1.0),), [1, 4]))
@example(("A1xA2", (1, 1, 1), (2,), (1,), (((0, 0, 0), 1.0),), [0, 3]))
@example(("A1", (1,), (1,), (1,), (((0,), 1e308), ((2,), 1e308)), [0, 1, 2]))
@example(("A2", (1, 1), (1,), (), (((0, 0), 1e308), ((1, 1), 1e308),
                                   ((0, 1), 1.0)), [1, 3, 4]))
def test_sequence_rows_are_their_one_n_calls(case):
    # every row of a sequence is its one-N call: the same estimate, to its
    # repr, or the same refusal type and text, whatever the hypotheses, N
    # or the central sum refuse
    spec, lam, a, b, terms, ns = case
    rs = build_root_system(spec)
    a, b, f = CycleType(a), CycleType(b), ClassFunction(terms)
    for n, row in zip(ns, leading_sequence(rs, lam, a, b, ns, f),
                      strict=True):
        try:
            one = (leading_term_K(rs, lam, a, b, n, f=f) if b.exps
                   else leading_term_I(rs, lam, a, n, f=f))
        except HypothesisError as exc:
            assert (type(row), str(row)) == (type(exc), str(exc))
        else:
            assert repr(row) == repr(one)


def _mp_leading(rs, lam, est, num_factors, l_total):
    """The leading term of ``est`` from its exact peak data in 50-digit
    mpmath: dim^{N k} (2 pi)^d kappa pi_sum / ((2 pi l N)^{dim G / 2}
    sqrt(det A))."""
    dim, kap, det_a, *_ = peak_data(rs, lam)
    with mpmath.workdps(50):
        return (mpmath.mpf(dim) ** (est.N * num_factors)
                * (2 * mpmath.pi) ** rs.num_positive_roots
                * mpmath.mpf(kap.numerator) / kap.denominator * est.pi_sum
                / ((2 * mpmath.pi * l_total * est.N)
                   ** (mpmath.mpf(rs.dim_group) / 2)
                   * mpmath.sqrt(mpmath.mpf(det_a.numerator)
                                 / det_a.denominator)))


@pytest.mark.parametrize("k", [36, 40])
def test_leading_term_with_a_subnormal_kappa(k):
    # kappa(A^-1 rho) of E8 at 36 rho is subnormal (1.02e-318) and at 40
    # rho below it (0.0 as a float), while the leading term is a normal
    # float: it comes from the logs, not the product of the factors
    rs = build_root_system("E8")
    lam = (k,) * 8
    est = leading_term_I(rs, lam, CycleType((1,)), 1)
    assert float(est.kappa_term) < sys.float_info.min
    want = _mp_leading(rs, lam, est, 1, 1)
    assert est.value >= sys.float_info.min
    assert abs(mpmath.mpf(est.value) / want - 1) <= 1e-12


@pytest.mark.parametrize("group, lam", [("A1", (10 ** 155,)),
                                        ("A2", (10 ** 80, 10 ** 80))])
def test_cli_asym_with_det_a_past_the_float_range(capsys, group, lam):
    # det A_lam is past the float range, so sqrt(det A) is held as inf and
    # the prefactor comes from log space; the value is the mpmath one, or
    # null with a finite log past the float range
    args = ["asym", "--group", group, "--lam", ",".join(map(str, lam)), "--a",
            "1", "--b", "1", "--N", "2"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    rs, one = build_root_system(group), CycleType((1,))
    est = leading_term_K(rs, lam, one, one, 2)
    assert est.det_a > 2 ** 1024
    want = _mp_leading(rs, lam, est, 2, 2)
    assert abs(mpmath.mpf(data["log_abs_value"]) - mpmath.log(want)) \
        <= 1e-12 * abs(mpmath.log(want))
    if data["value"] is None:
        assert want > sys.float_info.max
    else:
        assert abs(mpmath.mpf(data["value"]) / want - 1) <= 1e-12


@st.composite
def _normal_rows(draw):
    """(group, lam, a, b, N) of a row whose hypotheses hold, with lam up to
    about 10^6 per coordinate and N up to 10^4, so that dim^N, kappa and
    the prefactor range far past both ends of the float range."""
    spec = draw(st.sampled_from(("A1", "A2", "B2", "G2", "A1xA2", "B3")))
    rank = build_root_system(spec).rank
    scale = 10 ** draw(st.integers(0, 6))
    lam = draw(st.tuples(*[st.integers(1, 3).map(lambda c: c * scale)]
                         * rank))
    a = draw(st.sampled_from([(1,), (2,), (1, 1)]))
    b = a if draw(st.booleans()) else ()
    return spec, lam, a, b, draw(st.integers(1, 10 ** 4))


@settings(max_examples=150, deadline=None)
@given(_normal_rows())
@example(("E8", (36,) * 8, (1,), (), 1))
@example(("E8", (40,) * 8, (1,), (), 1))
@example(("E8", (1,) * 8, (1,), (), 9))
def test_value_is_its_log_wherever_that_is_a_normal_float(row):
    # value == copysign(exp(log_abs), pi_sum) to 1e-12 relative wherever
    # that is a normal float: the product of the factors is taken only
    # when it and each factor are normal floats
    spec, lam, a, b, n = row
    rs = build_root_system(spec)
    a, b = CycleType(a), CycleType(b)
    est = (leading_term_K(rs, lam, a, b, n) if b.exps
           else leading_term_I(rs, lam, a, n))
    try:
        want = math.copysign(math.exp(est.log_abs), est.pi_sum)
    except OverflowError:
        want = math.inf
    if sys.float_info.min <= abs(want) < math.inf:
        assert math.isclose(est.value, want, rel_tol=1e-12)
