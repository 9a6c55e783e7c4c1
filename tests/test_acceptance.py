"""Acceptance gate: ten end-to-end criteria, one verdict line apiece.

Every test in this file is one acceptance criterion; the conftest hook turns
each outcome into an ``ACCEPTANCE <name>: PASS|FAIL`` line in the terminal
summary.  Tolerances and time budgets are pinned in-line, and every frozen
constant is backed by an independent oracle in oracles.py.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from liemoments.asymptotics import (ClassFunction, biane_dimension_estimate,
                                    leading_term_I, mehta_closed_form)
from liemoments.charring import (CycleType, exact_moment,
                                 moment_weight_system, product,
                                 trivial_multiplicity)
from liemoments.harness import ExperimentConfig, fit_error_exponent, \
    run_experiment
from liemoments.repweights import a_lambda, weight_system, weyl_dimension
from liemoments.rootsys import build_root_system
from liemoments.torusquad import quad_I_N, quad_K_N

import oracles
from oracles import (det_fraction, mehta_quadrature,
                     permutation_trace_bruteforce)


def test_catalan_exact():
    # two-sided moments of the su(2) standard trace are the Catalan numbers
    rs = build_root_system("A1")
    one = CycleType((1,))
    t0 = time.perf_counter()
    got = [exact_moment(rs, (1,), one.scaled(n), one.scaled(n))
           for n in range(1, 11)]
    elapsed = time.perf_counter() - t0
    assert got == [oracles.catalan(n) for n in range(1, 11)]
    assert got == [oracles.balanced_moment_fourier(n) for n in range(1, 11)]
    assert got[:5] == [1, 2, 5, 14, 42]
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_frobenius_schur_indicators():
    # integral of chi(g^2): +1 real, 0 complex, -1 quaternionic type
    fs = CycleType((0, 1))
    cases = [("A1", (1,), -1),    # defining su(2): quaternionic
             ("A2", (1, 0), 0),   # standard su(3): complex, not self-dual
             ("B2", (0, 1), -1),  # spin(5) spinor: symplectic form
             ("B2", (1, 0), 1)]   # spin(5) vector: real
    for spec, lam, want in cases:
        rs = build_root_system(spec)
        assert exact_moment(rs, lam, fs) == want, (spec, lam)


def test_odd_power_vanishing():
    # any trace monomial of odd total power integrates to exactly zero on
    # the su(2) standard representation (center parity)
    rs = build_root_system("A1")
    for k in (1, 3, 5, 7, 9):
        for exps in oracles.all_cycle_types_with_weight(k):
            assert exact_moment(rs, (1,), CycleType(exps)) == 0, exps
    got = quad_I_N(rs, (1,), CycleType((1, 1)), 1)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_exact_vs_quadrature_agreement():
    # the character-ring and torus-quadrature routes agree to 1e-8 relative
    # on a matrix of cases with N * k_a <= 30
    t0 = time.perf_counter()
    cases = [
        ("A1", (1,), "1", "", (1, 2, 3, 4, 5, 6, 7, 8)),
        ("A1", (1,), "1", "1", (1, 2, 4, 6)),
        ("A1", (1,), "0,1", "", (2, 4, 7)),
        ("A1", (1,), "1,1", "", (2, 4, 6)),
        ("A1", (2,), "1", "", (2, 3, 6)),
        ("A1", (2,), "1", "1", (2, 4)),
        ("A2", (1, 0), "1", "", (3, 6, 9)),
        ("A2", (1, 0), "1", "1", (2, 4)),
        ("A2", (1, 0), "0,0,1", "", (1, 2)),
        ("A2", (1, 1), "1", "", (2, 3)),
        ("A2", (1, 1), "1", "1", (1, 2)),
    ]
    checked = 0
    for spec, lam, a_txt, b_txt, ns in cases:
        rs = build_root_system(spec)
        a, b = CycleType.parse(a_txt), CycleType.parse(b_txt)
        for n in ns:
            assert n * a.weight <= 30
            want = exact_moment(rs, lam, a.scaled(n), b.scaled(n))
            if b.exps:
                got = quad_K_N(rs, lam, a, b, n)
            else:
                got = quad_I_N(rs, lam, a, n)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8), \
                (spec, lam, a_txt, b_txt, n)
            checked += 1
    # one class-function-weighted pair through both routes
    rs = build_root_system("A1")
    f = ClassFunction((((2,), 1.0),))
    total = moment_weight_system(rs, (1,), CycleType((4,)))
    want = trivial_multiplicity(rs, product(total, weight_system(rs, (2,))))
    got = quad_I_N(rs, (1,), CycleType((1,)), 4, f=f)
    assert got == pytest.approx(want, rel=1e-8)
    assert checked >= 25
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_mehta_closed_vs_quadrature():
    t0 = time.perf_counter()
    a1 = build_root_system("A1")
    closed = mehta_closed_form(a1, [[1]])
    assert closed == pytest.approx(4 * math.sqrt(2 * math.pi), rel=1e-12)
    assert mehta_quadrature(a1, [[1]]) == pytest.approx(closed, rel=1e-9)

    # the Hessian-scale form for the balanced adjoint moment with a = b = (1)
    a2 = build_root_system("A2")
    sm = a_lambda(a2, (1, 1))
    scale = (2 * math.pi) ** 2 * (1 + 1)
    d = [[scale * float(x) for x in row] for row in sm.matrix]
    closed2 = mehta_closed_form(a2, d)
    quad2 = mehta_quadrature(a2, d)
    assert closed2 > 0
    assert closed2 == pytest.approx(quad2, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_one_sided_convergence():
    cfg = ExperimentConfig(group="A1", lam=(1,), a=CycleType((1,)),
                           schedule=tuple(range(2, 161, 2)),
                           paths=("exact", "asymptotic"))
    report = run_experiment(cfg)
    assert not report.hypotheses.problems_one_sided
    for row in report.rows:
        assert row.exact == oracles.balanced_moment_fourier(row.n // 2)
        assert row.ratio is not None
        assert abs(row.ratio - 1.0) <= 5.0 / math.sqrt(row.n), row.n
    assert report.fitted_exponent is not None
    assert report.fitted_exponent <= -0.5


def test_two_sided_convergence():
    one = CycleType((1,))
    cfg = ExperimentConfig(group="A1", lam=(1,), a=one, b=one,
                           schedule=tuple(range(2, 161, 2)),
                           paths=("exact", "asymptotic"))
    report = run_experiment(cfg)
    assert not report.hypotheses.problems_two_sided
    for row in report.rows:
        n = row.n
        assert row.exact == oracles.catalan(n)
        want = 4.0 ** n / (math.sqrt(math.pi) * n ** 1.5)
        assert row.estimate.value == pytest.approx(want, rel=1e-12), n
    assert report.fitted_exponent is not None
    assert report.fitted_exponent <= -0.5


def test_invariant_dimension_growth():
    # three independent counts of su(2) spin-1 invariants, plus the
    # leading-order growth estimate converging at an N^(-1/2)-or-better rate
    rs = build_root_system("A1")
    ns = (4, 8, 16, 32, 64, 96, 120)
    errors = []
    for n in ns:
        dim_inv = exact_moment(rs, (2,), CycleType((n,)))
        assert dim_inv == oracles.riordan(n)
        assert dim_inv == oracles.su2_ladder_invariants(2, n)
        est = biane_dimension_estimate(rs, (2,), n)
        errors.append(abs(dim_inv / est - 1.0))
    slope = fit_error_exponent(list(ns), errors)
    assert slope is not None and slope <= -0.5, (slope, errors)


def test_permutation_trace_model():
    # the combinatorial model for trace monomials: contracting B^{x k} along
    # a permutation of cycle type a gives prod_j Tr(B^j)^{a_j}
    rng = np.random.default_rng(20250311)
    types = [t for k in range(1, 7)
             for t in oracles.all_cycle_types_with_weight(k)]
    for trial in range(100):
        d = int(rng.integers(2, 4))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = CycleType(types[int(rng.integers(len(types)))])
        want = 1.0 + 0.0j
        p = np.eye(d, dtype=complex)
        for j, aj in enumerate(a.exps, start=1):
            p = p @ b
            want *= np.trace(p) ** aj
        got = permutation_trace_bruteforce([list(row) for row in b], a)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (trial, a)


def test_structural_invariants():
    # (a) center orders across the classification, tied to the Cartan
    # determinant and the invariant-factor product
    expected = {"A1": 2, "A5": 6, "B4": 2, "C3": 2, "D4": 4, "D5": 4,
                "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1, "A2xB2": 6}
    for spec, order in expected.items():
        rs = build_root_system(spec)
        assert rs.center.order == order, spec
        assert math.prod(rs.center.invariant_factors) == order, spec
        det = det_fraction([[Fraction(x) for x in row] for row in rs.cartan])
        assert det == order, spec

    # (b) weight-system sum rules on random dominant weights
    rng = np.random.default_rng(987123)
    checked = 0
    while checked < 50:
        spec = ("A1", "A2", "B2")[int(rng.integers(3))]
        rs = build_root_system(spec)
        lam = tuple(int(rng.integers(0, 7)) for _ in range(rs.rank))
        if weyl_dimension(rs, lam) > 10_000:
            continue
        ws = weight_system(rs, lam)
        assert sum(ws.entries.values()) == weyl_dimension(rs, lam)
        for i in range(rs.rank):
            assert sum(m * w[i] for w, m in ws.entries.items()) == 0
        checked += 1

    # (c) the leading term is coordinate free: rebuild it from scratch in 20
    # random unimodular re-coordinatizations
    cases = [("A1", (1,), CycleType((1,)), 2),
             ("A1", (3,), CycleType((1, 1)), 2),
             ("A1", (2,), CycleType((2,)), 4),
             ("A2", (1, 1), CycleType((1,)), 2),
             ("A2", (2, 2), CycleType((1,)), 2),
             ("A2", (2, 1), CycleType((1,)), 3),
             ("A2", (1, 1), CycleType((2,)), 3),
             ("B2", (1, 1), CycleType((1,)), 2),
             ("B2", (2, 1), CycleType((1, 1)), 2),
             ("G2", (1, 1), CycleType((1,)), 2)]
    rng2 = np.random.default_rng(555)
    for trial in range(20):
        spec, lam, a, n = cases[trial % len(cases)]
        rs = build_root_system(spec)
        u = oracles.random_unimodular(rng2, rs.rank)
        est = leading_term_I(rs, lam, a, n)
        assert est.pi_sum.real != 0
        rebuilt = oracles.reassembled_leading_value(rs, lam, a, n, u)
        assert rebuilt == pytest.approx(est.value, rel=1e-12), (spec, trial)
