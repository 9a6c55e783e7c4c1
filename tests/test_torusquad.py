import functools
import itertools
import json
import math
import os
import resource
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from liemoments import charring, harness, repweights, rootsys, torusquad
from liemoments.asymptotics import ClassFunction
from liemoments.charring import CycleType, adams, exact_moment
from liemoments.repweights import WeightSystem, weight_system, weyl_dimension
from liemoments.rootsys import (build_root_system, dominant_representative,
                                simple_factors)
from liemoments.torusquad import (GridError, TorusGrid, _check_phase_range,
                                  character_at, default_grid, quad_I_N,
                                  quad_K_N, required_bandwidth,
                                  weyl_denominator_sq)

import oracles
from oracles import mehta_quadrature, reflect_covector


def test_point_budget_refuses_e6_rho_without_a_weight_system(monkeypatch):
    # the bandwidth comes from root data, so the budget refuses before any
    # orbit walk (the E6 rho weight system has 1,246,933 weights)
    def refuse(*args, **kwargs):
        raise AssertionError("the bandwidth built a weight system")

    for module in (repweights, charring, torusquad):
        monkeypatch.setattr(module, "weight_system", refuse)
    rs = build_root_system("E6")
    with pytest.raises(GridError, match="points, budget is 4000000"):
        quad_I_N(rs, rs.rho, CycleType((1,)), 1)


def test_point_budget_refuses_e6_rho_on_a_polytope_grid():
    # the polytope bound of E6 rho, I_1 is 18 on every axis: 19^6 torus
    # points, still far over the budget (the per-axis grid was larger)
    rs = build_root_system("E6")
    a, b, one = CycleType((1,)), CycleType(()), ClassFunction.one(6)
    assert required_bandwidth(rs, rs.rho, a, b, 1, one) == (18,) * 6
    assert default_grid(rs, rs.rho, a, b, 1).sizes == (19,) * 6
    assert all(x > 18 for x in oracles.per_axis_bandwidth(
        rs, rs.rho, a, b, 1, one))


# Every supported simple type of rank <= 4, with the trace patterns and
# class functions of the bandwidth checks below.
BANDWIDTH_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                   "D4", "F4", "G2"]
PATTERNS = [CycleType(e) for e in ((), (1,), (0, 1), (1, 1))]


def _bandwidth_cases(rs):
    """(lam, f) for lam in {0,1,2}^r (|lam| <= 2 at rank 4), with f the
    constant 1 and a two-term f with nu != 0."""
    for lam in itertools.product(range(3), repeat=rs.rank):
        if rs.rank == 4 and sum(lam) > 2:
            continue
        yield lam, ClassFunction.one(rs.rank)
        yield lam, ClassFunction(((lam, 1.0), (lam[::-1], -2.0)))


@pytest.mark.parametrize("spec", BANDWIDTH_TYPES)
def test_polytope_bound_never_exceeds_per_axis_bound(spec):
    # no default grid grows and no new refusal appears; on A1 the polytope
    # is the interval, and the two bounds agree
    rs = build_root_system(spec)
    for lam, f in _bandwidth_cases(rs):
        for a, b in itertools.product(PATTERNS, repeat=2):
            for n in range(5):
                new = required_bandwidth(rs, lam, a, b, n, f)
                old = oracles.per_axis_bandwidth(rs, lam, a, b, n, f)
                assert all(x <= y for x, y in zip(new, old)), \
                    (lam, a, b, n, f)
                if spec == "A1":
                    assert new == old


@functools.cache
def _fundamental_root_coords(rs):
    """omega_i on the simple roots, solved in Fractions, per i."""
    return [oracles.solve_fraction(rs.cartan,
                                   [int(j == i) for j in range(rs.rank)])
            for i in range(rs.rank)]


def _largest_fundamental_multiples(rs, top):
    """Per i the largest m with m omega_i in conv(W top), for the dominant
    weight ``top`` of the simple group ``rs``: a dominant point lies in the
    hull iff top minus it has nonnegative coordinates on the simple roots.
    Exact Fractions."""
    base = oracles.solve_fraction(rs.cartan, list(top))
    return [min(x / y for x, y in zip(base, omega))
            for omega in _fundamental_root_coords(rs)]


@pytest.mark.parametrize("spec", BANDWIDTH_TYPES + ["A1xA2", "A1xB2"])
def test_polytope_bound_is_the_last_multiple_in_the_hull(spec):
    # at m = bound some m omega_i lies in conv(W Lam) for some term of f,
    # at bound + 1 none does: the bound is attained, and a grid of one more
    # point per axis meets the hull of every term only at 0
    rs = build_root_system(spec)
    a, b = CycleType((1,)), CycleType((0, 1))
    for lam, f in _bandwidth_cases(rs):
        if sum(lam) > 2:
            continue
        for n in (1, 3):
            bw = required_bandwidth(rs, lam, a, b, n, f)
            dual = dominant_representative(rs, tuple(-c for c in lam))[0]
            for block, rs_k in simple_factors(rs):
                (m,) = {bw[i] for i in block}
                tops = [[n * (a.weight * lam[i] + b.weight * dual[i])
                         + nu[i] + 2 for i in block] for nu, _ in f.terms]
                largest = [x for top in tops
                           for x in _largest_fundamental_multiples(rs_k, top)]
                assert any(m <= x for x in largest), (lam, n, f)
                assert not any(m + 1 <= x for x in largest), (lam, n, f)


def test_required_bandwidth_a1():
    rs = build_root_system("A1")
    one = ClassFunction.one(1)
    bw = required_bandwidth(rs, (1,), CycleType((1,)), CycleType(()), 3, one)
    # trace part 3 * 1, single positive root contributes |2|
    assert bw == (5,)
    bw2 = required_bandwidth(rs, (1,), CycleType((1,)), CycleType((1,)), 3,
                             one)
    assert bw2 == (8,)
    withf = required_bandwidth(rs, (1,), CycleType((1,)), CycleType(()), 3,
                               ClassFunction((((2,), 1.0),)))
    assert withf == (7,)


def test_default_grid_exceeds_bandwidth():
    # the default grid is the bound plus one on every axis, unrounded:
    # A3 adjoint K_6 has bound 20 and gets 21 points per axis
    a, e = CycleType((1,)), CycleType(())
    cases = [("A2", (1, 1), e, n, None) for n in (1, 2, 5)]
    cases += [("A3", (1, 0, 1), a, 6, (21, 21, 21)),
              ("A1xA2", (1, 1, 1), a, 4, (11, 16, 16))]
    for spec, lam, b, n, sizes in cases:
        rs = build_root_system(spec)
        grid = default_grid(rs, lam, a, b, n)
        bw = required_bandwidth(rs, lam, a, b, n, ClassFunction.one(rs.rank))
        assert grid.sizes == tuple(x + 1 for x in bw)
        assert sizes in (None, grid.sizes)
        assert grid.num_points == math.prod(grid.sizes)


def test_grid_alias_refusal_names_required_sizes():
    rs = build_root_system("A1")
    small = TorusGrid(sizes=(4,))
    with pytest.raises(GridError) as err:
        quad_I_N(rs, (1,), CycleType((1,)), 3, grid=small)
    assert "(6,)" in str(err.value)


def random_grid_point(rng, rank):
    """A rational torus point k / m: integer k (any sign, past one period)
    and m in 2..60."""
    m = int(rng.integers(2, 61))
    return tuple(int(x) for x in rng.integers(-2 * m, 2 * m, rank)), m


def test_character_at_identity_is_dimension():
    for spec, lam in [("A1", (4,)), ("A2", (1, 1)), ("B2", (1, 0)),
                      ("G2", (1, 0))]:
        rs = build_root_system(spec)
        ws = weight_system(rs, lam)
        for m in (1, 7, 12):
            val = character_at(ws, (0,) * rs.rank, m)
            assert val == pytest.approx(weyl_dimension(rs, lam), rel=1e-13)


def test_character_weyl_invariance():
    rng = np.random.default_rng(20240817)
    for spec, lam in [("A2", (2, 1)), ("B2", (1, 1))]:
        rs = build_root_system(spec)
        ws = weight_system(rs, lam)
        for _ in range(5):
            k, m = random_grid_point(rng, rs.rank)
            base = character_at(ws, k, m)
            for i in range(rs.rank):
                refl = reflect_covector(rs, k, i)
                assert character_at(ws, refl, m) == pytest.approx(base,
                                                                  abs=1e-9)


def test_character_adams_compatibility():
    rs = build_root_system("A2")
    ws = weight_system(rs, (1, 0))
    rng = np.random.default_rng(7)
    for j in (2, 3):
        dil = adams(ws, j)
        for _ in range(4):
            k, m = random_grid_point(rng, 2)
            scaled = tuple(j * x for x in k)
            assert character_at(dil, k, m) == pytest.approx(
                character_at(ws, scaled, m), abs=1e-10)


def test_weyl_denominator_sq():
    rs = build_root_system("A2")
    assert weyl_denominator_sq(rs, (0, 0), 12) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        k, m = random_grid_point(rng, 2)
        assert weyl_denominator_sq(rs, k, m) >= 0.0


@pytest.mark.parametrize("spec, lam", [("A2", (2, 1)), ("B2", (1, 1)),
                                       ("G2", (1, 0))])
def test_array_form_matches_point_form(spec, lam):
    rs = build_root_system(spec)
    ws = weight_system(rs, lam)
    rng = np.random.default_rng(29)
    m = 37
    pts = rng.integers(-2 * m, 2 * m, (16, rs.rank))
    chi = character_at(ws, pts, m)
    dsq = weyl_denominator_sq(rs, pts, m)
    assert chi.shape == dsq.shape == (16,)
    for i, k in enumerate(pts):
        one_chi = character_at(ws, k, m)
        one_dsq = weyl_denominator_sq(rs, k, m)
        assert isinstance(one_chi, complex) and isinstance(one_dsq, float)
        assert chi[i] == pytest.approx(one_chi, abs=1e-12)
        assert dsq[i] == pytest.approx(one_dsq, abs=1e-12)
        phi = tuple(int(x) / m for x in k)
        assert one_chi == pytest.approx(
            oracles.character_sum(ws.entries, phi), abs=1e-12)
        assert one_dsq == pytest.approx(
            oracles.denominator_product(rs, phi), abs=1e-12)
    # the quadrature integrand evaluates Adams dilates this way
    for j in (2, 3):
        np.testing.assert_allclose(character_at(adams(ws, j), pts, m),
                                   character_at(ws, j * pts, m), atol=1e-10)


def test_shift_by_a_period_gives_identical_bits():
    # phases are integers mod m, so k and k + m e_i index the same tables
    rng = np.random.default_rng(11)
    for spec, lam in [("A2", (2, 1)), ("G2", (1, 1)), ("B3", (0, 1, 1))]:
        rs = build_root_system(spec)
        ws = weight_system(rs, lam)
        m = 31
        pts = rng.integers(-2 * m, 2 * m, (20, rs.rank))
        chi = character_at(ws, pts, m)
        dsq = weyl_denominator_sq(rs, pts, m)
        for i in range(rs.rank):
            shifted = pts.copy()
            shifted[:, i] += m * rng.integers(-3, 4, len(pts))
            assert np.array_equal(character_at(ws, shifted, m), chi)
            assert np.array_equal(weyl_denominator_sq(rs, shifted, m), dsq)


def test_quadrature_bits_are_pinned():
    # data/quad_bits.py writes the repr of about thirty values and refusals
    # (one-N calls, sweeps on default and caller grids, Adams degree 2, a
    # zero moment, F4); a change of the arithmetic shows as a changed byte
    script = runpy.run_path(str(Path(__file__).parent / "data"
                                / "quad_bits.py"))
    assert script["text"]() == script["PATH"].read_text()


@pytest.mark.parametrize("least", [0, torusquad._MAX_POINTS + 1])
def test_quadrature_bits_are_pinned_on_both_sum_paths(monkeypatch, least):
    # every alcove summed in exponent bins, then every alcove summed by
    # fsum over a list: both are exactly rounded, so each pinned row reads
    # the same bytes either way
    monkeypatch.setattr(torusquad, "_BINNED_SUM_MIN", least)
    script = runpy.run_path(str(Path(__file__).parent / "data"
                                / "quad_bits.py"))
    assert script["text"]() == script["PATH"].read_text()


def test_large_alcoves_never_reach_fsum_as_lists(monkeypatch):
    # the A3 adjoint sweep's bands sum alcoves of 2670, 1015, 285, 91 and
    # 22 points; math.fsum sees the values of those below _BINNED_SUM_MIN
    # and only the few nonzero bin sums of the others
    alcoves, least = {22, 91, 285, 1015, 2670}, torusquad._BINNED_SUM_MIN
    lengths, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: lengths.append(len(xs))
                        or fsum(xs))
    rs, one = build_root_system("A3"), CycleType((1,))
    f = ClassFunction((((0, 0, 0), 3.0),))
    assert all(isinstance(v, float) for v in torusquad.quad_sequence(
        rs, (1, 0, 1), one, one, range(2, 15, 2), f))
    assert len(lengths) == 7
    assert set(lengths) & alcoves == {n for n in alcoves if n < least}


def test_sweep_checks_lam_and_each_term_once(monkeypatch):
    # quad_sequence checks lam and each term's highest weight once and
    # sizes every row from the checked weights (when each row's bandwidth
    # checked them again, this sweep made 16 checks)
    checked, check = [], torusquad.check_dominant_integral
    monkeypatch.setattr(torusquad, "check_dominant_integral",
                        lambda rs, lam: checked.append(lam) or check(rs, lam))
    rs, one = build_root_system("A3"), CycleType((1,))
    f = ClassFunction((((0, 0, 0), 3.0),))
    rows = list(torusquad.quad_sequence(rs, (1, 0, 1), one, one,
                                        range(2, 15, 2), f))
    assert checked == [(1, 0, 1), (0, 0, 0)]
    assert len(rows) == 7
    rs = build_root_system("A1xA2")
    f = ClassFunction((((0, 0, 0), 2.0), ((0, 1, 1), 5.0)))
    grid = default_grid(rs, (1, 1, 1), one, one, 4, f)
    checked.clear()
    list(torusquad.quad_sequence(rs, (1, 1, 1), one, one, (1, 2, 4), f,
                                 grid))
    assert checked == [(1, 1, 1), (0, 0, 0), (0, 1, 1)]


def test_public_bandwidth_and_grid_still_check_their_weights():
    rs, one = build_root_system("A2"), CycleType((1,))
    bad = ClassFunction((((0, -1), 1.0),))
    for call in (lambda: required_bandwidth(rs, (1, 0), one, one, 2, bad),
                 lambda: default_grid(rs, (1, 0), one, one, 2, bad),
                 lambda: default_grid(rs, (1, 0, 0), one, one, 2)):
        with pytest.raises(rootsys.ConfigurationError):
            call()


def test_phase_tables_are_exact_mirrors():
    # t and m - t read one table entry: equal 4 sin^2 and conjugate phases,
    # the half turn -1 exactly; 4 sin^2 is never formed from an angle near
    # pi, so it stays within 4 ulp (eps * value) of the correctly rounded one
    for m in [*range(1, 65), 97, 360, 517, 731, 997, 1000]:
        pts = torusquad._GridPoints.of(np.zeros((1, 1), dtype=np.int64), m)
        t = np.arange(1, m)
        assert np.array_equal(pts.circle[m - t], pts.circle[t].conj())
        assert np.array_equal(pts.four_sin_sq[m - t], pts.four_sin_sq[t])
        assert pts.circle[0] == 1 and pts.four_sin_sq[0] == 0
        if m % 2 == 0:
            assert pts.circle[m // 2] == -1
        with mpmath.workdps(30):
            for j in range(1, m // 2 + 1):
                exact = 4 * mpmath.sin(mpmath.pi * j / m) ** 2
                err = abs(mpmath.mpf(float(pts.four_sin_sq[j])) - exact)
                assert err <= 4 * 2.0 ** -52 * exact, (m, j)
    # both tables come from the one angle array pi t / m, doubled for the
    # phases: the bits of forming 2 pi t / m on its own
    for m in range(1, 4097):
        got = torusquad._phase_tables(m)
        want = oracles.two_angle_phase_tables(m)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want], m


def test_evaluators_refuse_non_integer_points_and_sizes():
    rs = build_root_system("A2")
    ws = weight_system(rs, (1, 0))
    with pytest.raises(TypeError, match="signed integers"):
        character_at(ws, (0.5, 0.0), 12)
    with pytest.raises(TypeError, match="signed integers"):
        weyl_denominator_sq(rs, np.zeros((3, 2), dtype=np.uint8), 12)
    with pytest.raises(GridError, match="grid size must be >= 1"):
        character_at(ws, (0, 0), 0)


def test_zero_character_is_zero_everywhere():
    # zero multiplicities are dropped, so the zero virtual character has no
    # weights to read a rank from
    zero = WeightSystem({(1, 0): 0})
    assert zero == WeightSystem({})
    val = character_at(zero, (3, -1), 7)
    assert isinstance(val, complex) and val == 0
    pts = np.arange(10, dtype=np.int64).reshape(5, 2)
    vals = character_at(zero, pts, 7)
    assert vals.shape == (5,) and not vals.any()
    with pytest.raises(GridError, match="grid size must be >= 1"):
        character_at(zero, (0, 0), 0)


class _Untouchable:
    """Grid points that fail the test if anything converts them."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("points were read before the range check")

    def __len__(self):
        raise AssertionError("points were read before the range check")


def test_int64_phase_guard_refuses_before_reading_points(monkeypatch):
    rs = build_root_system("E8")
    ws = weight_system(rs, (0, 0, 0, 0, 0, 0, 0, 1))
    m = 2 ** 32  # 8 * (m - 1)^2 > 2^63 - 1
    for call in (lambda: character_at(ws, _Untouchable(), m),
                 lambda: weyl_denominator_sq(rs, _Untouchable(), m)):
        with pytest.raises(GridError, match="overflow int64"):
            call()
    # quadrature refuses such a grid before it enumerates a point
    def enumerate_alcove(*args):
        raise AssertionError("the alcove was enumerated")

    monkeypatch.setattr(torusquad, "_alcove_factor", enumerate_alcove)
    monkeypatch.setattr(torusquad, "_MAX_POINTS", 2 ** 64)
    with pytest.raises(GridError, match="overflow int64"):
        quad_I_N(build_root_system("A1"), (1,), CycleType((1,)), 1,
                 grid=TorusGrid(sizes=(2 ** 32,)))
    # the bound is exact: the largest size that cannot overflow on rank 8
    # passes (checked without building its phase tables)
    top = math.isqrt((2 ** 63 - 1) // 8) + 1
    _check_phase_range(8, top)
    with pytest.raises(GridError, match="overflow int64"):
        _check_phase_range(8, top + 1)


def test_grid_with_wrong_axis_count_is_refused():
    rs = build_root_system("A2")
    a = CycleType((1,))
    flat = TorusGrid(sizes=(64,))
    with pytest.raises(GridError, match="has rank 2"):
        quad_K_N(rs, (1, 0), a, a, 2, grid=flat)


def test_one_sided_is_two_sided_with_empty_b():
    rs = build_root_system("A2")
    f = ClassFunction((((1, 1), 2.0),))
    for a, n in ((CycleType((1,)), 3), (CycleType((0, 1)), 2)):
        assert quad_K_N(rs, (1, 1), a, CycleType(()), n, f=f) == \
            quad_I_N(rs, (1, 1), a, n, f=f)


def test_quadrature_of_constant_is_one():
    # with all exponents zero the integrand reduces to the normalized
    # squared Weyl denominator, whose Haar mass is exactly 1
    for spec in ("A1", "A2", "B2"):
        rs = build_root_system(spec)
        lam = (1,) * rs.rank
        got = quad_I_N(rs, lam, CycleType(()), 0)
        assert got == pytest.approx(1.0, rel=1e-12)


def test_quad_matches_exact_small_cases():
    cases = [
        ("A1", (1,), CycleType((2,)), 2),
        ("A1", (2,), CycleType((1,)), 4),
        ("A2", (1, 0), CycleType((0, 0, 1)), 2),
        ("A2", (1, 1), CycleType((1,)), 2),
        ("B2", (0, 1), CycleType((1,)), 4),
    ]
    for spec, lam, a, n in cases:
        rs = build_root_system(spec)
        want = exact_moment(rs, lam, a.scaled(n))
        got = quad_I_N(rs, lam, a, n)
        assert got == pytest.approx(want, abs=1e-8 * max(1, want))


def test_quad_two_sided_catalan():
    rs = build_root_system("A1")
    one = CycleType((1,))
    for n in (1, 2, 3, 4):
        got = quad_K_N(rs, (1,), one, one, n)
        assert got == pytest.approx(oracles.catalan(n), rel=1e-12)


def test_quad_grid_doubling_invariance():
    rs = build_root_system("A2")
    a = CycleType((1,))
    grid = default_grid(rs, (1, 0), a, a, 3)
    dense = TorusGrid(sizes=tuple(2 * s for s in grid.sizes))
    v1 = quad_K_N(rs, (1, 0), a, a, 3, grid=grid)
    v2 = quad_K_N(rs, (1, 0), a, a, 3, grid=dense)
    # a caller grid with the default sizes is the default grid
    assert v1 == quad_K_N(rs, (1, 0), a, a, 3)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_quad_with_class_function_factor():
    # weighting by an extra character picks out the matching isotypic piece
    rs = build_root_system("A1")
    f = ClassFunction((((2,), 1.0),))
    got = quad_I_N(rs, (1,), CycleType((2,)), 1, f=f)
    # tr(U)^2 * chi_2(U): the square decomposes as chi_2 + chi_0, and
    # chi_2 * chi_2 contains the trivial exactly once
    assert got == pytest.approx(1.0, rel=1e-12)


def test_kernel_bound_attained_only_at_center():
    # |character| is maximized exactly at central torus points; scan a grid
    # commensurate with the center to hit them
    rs = build_root_system("A2")
    ws = weight_system(rs, (1, 0))
    dim = weyl_dimension(rs, (1, 0))
    m = 12  # divisible by the center order 3
    hits = []
    for i in range(m):
        for j in range(m):
            if abs(character_at(ws, (i, j), m)) > dim - 1e-9:
                hits.append((i, j))
    assert len(hits) == 3
    for k in hits:
        assert all(3 * Fraction(x, m) % 1 == 0 for x in k)


def test_kernel_bound_a1():
    rs = build_root_system("A1")
    ws = weight_system(rs, (1,))
    m = 10
    vals = [abs(character_at(ws, (i,), m)) for i in range(m)]
    assert max(vals) == pytest.approx(2.0, abs=1e-12)
    hits = [i for i, v in enumerate(vals) if v > 2.0 - 1e-9]
    assert hits == [0, 5]


def test_magnitude_refusal():
    rs = build_root_system("A1")
    with pytest.raises(GridError) as err:
        quad_I_N(rs, (1,), CycleType((1,)), 1200)
    assert "float budget" in str(err.value)


def test_point_budget_refusal(monkeypatch):
    rs = build_root_system("A1")
    monkeypatch.setattr(torusquad, "_MAX_POINTS", 4)
    with pytest.raises(GridError) as err:
        quad_I_N(rs, (1,), CycleType((1,)), 3)
    assert "budget" in str(err.value)


def test_point_budget_is_read_at_call_time(monkeypatch):
    # the budget is a module constant read by each call, not a default
    # bound when the function was defined
    assert torusquad._MAX_POINTS == 4_000_000
    monkeypatch.setattr(torusquad, "_MAX_POINTS", 180)
    one = CycleType((1,))
    (row,) = torusquad.quad_sequence(build_root_system("A2"), (1, 0), one,
                                     one, (7,))
    assert str(row) == "grid has 196 points, budget is 180"
    with pytest.raises(GridError, match=r"puts up to 200 points in the "
                                        r"alcove .* budget is 180$"):
        torusquad._factor_grids(build_root_system("A1"), (400,))


@pytest.mark.parametrize("n, top", [(2, 12), (3, 6), (4, 3)])
def test_quadrature_of_pure_adams_rows_is_rains_multinomial_sum(n, top):
    # SU(n)'s standard representation with a = b = e_n: chi(g^n) is
    # synthesised as the character of psi^n V (the weights times n), and
    # K_N is Rains's multinomial sum; A1 at N = 12 is C(24, 12)
    rs = build_root_system(f"A{n - 1}")
    e_n = CycleType((0,) * (n - 1) + (1,))
    ns = range(1, top + 1)
    values = list(torusquad.quad_sequence(rs, (1,) + (0,) * (n - 2), e_n,
                                          e_n, ns))
    assert values == pytest.approx([oracles.rains_moment(n, n, size)
                                    for size in ns], rel=1e-9)
    if n == 2:
        assert values[-1] == pytest.approx(math.comb(24, 12), rel=1e-9)


def _double_factorial_or_zero(n):
    return math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0


@pytest.mark.parametrize("spec, two_sided, top, oracle", [
    # Sp(6) and Sp(8): perfect matchings of [N] with no 4- or 5-crossing
    # (C3 gives 104 and 909 at N = 8 and 10, below (N - 1)!!)
    ("C3", False, 10, functools.partial(oracles.crossing_free_matchings, 3)),
    ("C4", False, 8, functools.partial(oracles.crossing_free_matchings, 4)),
    # SU(3): permutations of N with no increasing subsequence longer than 3
    ("A2", True, 8, functools.partial(oracles.bounded_lis_count, 3)),
    # SO(7) and SO(8): (N - 1)!! or 0 below the epsilon bound, then the
    # first epsilon row (B3 I_7 = 1, D4 I_8 = 106)
    ("B3", False, 7, lambda n: 1 if n == 7 else _double_factorial_or_zero(n)),
    ("D4", False, 8,
     lambda n: 106 if n == 8 else _double_factorial_or_zero(n)),
])
def test_quadrature_of_standard_rows_matches_classical_counts(spec,
                                                              two_sided, top,
                                                              oracle):
    # lam = omega_1 and a = (1), with b = (1) on A2: a sweep over N = 1..top
    # gives each count to 1e-9 relative, and each zero row below 1e-12
    rs = build_root_system(spec)
    a = CycleType((1,))
    ns = range(1, top + 1)
    values = list(torusquad.quad_sequence(
        rs, (1,) + (0,) * (rs.rank - 1), a, a if two_sided else CycleType(()),
        ns))
    for n, value in zip(ns, values):
        want = oracle(n)
        if want:
            assert value == pytest.approx(want, rel=1e-9)
        else:
            assert abs(value) < 1e-12


def _run_in_capped_child(args):
    """``python *args`` with ``src`` on the path, in a child whose address
    space is capped at 2 GiB (set in the child only), with one BLAS thread
    and a timeout."""
    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30,
                                                                    hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=60,
                          check=False)


_A6_RHO_AT_23 = """
import sys
from liemoments import torusquad
from liemoments.repweights import weight_system
from liemoments.rootsys import build_root_system
rs = build_root_system("A6")
try:
    torusquad.character_at(weight_system(rs, rs.rho),
                           torusquad._alcove_factor(rs, 23), 23)
except torusquad.GridError as exc:
    sys.exit(f"error: {exc}")
"""


@pytest.mark.parametrize("args, message", [
    # A2 (60, 60) K_2 passes every other check; its walk would hold
    # 21,901 x 10,981 int64 phases (1.92 GB), then gather a 3.58 GiB
    # complex table
    (["-m", "liemoments", "quad", "--group", "A2", "--lam", "60,60",
      "--a", "1", "--b", "1", "--N", "2"],
     "the phases held on an alcove walk of 21901 points would take "
     "1924484672 bytes"),
    # A6 rho (36,961 weights) on the 10,659 alcove points at m = 23: 2.94
    # GiB of int64 phases on caller points
    (["-c", _A6_RHO_AT_23],
     "the phases of 36961 vectors at 10659 points would take 3151738392 "
     "bytes"),
    # A1 (1), a = e_20000, I_1: the walk's 10,001 points hold small
    # phases, but the table of m = 20,003 entries repeated over their
    # range would take 2.98 GiB
    (["-m", "liemoments", "quad", "--group", "A1", "--lam", "1", "--a",
      ",".join(["0"] * 19999 + ["1"]), "--N", "1"],
     "a table of 20003 phases repeated over phases -200020000..200020000 "
     "would take 3200480000 bytes"),
], ids=["quad-A2-60-60-K2", "character_at-A6-rho-m23", "quad-A1-e20000"])
def test_byte_budget_refuses_before_allocating(args, message):
    # each input exits 1 with the byte budget's message under a 2 GiB
    # address space, where the allocation it refuses would fail
    proc = _run_in_capped_child(args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.endswith(
        f"error: {message}, byte budget is {torusquad._MAX_BYTES}\n")
    assert "Traceback" not in proc.stderr
    assert "MemoryError" not in proc.stderr


# A1 V_(1), a = b = (1): the integrand passes the float budget, but each f
# takes the sum past the float range.  The true K_2 of the second, -1e308,
# is finite, and quad answers it; exact answers both as integers.
_PAST_FLOAT_F = ["0:1e308; 2:1e308", "0:1e308; 2:-1e308"]
_QUAD_PAST_FLOAT = ("the terms of f take the quadrature sum past the float "
                    "range; refusing rather than return a non-finite value")
_ASYM_PAST_FLOAT = ("the terms of f take the central sum past the float "
                    "range; refusing rather than return a non-finite "
                    "leading term")


@pytest.mark.parametrize("f", _PAST_FLOAT_F)
@pytest.mark.parametrize("command, message", [
    ("quad", _QUAD_PAST_FLOAT), ("asym", _ASYM_PAST_FLOAT)],
    ids=["quad", "asym"])
def test_sum_past_the_float_range_is_refused(command, message, f):
    # the one-N commands exit 1 with the refusal, not inf or nan; quad
    # answers the finite -1e308, whose unnormalised sum alone is past it
    proc = _run_in_capped_child(
        ["-m", "liemoments", command, "--group", "A1", "--lam", "1", "--a",
         "1", "--b", "1", "--N", "2", "--f", f])
    if command == "quad" and f == _PAST_FLOAT_F[1]:
        one = CycleType((1,))
        exact = harness.route_value("exact", build_root_system("A1"), (1,),
                                    one, one, 2,
                                    harness.parse_class_function(f, 1))
        assert proc.returncode == 0, proc.stderr
        assert math.isclose(float(proc.stdout), exact, rel_tol=1e-9)
        return
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


_B = "1" + "0" * 309     # 10^309, an integer past the float range
_A1 = ["--group", "A1", "--lam", "1", "--a"]
_LOG_POWER_PAST_FLOAT = ("N (|a| + |b|) log dim V_lam is past the float "
                         "range; refusing rather than return a non-finite "
                         "leading term")


@pytest.mark.parametrize("command, args, message", [
    # dim V_nu = 10^309 + 1 is past the float range: c dim V_nu is inf
    ("asym", _A1 + ["1", "--N", "2", "--f", f"{_B}:1"], _ASYM_PAST_FLOAT),
    ("asym", ["--group", "E8", "--lam", "1,1,1,1,1,1,1,1", "--a", "1", "--b",
              "1", "--N", "1", "--f", ",".join(["400"] * 8) + ":1"],
     _ASYM_PAST_FLOAT),
    # N or a past the float range, and N log dim V past it at N = 10^308
    ("asym", _A1 + ["1", "--N", _B], _LOG_POWER_PAST_FLOAT),
    ("asym", _A1 + [_B, "--N", "1"], _LOG_POWER_PAST_FLOAT),
    ("asym", ["--group", "A1", "--lam", "10", "--a", "1", "--N", _B[:-1]],
     _LOG_POWER_PAST_FLOAT),
    ("quad", _A1 + ["1", "--b", "1", "--N", _B],
     f"integrand magnitude exp(inf) exceeds the float budget "
     f"exp({torusquad._MAX_LOG}); refusing rather than overflow"),
], ids=["asym-f-B", "asym-E8-f-400", "asym-N-B", "asym-a-B",
        "asym-lam-10-N-1e308", "quad-N-B"])
def test_inputs_past_the_float_range_are_refused(command, args, message):
    # each exits 1 with its route's float-range refusal, not an
    # OverflowError traceback or a JSON encoder error
    proc = _run_in_capped_child(["-m", "liemoments", command, *args])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {message}\n")


@pytest.mark.parametrize("args, value, log_abs", [
    # at N = 1 the term of dim 10^309 + 1 fails the class test
    (_A1 + ["1", "--N", "1", "--f", f"{_B}:1"], 0.0, None),
    # 2 pi l N is past the float range; its log is not
    (_A1 + ["1", "--N", _B[:-1]], None, 6.931471805599452e+307),
], ids=["asym-f-B-N-1", "asym-N-1e308"])
def test_asym_inputs_past_the_float_range_are_answered(args, value, log_abs):
    proc = _run_in_capped_child(["-m", "liemoments", "asym", *args])
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(proc.stdout)
    assert (data["value"], data["log_abs_value"]) == (value, log_abs)


@pytest.mark.parametrize("f", _PAST_FLOAT_F)
def test_converge_renders_rows_past_the_float_range(tmp_path, f):
    # the JSON report keeps every row: the exact integers, and the quad and
    # asymptotic refusals as notes, each that of its one-N call; quad
    # answers the rows of the second f whose value is finite, N = 1 and 2
    config = tmp_path / "past.cfg"
    config.write_text(f"group = A1\nlambda = 1\na = 1\nb = 1\nN = 1:3\n"
                      f"f = {f}\npaths = exact, quad, asymptotic\n"
                      f"format = json\n")
    proc = _run_in_capped_child(["-m", "liemoments", "converge",
                                 str(config)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert [row["N"] for row in rows] == [1, 2, 3]
    rs, one = build_root_system("A1"), CycleType((1,))
    cf = harness.parse_class_function(f, 1)
    scale = sum(abs(c) * weyl_dimension(rs, nu) for nu, c in cf.terms)
    # K_3 of the second f, -4e308, refuses and tops the band of N = 1..3
    top = default_grid(rs, (1,), one, one, 3, cf)
    for row in rows:
        n = row["N"]
        exact = harness.route_value("exact", rs, (1,), one, one, n, cf)
        assert type(row["exact"]) is int and row["exact"] == exact
        assert row["estimate"] is None
        answers = f == _PAST_FLOAT_F[1] and n < 3
        if answers:
            # summed on the band top's grid, as quad_sequence documents
            assert row["quad"] == quad_K_N(rs, (1,), one, one, n, cf,
                                           grid=top)
            assert abs(row["quad"] - exact) <= 1e-12 * scale
            assert abs(quad_K_N(rs, (1,), one, one, n, cf) - exact) \
                <= 1e-12 * scale
        else:
            assert row["quad"] is None
        notes = []
        for path in ("quad", "asymptotic")[answers:]:
            with pytest.raises(ValueError) as one_n:
                harness.route_value(path, rs, (1,), one, one, n, cf)
            notes.append(f"{path} skipped: {one_n.value}")
        assert row["notes"] == notes == [f"quad skipped: {_QUAD_PAST_FLOAT}",
                                         f"asymptotic skipped: "
                                         f"{_ASYM_PAST_FLOAT}"][answers:]
    if f == _PAST_FLOAT_F[0]:
        assert rows[1]["exact"] == 5 * int(1e308)


@pytest.mark.parametrize("spec, lam, a, b, terms", [
    ("A1", (1,), (1,), (1,), (((0,), 1.0), ((2,), -0.75))),
    # one-sided with nontrivial nu: complex rows and a residual scale
    ("A2", (1, 0), (1,), (), (((0, 0), 1.0), ((0, 1), -0.75),
                              ((1, 1), 0.3)))])
def test_rows_of_f_times_a_power_of_two_are_scaled_rows(spec, lam, a, b,
                                                         terms):
    # f 2^k gives the rows of f times 2^k bit for bit, up to the largest k
    # whose rows are all finite, though its sums before the division by
    # the grid's points pass the float range long before; one more
    # doubling refuses the largest row alone
    rs, a, b = build_root_system(spec), CycleType(a), CycleType(b)
    ns = range(1, 7)
    base = list(torusquad.quad_sequence(rs, lam, a, b, ns,
                                        ClassFunction(terms)))
    top = max(math.frexp(v)[1] for v in base)
    largest = [math.frexp(v)[1] == top for v in base]
    for k in (1, 300, 1024 - top, 1025 - top):
        f = ClassFunction(tuple((nu, math.ldexp(c, k)) for nu, c in terms))
        rows = list(torusquad.quad_sequence(rs, lam, a, b, ns, f))
        if k <= 1024 - top:
            assert rows == [math.ldexp(v, k) for v in base]
            continue
        for row, v, refused in zip(rows, base, largest):
            if refused:
                assert isinstance(row, GridError)
                assert str(row) == _QUAD_PAST_FLOAT
            else:
                assert row == math.ldexp(v, k)


def test_byte_budget_refuses_caller_points_before_their_phases(monkeypatch):
    # 10 points and the 7 weights of A2 (1, 1): 560 bytes of int64 phases,
    # then a 1,120-byte complex table; the roots' float table is 240 bytes.
    # The budget is read at call time.
    assert torusquad._MAX_BYTES == 2 ** 28
    rs = build_root_system("A2")
    ws = weight_system(rs, (1, 1))
    pts = np.arange(20, dtype=np.int64).reshape(10, 2)
    want = character_at(ws, pts, 5)
    formed, product = [], torusquad._phases
    monkeypatch.setattr(torusquad, "_phases", lambda k, v: formed.append(
        len(v)) or product(k, v))
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 559)
    with pytest.raises(GridError, match="^the phases of 7 vectors at 10 "
                                        "points would take 560 bytes, "
                                        "byte budget is 559$"):
        character_at(ws, pts, 5)
    assert formed == []
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 1119)
    with pytest.raises(GridError, match="^a table of 70 phases would take "
                                        "1120 bytes, byte budget is 1119$"):
        character_at(ws, pts, 5)
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 1120)
    assert character_at(ws, pts, 5).tobytes() == want.tobytes()
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 239)
    with pytest.raises(GridError, match="^the phases of 3 vectors at 10 "
                                        "points would take 240 bytes"):
        weyl_denominator_sq(rs, pts, 5)
    assert formed == [7, 7]


def test_sweep_walks_again_after_a_refused_band(monkeypatch):
    # at 1,000 bytes the walk of N = 8's band (35 alcove points of A2)
    # cannot hold the roots' phases; the band of N = 1 walks its own
    # alcove again, and each row gets what its one-N call gives
    rs, one = build_root_system("A2"), CycleType((1,))
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 1000)
    low, high = torusquad.quad_sequence(rs, (1, 0), one, one, (1, 8))
    (alone,) = torusquad.quad_sequence(rs, (1, 0), one, one, (1,))
    assert low.hex() == alone.hex() == (0.9999999999999997).hex()
    (refused,) = torusquad.quad_sequence(rs, (1, 0), one, one, (8,))
    assert type(high) is type(refused) is GridError
    assert str(high) == str(refused) == (
        "the phases held on an alcove walk of 35 points would take 1680 "
        "bytes, byte budget is 1000")


def _one_n_rows(rs, lam, a, b, ns, grid=None):
    rows = []
    for n in ns:
        try:
            rows.append(torusquad.quad_K_N(rs, lam, a, b, n, grid=grid))
        except GridError as exc:
            rows.append(exc)
    return rows


def _same_rows(got, want):
    assert [(type(x), str(x) if isinstance(x, GridError) else x.hex())
            for x in got] == [(type(x), str(x) if isinstance(x, GridError)
                               else x.hex()) for x in want]


def test_held_walk_refusing_a_new_set_walks_again(monkeypatch):
    # A2 (1, 1), a = b = (1, 1) at 5,600 bytes: N = 4 and N = 3 are
    # refused by their own walks' phases.  N = 2's walk (70 points) holds
    # the phases of the roots and of chi but not chi's 490-entry table, so
    # it is kept; on it the phases of chi(g^2) would not fit beside them,
    # so N = 1 walks its own alcove (13) and answers as its one-N call does
    rs, two = build_root_system("A2"), CycleType((1, 1))
    walks, walk = [], torusquad._alcove_factor
    monkeypatch.setattr(torusquad, "_alcove_factor",
                        lambda rs_k, m: walks.append(m) or walk(rs_k, m))
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 5600)
    ns = (1, 2, 3, 4)
    got = list(torusquad.quad_sequence(rs, (1, 1), two, two, ns))
    assert walks == [40, 31, 22, 13]
    assert got[0] == 1.0
    assert str(got[1]) == ("a table of 490 phases would take 7840 bytes, "
                           "byte budget is 5600")
    _same_rows(got, _one_n_rows(rs, (1, 1), two, two, ns))


@pytest.mark.parametrize("max_bytes", [20_000, 40_000, 80_000, 160_000])
def test_repeated_table_refusals_are_their_one_n_refusals(monkeypatch,
                                                          max_bytes):
    # A1 (1), a = e_50: the phase range grows with the Adams degree, so a
    # row's table repeated over the range of the walk of N = 8 (-10050..
    # 10050) is larger than over its own walk's.  A band refused on the
    # larger walk runs again on its own, so each refused row carries the
    # range of its one-N call, and each answered row is answered alone
    rs, a, b = build_root_system("A1"), CycleType((0,) * 49 + (1,)), \
        CycleType(())
    monkeypatch.setattr(torusquad, "_MAX_BYTES", max_bytes)
    ns = (1, 2, 4, 8)
    got = list(torusquad.quad_sequence(rs, (1,), a, b, ns))
    want = _one_n_rows(rs, (1,), a, b, ns)
    assert isinstance(got[-1], GridError)
    for x, y in zip(got, want):
        assert type(x) is type(y)
        if isinstance(y, GridError):
            assert str(x) == str(y)
            assert "repeated over phases" in str(y)
        else:
            assert x == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_refused_caller_grid_band_walks_once(monkeypatch):
    # every row of a caller grid shares one walk, and a refusal raised on
    # it does not depend on N: the top row's error refuses them all, as
    # each one-N call is refused, and the walk is not built again
    rs, one = build_root_system("A2"), CycleType((1,))
    grid = TorusGrid(sizes=(30, 30))
    walks, walk = [], torusquad._alcove_factor
    monkeypatch.setattr(torusquad, "_alcove_factor",
                        lambda rs_k, m: walks.append(m) or walk(rs_k, m))
    monkeypatch.setattr(torusquad, "_MAX_BYTES", 1000)
    ns = (1, 2, 3, 4)
    got = list(torusquad.quad_sequence(rs, (1, 0), one, one, ns, grid=grid))
    assert walks == [30]
    assert {str(x) for x in got} == {
        "the phases held on an alcove walk of 136 points would take 3264 "
        "bytes, byte budget is 1000"}
    _same_rows(got, _one_n_rows(rs, (1, 0), one, one, ns, grid))


def test_alcove_budget_refuses_lopsided_grid():
    # 4e6 torus points pass the point budget, but one size of 250000 on
    # both axes of B2 would put up to 250000^2 / 8 points in the alcove
    rs = build_root_system("B2")
    lopsided = TorusGrid(sizes=(16, 250_000))
    with pytest.raises(GridError) as err:
        quad_I_N(rs, (0, 1), CycleType((1,)), 1, grid=lopsided)
    assert "7812500000 points in the alcove" in str(err.value)
    assert "budget is 4000000" in str(err.value)


def test_mehta_quadrature_a1():
    rs = build_root_system("A1")
    want = 4 * math.sqrt(2 * math.pi)
    assert mehta_quadrature(rs, [[1]]) == pytest.approx(want, rel=1e-12)
    assert mehta_quadrature(rs, [[1]], extra_nodes=4) == \
        pytest.approx(want, rel=1e-12)
    assert mehta_quadrature(rs, [[4]]) == pytest.approx(want / 8, rel=1e-12)


def test_mehta_quadrature_general_form():
    # unlike the closed form, quadrature accepts non-equivariant matrices;
    # sanity-check positivity and node-count stability on one
    rs = build_root_system("A2")
    h = [[2.0, 1.0], [1.0, 3.0]]
    v = mehta_quadrature(rs, h)
    v2 = mehta_quadrature(rs, h, extra_nodes=3)
    assert v > 0
    assert v == pytest.approx(v2, rel=1e-12)
