import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from liemoments import charring, repweights, torusquad
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
