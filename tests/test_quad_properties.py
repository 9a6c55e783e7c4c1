"""Property tests of the alcove-sum quadrature against the full torus grid.

``oracles.full_grid_quadrature`` sums the moment integrand over every point
of the uniform grid, with characters from the Weyl character formula; the
library sums over the grid points in the open fundamental alcove, one per
regular Weyl orbit.  The two share only root data and the grid sizes.
The alcove points themselves are checked against
``oracles.alcove_by_filter``, which walks the whole alcove simplex and
keeps the integral points.  A sweep (``quad_sequence``) is checked row by
row against one-N calls, which sum on each row's own grid.
"""

import math
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments import torusquad
from liemoments.asymptotics import ClassFunction
from liemoments.charring import CycleType, moment_sequence
from liemoments.repweights import weight_system, weyl_dimension
from liemoments.rootsys import (build_root_system, factor_blocks,
                                simple_factors)
from liemoments.torusquad import (GridError, TorusGrid, _alcove_factor,
                                  _factor_grids, character_at, default_grid,
                                  quad_K_N, quad_sequence,
                                  weyl_denominator_sq)

import oracles

GROUPS = {spec: build_root_system(spec)
          for spec in ("A1", "A2", "A3", "B2", "C3", "G2", "A1xA2", "A1xG2")}
# Bound on (a.weight + b.weight) * N, the trace degree that sets the grid
# size; rank-3 grids grow fastest, so they get a lower one.
MAX_DEGREE = {1: 6, 2: 4, 3: 3}


def small_weights(rank, top=1):
    return st.tuples(*[st.integers(0, top)] * rank)


def cycle_types(max_len=2, max_exp=2):
    return st.lists(st.integers(0, max_exp), min_size=0,
                    max_size=max_len).map(tuple)


@st.composite
def quad_cases(draw):
    spec = draw(st.sampled_from(sorted(GROUPS)))
    rs = GROUPS[spec]
    lam = draw(small_weights(rs.rank))
    cap = MAX_DEGREE[rs.rank]
    a = CycleType(draw(cycle_types()))
    b = CycleType(draw(cycle_types()))
    degree = a.weight + b.weight
    if degree > cap:
        a, b = CycleType((1,)), CycleType(())
        degree = 1
    n = draw(st.integers(1, max(1, cap // max(1, degree))))
    terms = draw(st.lists(st.tuples(small_weights(rs.rank),
                                    st.integers(-3, 3).map(float)),
                          min_size=1, max_size=2))
    return rs, lam, a, b, n, tuple(terms)


@settings(max_examples=40)
@given(quad_cases())
def test_alcove_sum_matches_full_grid_oracle(case):
    rs, lam, a, b, n, terms = case
    f = ClassFunction(terms)
    sizes = default_grid(rs, lam, a, b, n, f).sizes
    want, scale = oracles.full_grid_quadrature(rs, lam, a.exps, b.exps, n,
                                               terms, sizes)
    got = quad_K_N(rs, lam, a, b, n, f=f)
    # the exact value is an integer combination of integer moments, so a
    # value below 1 in size is 0 and is compared on the scale of 1
    assert abs(got - want.real) <= 1e-11 * max(abs(want), scale, 1.0)


def _regular_grid_points(rs, sizes):
    """Full-grid points k / sizes where no root pairs to an integer (the
    points with Delta != 0), counted with exact integers."""
    k = oracles.full_grid_points(sizes)
    m = np.array(sizes)
    regular = np.ones(len(k), dtype=bool)
    for alpha in rs.positive_roots:
        # every root lives on one simple factor, whose axes share one size
        axis = next(i for i, c in enumerate(alpha) if c)
        regular &= (k @ np.array(alpha)) % m[axis] != 0
    return int(regular.sum())


@pytest.mark.parametrize("spec, factor_sizes", [
    ("B2", [(6,), (10,), (14,)]),
    ("G2", [(6,), (12,), (17,)]),
    ("A3", [(4,), (9,), (16,)]),
    ("A1xA2", [(5, 6), (8, 9), (2, 12)]),
])
def test_alcove_points_are_one_per_regular_orbit(spec, factor_sizes):
    rs = build_root_system(spec)
    blocks = [block for block, _ in factor_blocks(rs)]
    for per_factor in factor_sizes:
        sizes = tuple(m for m, block in zip(per_factor, blocks)
                      for _ in block)
        factors, cells = _factor_grids(rs, sizes)
        assert cells == math.prod(sizes)
        regular = 1
        for block, rs_k, m in factors:
            count = rs_k.weyl_order * len(_alcove_factor(rs_k, m))
            assert count == _regular_grid_points(rs_k, (m,) * len(block))
            regular *= count
        assert regular == _regular_grid_points(rs, sizes)


SIMPLE_TYPES = [f"{letter}{n}" for letter, lo in
                (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in
                range(lo, 8)] + ["E6", "E7", "F4", "G2"]
# The oracle walks the whole alcove simplex, about m^r / (r! prod_j a_j)
# integer points; m is capped per type to keep that walk at most 2e5.
SIMPLEX_CAP = 200_000


def _simplex_size(marks, m):
    """Integer points z_j >= 1 with sum_j a_j z_j <= m - 1, counted by
    a generating-function product."""
    ways = [1] + [0] * (m - 1)
    for aj in marks:
        ways = [sum(ways[s - aj * z] for z in range(1, s // aj + 1))
                for s in range(m)]
    return sum(ways)


def _largest_m(rs, top=40):
    marks = max(rs.positive_rootcoords, key=sum)
    return max(m for m in range(2, top + 1)
               if _simplex_size(marks, m) <= SIMPLEX_CAP)


LARGEST_M = {spec: _largest_m(build_root_system(spec))
             for spec in SIMPLE_TYPES}


@st.composite
def alcove_cases(draw):
    spec = draw(st.sampled_from(SIMPLE_TYPES))
    return build_root_system(spec), draw(st.integers(2, LARGEST_M[spec]))


@settings(max_examples=60, deadline=None)
@given(alcove_cases())
def test_coset_enumeration_matches_simplex_filter(case):
    rs, m = case
    k = _alcove_factor(rs, m)
    want = oracles.alcove_by_filter(rs, m)
    assert k.dtype == np.int64 and k.shape[1:] == (rs.rank,)
    # no point twice, and the same set as the filtered simplex walk
    assert len(np.unique(k, axis=0)) == len(k)
    assert sorted(map(tuple, k.tolist())) == \
        sorted(map(tuple, want.tolist()))
    # 0 < <alpha, k / m> < 1 for every positive root: the open alcove
    values = k @ np.array(rs.positive_roots, dtype=np.int64).T
    assert np.all((values > 0) & (values < m))


NESTING_TYPES = [f"{letter}{n}" for letter, lo in
                 (("A", 1), ("B", 2), ("C", 3), ("D", 4))
                 for n in range(lo, 5)] + ["F4", "G2"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NESTING_TYPES), st.integers(2, 30), st.data())
def test_alcoves_are_level_cuts_of_larger_alcoves(spec, top, data):
    # only the level bound sum_j a_j z_j <= m - 1 depends on m, so the
    # walk at m is the walk at top cut to level <= m - 1, in the same
    # order; a band reads these points as a prefix of the sweep's walk
    # sorted by level (test_level_ordered_walk_prefixes_are_the_alcoves)
    rs = build_root_system(spec)
    m = data.draw(st.integers(1, top - 1))
    big = _alcove_factor(rs, top)
    # on the closed alcove the highest root pairs largest with k
    level = (big @ np.array(rs.positive_roots, dtype=np.int64).T).max(
        axis=1, initial=0)
    assert np.array_equal(torusquad._alcove_levels(rs, big), level)
    cut, small = big[level <= m - 1], _alcove_factor(rs, m)
    assert sorted(map(tuple, cut.tolist())) == \
        sorted(map(tuple, small.tolist()))
    assert np.array_equal(cut, small)


WALK_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2",
              "A1xA2", "G2xA1", "B2xA1"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WALK_TYPES), st.integers(2, 20))
def test_level_ordered_walk_prefixes_are_the_alcoves(spec, top):
    # a sweep sorts each factor's walk by level once; the alcove of every
    # m <= top is then a prefix, and a band evaluating on that prefix
    # through the sweep's unreduced phases reads the bits that the
    # prefix's own points, reduced mod m, read
    for _, rs_k in simple_factors(build_root_system(spec)):
        walk = torusquad._Walk(rs_k, top)
        assert np.all(np.diff(walk.levels) >= 0)
        ws = weight_system(rs_k, (1,) + (0,) * (rs_k.rank - 1))
        for m in range(1, top + 1):
            band = walk.at(m)
            prefix = walk.points[:len(band)]
            assert len(band) == len(oracles.alcove_by_filter(rs_k, m))
            assert sorted(map(tuple, prefix.tolist())) == \
                sorted(map(tuple, _alcove_factor(rs_k, m).tolist()))
            for got, want in [
                    (weyl_denominator_sq(rs_k, band, m),
                     weyl_denominator_sq(rs_k, prefix, m)),
                    (character_at(ws, band, m), character_at(ws, prefix, m)),
                    (character_at(ws, band.dilated(2), m),
                     character_at(ws, 2 * prefix, m))]:
                assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([1, 2, 3, 4, 31, 42]),
                 st.integers(1, 100)), st.data())
def test_wrapped_table_reads_the_table_at_the_phase_mod_m(m, data):
    # phases of any sign, over ranges up to several times m, read through
    # the repeated table give the entry of the reduced phase, bit for bit
    lo = data.draw(st.integers(-4 * m - 3, 4 * m + 3), label="lo")
    hi = data.draw(st.integers(lo, lo + 9 * m + 3), label="hi")
    phases = data.draw(st.lists(st.integers(lo, hi), max_size=40),
                       label="phases")
    t = np.array([lo, hi, *phases], dtype=np.int64).reshape(-1, 1)
    for table in torusquad._phase_tables(m):
        assert len(table) == m
        got = torusquad._wrapped(table, lo, hi)
        assert len(got) % m == 0
        assert got[t].tobytes() == table[t % m].tobytes()


def test_walk_refuses_phases_that_could_overflow_int64():
    walk = torusquad._Walk(build_root_system("A2"), 40)
    with pytest.raises(GridError, match="overflow int64"):
        walk.phases([(2 ** 61, 0)], 1)
    with pytest.raises(GridError, match="overflow int64"):
        walk.phases([(2 ** 40, 0)], 2 ** 21)
    t, lo, hi = walk.phases([(2 ** 40, 0)], 1)
    assert t.dtype == np.int64 and (lo, hi) == (t.min(), t.max())


EXACT_GROUPS = {spec: build_root_system(spec)
                for spec in ("A2", "B2", "G2", "A3", "B3", "C3", "A1xA2",
                             "A1xB2")}


@st.composite
def exact_quad_cases(draw):
    """Two-sided moments with a != b, Adams degrees up to 2 and a
    class function with a nonzero highest weight, small enough for the
    exact chain."""
    spec = draw(st.sampled_from(sorted(EXACT_GROUPS)))
    rs = EXACT_GROUPS[spec]
    lam = draw(small_weights(rs.rank))
    a = CycleType(draw(cycle_types(max_exp=1)))
    b = CycleType(draw(cycle_types(max_exp=1)))
    if a == b:
        b = CycleType(b.exps + (1,) if len(b.exps) < 2 else ())
    cap = MAX_DEGREE[rs.rank]
    degree = a.weight + b.weight
    n = draw(st.integers(1, max(1, cap // max(1, degree))))
    nu = draw(small_weights(rs.rank).filter(any))
    terms = ((nu, float(draw(st.integers(1, 3)))),
             ((0,) * rs.rank, float(draw(st.integers(-3, 3)))))
    return rs, lam, a, b, n, terms


@settings(max_examples=40)
@given(exact_quad_cases())
def test_quadrature_on_polytope_grid_matches_exact_integers(case):
    # the default grid is sized by the polytope bound; every value still
    # equals the Klimyk chain's integers
    rs, lam, a, b, n, terms = case
    (mults,) = moment_sequence(rs, lam, a, b, (n,),
                               [nu for nu, _ in terms])
    want = sum(int(c) * mult for (_, c), mult in zip(terms, mults))
    got = quad_K_N(rs, lam, a, b, n, f=ClassFunction(terms))
    assert abs(got - want) <= 1e-9 * max(1, abs(want))


@pytest.mark.parametrize("n, side, want", [
    (7, 26, 4_109_654_354),
    # from moment_sequence, whose chain takes over a second at N = 16
    (16, 44, 2649250747302231655364965233968764),
], ids=["K7", "K16"])
def test_f4_adjoint_answers(n, side, want):
    # the per-axis grid of F4 adjoint K_7 already has over 4e6 points and
    # is refused; the polytope grid is the bound plus one per axis
    rs = build_root_system("F4")
    lam, a = (1, 0, 0, 0), CycleType((1,))
    one = ClassFunction.one(4)
    per_axis = oracles.per_axis_bandwidth(rs, lam, a, a, n, one)
    assert math.prod(x + 1 for x in per_axis) > 4_000_000
    assert default_grid(rs, lam, a, a, n).sizes == (side,) * 4
    if n == 7:
        (exact,), = moment_sequence(rs, lam, a, a, (7,))
        assert exact == want
    assert quad_K_N(rs, lam, a, a, n) == pytest.approx(want, rel=1e-12)


def test_f4_adjoint_k17_is_refused():
    # 46^4 torus points, over the point budget
    rs = build_root_system("F4")
    a = CycleType((1,))
    with pytest.raises(GridError,
                       match="grid has 4477456 points, budget is 4000000"):
        quad_K_N(rs, (1, 0, 0, 0), a, a, 17)


def _per_call_quadrature(rs, lam, a, b, n, terms, sizes, real_pairs=True):
    """The alcove quadrature with every character and denominator evaluated
    through the public evaluators, each reducing its own points and
    building its own table.

    With ``real_pairs`` it does the library's row arithmetic: degree j's
    paired part min(a_j, b_j) raises the real |chi|^2, the unpaired rest
    chi or conj(chi) in complex, chi_0 = 1 is not evaluated, and a sum
    without phase is one real fsum.  Without it every factor is complex,
    chi^(n a_j) then conj(chi)^(n b_j) and chi_nu for every nu."""
    factors, cells = _factor_grids(rs, sizes)
    values = [c for _, c in terms]
    for block, rs_k, m in factors:
        part = slice(block.start, block.stop)
        k = _alcove_factor(rs_k, m)
        ws = weight_system(rs_k, lam[part])
        base = weyl_denominator_sq(rs_k, k, m)
        if not real_pairs:
            base = base.astype(complex)
        phased = []
        for j, (aj, bj) in enumerate(zip_longest(a.exps, b.exps,
                                                 fillvalue=0), start=1):
            if not (aj or bj):
                continue
            chi = character_at(ws, j * k, m)
            if not real_pairs:
                if aj:
                    base *= chi ** (n * aj)
                if bj:
                    base *= np.conj(chi) ** (n * bj)
                continue
            if min(aj, bj):
                base = base * (chi.real ** 2 + chi.imag ** 2) ** (
                    n * min(aj, bj))
            if aj != bj:
                phased.append(chi ** (n * (aj - bj)) if aj > bj
                              else np.conj(chi) ** (n * (bj - aj)))
        if phased:
            base = base.astype(complex)
            for power in phased:
                base *= power
        sums = {}
        for nu in dict.fromkeys(nu[part] for nu, _ in terms):
            t = base
            if any(nu) or not real_pairs:
                t = character_at(weight_system(rs_k, nu), k, m) * base
            sums[nu] = (complex(math.fsum(t.real.tolist()),
                                math.fsum(t.imag.tolist()))
                        if np.iscomplexobj(t) else math.fsum(t.tolist()))
        values = [v * sums[nu[part]] for v, (nu, _) in zip(values, terms)]
    return (sum(values) / cells).real


@pytest.mark.parametrize("spec, lam, a, b, n, terms, sizes", [
    ("A2", (2, 1), (1,), (0, 1), 3, (((1, 1), 2.0), ((0, 0), 1.0)),
     (36, 36)),
    ("B2", (1, 1), (1,), (1,), 2, (((0, 1), 1.0),), (15, 20)),
    ("G2", (1, 0), (0, 1), (), 3, (((1, 0), 3.0), ((0, 0), 1.0)), (25, 15)),
    ("A1xA2", (1, 1, 1), (1,), (1,), 3,
     (((0, 0, 0), 2.0), ((0, 1, 1), 5.0)), (9, 20, 20)),
    ("A2", (1, 0), (1,), (), 3, (((0, 0), 1.0),), (7, 7)),
])
def test_shared_tables_give_identical_bits(spec, lam, a, b, n, terms, sizes):
    # one residue array and one pair of tables per alcove sum give the
    # same bits as evaluating each character on its own
    rs = build_root_system(spec)
    a, b = CycleType(a), CycleType(b)
    got = quad_K_N(rs, lam, a, b, n, f=ClassFunction(terms),
                   grid=TorusGrid(sizes))
    assert got == _per_call_quadrature(rs, lam, a, b, n, terms, sizes)
    if not any(map(min, zip(a.exps, b.exps))):
        # no paired degree: the row does the all-complex arithmetic, and
        # skipping chi_0 = 1 changes no bit
        assert got == _per_call_quadrature(rs, lam, a, b, n, terms, sizes,
                                           real_pairs=False)


SEQUENCE_GROUPS = {spec: build_root_system(spec)
                   for spec in ("A1", "A2", "A3", "B2", "G2", "A1xA2",
                                "A1xG2")}
# Bound on (a.weight + b.weight) * N for sweeps: no full-grid oracle runs
# here, so the schedules reach further than MAX_DEGREE and span bands.
SEQUENCE_DEGREE = {1: 24, 2: 12, 3: 8}


@st.composite
def sequence_cases(draw):
    """A gapped schedule of 1-6 rows, with the grid and budgets of a sweep:
    the default grids or a caller grid sized at one of the rows (so rows
    above it alias), the default point budget or the torus points of one
    row's grid (so the rows above it are refused and the bands start
    lower), and sometimes a last row past the float budget."""
    spec = draw(st.sampled_from(sorted(SEQUENCE_GROUPS)))
    rs = SEQUENCE_GROUPS[spec]
    lam = draw(small_weights(rs.rank))
    a = CycleType(draw(cycle_types()))
    b = CycleType(draw(st.just(a.exps) | cycle_types()))
    if a.weight + b.weight > SEQUENCE_DEGREE[rs.rank]:
        a, b = CycleType((1,)), CycleType(())
    top = SEQUENCE_DEGREE[rs.rank] // max(1, a.weight + b.weight)
    log_dim = math.log(weyl_dimension(rs, lam))
    past_budget = (a.size + b.size) * log_dim > 0 and draw(st.booleans())
    ns = sorted(draw(st.sets(st.integers(0, top), min_size=1,
                             max_size=6 - past_budget)))
    terms = tuple(draw(st.lists(st.tuples(small_weights(rs.rank),
                                          st.integers(-3, 3).map(float)),
                                min_size=1, max_size=2)))
    f = ClassFunction(terms)
    grid = None
    if draw(st.booleans()):
        sizes = default_grid(rs, lam, a, b, draw(st.sampled_from(ns)),
                             f).sizes
        grid = TorusGrid(tuple(m + draw(st.integers(0, 2)) for m in sizes))
    max_points = 4_000_000
    if draw(st.booleans()):
        n = draw(st.sampled_from(ns))
        max_points = (grid or default_grid(rs, lam, a, b, n, f)).num_points
    if past_budget:
        ns.append(math.floor(700 / ((a.size + b.size) * log_dim)) + 1)
    return rs, lam, a, b, tuple(ns), f, grid, max_points


def _roundoff_scale(rs, lam, a, b, n, terms, sizes):
    """Sum of |c_nu| prod_k sum_alcove |chi_nu_k Delta^2 chi^(n a) ...|
    over the terms, divided by the torus points: the scale the roundoff
    of each factor's fsum, and so of the value, is relative to."""
    factors, cells = _factor_grids(rs, sizes)
    scale = [abs(c) for _, c in terms]
    for block, rs_k, m in factors:
        part = slice(block.start, block.stop)
        k = _alcove_factor(rs_k, m)
        ws = weight_system(rs_k, lam[part])
        mag = weyl_denominator_sq(rs_k, k, m)
        for j, (aj, bj) in enumerate(zip_longest(a.exps, b.exps,
                                                 fillvalue=0), start=1):
            if aj or bj:
                mag = mag * np.abs(character_at(ws, j * k, m)) ** (
                    n * (aj + bj))
        scale = [s * float(np.sum(np.abs(character_at(
                     weight_system(rs_k, nu[part]), k, m)) * mag))
                 for s, (nu, _) in zip(scale, terms)]
    return sum(scale) / cells


@settings(max_examples=60, deadline=None)
@given(sequence_cases())
@example((SEQUENCE_GROUPS["A2"], (1, 1), CycleType(()), CycleType((1,)),
          (0, 1, 2, 7, 11), ClassFunction((((0, 1), 1.0),)), None,
          4_000_000))
def test_sequence_rows_match_one_n_calls(case):
    rs, lam, a, b, ns, f, grid, max_points = case
    with mock.patch.object(torusquad, "_MAX_POINTS", max_points):
        got = list(quad_sequence(rs, lam, a, b, ns, f=f, grid=grid))
        assert len(got) == len(ns)
        want, points = {}, {}
        for n in ns:
            try:
                want[n] = quad_K_N(rs, lam, a, b, n, f=f, grid=grid)
            except GridError as exc:
                want[n] = exc
                # a row refused by its imaginary residual passed every
                # check before the sum, so it still tops or joins a band
                if not str(exc).startswith("imaginary residual"):
                    continue
            points[n] = (grid or default_grid(rs, lam, a, b, n,
                                              f)).num_points
    # bands from the largest admissible N down: a row tops a new band when
    # its grid has fewer than half the points of the current band's top
    tops, top = set(), None
    for n in sorted(points, reverse=True):
        if top is None or 2 * points[n] < points[top]:
            tops.add(n)
            top = n
    for n, value in zip(ns, got):
        if isinstance(want[n], GridError):
            assert type(value) is type(want[n])
            assert str(value) == str(want[n])
        elif grid is not None or n in tops:
            assert value == want[n]
        else:
            own = default_grid(rs, lam, a, b, n, f).sizes
            scale = _roundoff_scale(rs, lam, a, b, n, f.terms, own)
            assert abs(value - want[n]) <= 1e-11 * max(abs(want[n]), scale,
                                                       1.0)


def test_sequence_checks_every_row_before_it_enumerates(monkeypatch):
    # every row's grid is sized and checked before the one alcove walk,
    # at the largest admitted size, and a negative N anywhere is refused
    # before any walk
    events = []
    grid, walk = torusquad._bandwidth, torusquad._alcove_factor

    def sized(rs, lam, a, b, n, f=None):
        events.append(("grid", n))
        return grid(rs, lam, a, b, n, f)

    def walked(rs, m):
        events.append(("walk", m))
        return walk(rs, m)

    monkeypatch.setattr(torusquad, "_bandwidth", sized)
    monkeypatch.setattr(torusquad, "_alcove_factor", walked)
    rs = build_root_system("A2")
    one = CycleType((1,))
    monkeypatch.setattr(torusquad, "_MAX_POINTS", 180)
    rows = list(quad_sequence(rs, (1, 0), one, one, (1, 2, 6, 7)))
    # 196 points at N = 7: refused, so the bands are {6} and {2, 1}, and
    # the walk at N = 6's size 13 serves both
    assert str(rows[-1]) == "grid has 196 points, budget is 180"
    assert events == [("grid", n) for n in (1, 2, 6, 7)] + [("walk", 13)]
    events.clear()
    with pytest.raises(ValueError, match="N must be >= 0, got -1"):
        next(quad_sequence(rs, (1, 0), one, one, (1, 2, -1)))
    assert events == []


def test_imaginary_residual_refuses_an_inconsistent_sum(monkeypatch):
    # a constant phase e^(i pi / 4) on every synthesised character turns
    # the one-sided A1 integral of chi^2 (= 1) into i, whose imaginary part
    # the residual check refuses; |chi|^2 does not see the phase, so the
    # two-sided row still gives K_2 = 2
    synthesis = torusquad.character_at
    phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    monkeypatch.setattr(torusquad, "character_at",
                        lambda ws, k, m: synthesis(ws, k, m) * phase)
    rs = build_root_system("A1")
    one = CycleType((1,))
    with pytest.raises(GridError, match=r"^imaginary residual 1\.0+e\+00 "
                       r"above tolerance for value .*; quadrature "
                       r"inconsistent$"):
        torusquad.quad_I_N(rs, (1,), one, 2)
    (row,) = quad_sequence(rs, (1,), one, CycleType(()), (2,))
    assert isinstance(row, GridError)
    assert quad_K_N(rs, (1,), one, one, 2) == pytest.approx(2, rel=1e-14)


@pytest.mark.parametrize("n, want", [(1, -1), (4, 58)])
def test_row_with_an_unpaired_degree_sums_its_imaginary_part(monkeypatch, n,
                                                             want):
    # A2, Tr(g) Tr(g^2) conj(Tr(g)) chi_(1,0): degree 1 is paired, degree 2
    # is not, and nu = (1, 0) is not self-dual, so the factor sum is complex
    # and takes the fsum pair; the value agrees with the all-complex sum
    rs = build_root_system("A2")
    lam, a, b = (1, 0), CycleType((1, 1)), CycleType((1,))
    terms = (((1, 0), 1.0),)
    sums, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sums.append(len(xs))
                        or fsum(xs))
    got = quad_K_N(rs, lam, a, b, n, f=ClassFunction(terms))
    monkeypatch.undo()
    assert len(sums) == 2 and sums[0] == sums[1]
    (mults,) = moment_sequence(rs, lam, a, b, (n,), [nu for nu, _ in terms])
    assert mults == [want]
    sizes = default_grid(rs, lam, a, b, n, ClassFunction(terms)).sizes
    oracle = _per_call_quadrature(rs, lam, a, b, n, terms, sizes,
                                  real_pairs=False)
    scale = _roundoff_scale(rs, lam, a, b, n, terms, sizes)
    assert abs(got - oracle) <= 1e-11 * max(abs(oracle), scale, 1.0)
    assert abs(got - want) <= 1e-11 * max(abs(want), scale, 1.0)


def test_row_without_phase_sums_one_real_fsum(monkeypatch):
    # a = b and f = 1: |Delta|^2 |chi|^(2N) is real, one fsum per factor
    rs = build_root_system("A1xA2")
    one = CycleType((1,))
    sums, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sums.append(len(xs))
                        or fsum(xs))
    got = quad_K_N(rs, (1, 1, 0), one, one, 3)
    monkeypatch.undo()
    assert len(sums) == 2
    (mults,) = moment_sequence(rs, (1, 1, 0), one, one, (3,),
                               [(0, 0, 0)])
    assert got == pytest.approx(mults[0], rel=1e-13)


# finite values whose sums stay finite: ±0 and subnormals from st.floats,
# and m 2^e with e from -1074 on for exponents spread over the whole range
SUMMANDS = st.one_of(
    st.floats(min_value=-2.0 ** 1000, max_value=2.0 ** 1000),
    st.builds(math.ldexp, st.integers(-2 ** 53 + 1, 2 ** 53 - 1),
              st.integers(-1074, 1000 - 53)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_sum_is_fsum_bit_for_bit(data):
    # alcove sums from _BINNED_SUM_MIN points on are exact exponent-bin
    # sums rounded once; below it they are fsum over a list.  Both must be
    # fsum's bits, exact x, -x cancellations included
    values = data.draw(st.lists(SUMMANDS, max_size=80))
    negated = data.draw(st.lists(st.sampled_from(values), max_size=40)
                        if values else st.just([]))
    x = np.array(data.draw(st.permutations(values + [-v for v in negated])),
                 dtype=np.float64)
    want = math.fsum(x.tolist()).hex()
    for least in (0, len(x), len(x) + 1):
        with mock.patch.object(torusquad, "_BINNED_SUM_MIN", least):
            assert torusquad._exact_sum(x).hex() == want


@pytest.mark.parametrize("values", [
    [], [0.0], [-0.0], [-0.0, -0.0], [5e-324], [-5e-324, 5e-324],
    [1.0, -1.0], [2.0 ** 1000, 1e-300, -2.0 ** 1000],
    [math.ulp(2.0 ** -1022) * (2 ** 52 - 1), 2.0 ** -1022, -2.0 ** -1021],
    [1.0, 2.0 ** -53, 2.0 ** -106], [0.1] * 10,
])
def test_exact_sum_edge_cases(monkeypatch, values):
    x = np.array(values, dtype=np.float64)
    monkeypatch.setattr(torusquad, "_BINNED_SUM_MIN", 0)
    assert torusquad._exact_sum(x).hex() == math.fsum(values).hex()


@pytest.mark.parametrize("values", [
    [math.inf, 1.0], [-math.inf, 2.0 ** 1023], [math.nan, 1.0],
    [math.inf, -math.inf], [2.0 ** 1023] * 2, [1.7e308, 1.7e308, -1.7e308],
])
def test_exact_sum_of_nonfinite_totals_is_fsums(monkeypatch, values):
    # a nonfinite value or an overflowing bin sends the values to fsum,
    # which returns or raises what it does for them, with no numpy warning
    # (the suite turns warnings into errors)
    def outcome(total):
        try:
            return total().hex()
        except (OverflowError, ValueError) as exc:
            return repr(exc)

    x = np.array(values, dtype=np.float64)
    monkeypatch.setattr(torusquad, "_BINNED_SUM_MIN", 0)
    assert outcome(lambda: torusquad._exact_sum(x)) == \
        outcome(lambda: math.fsum(values))


@pytest.mark.parametrize("n", [2 ** 11, 2 ** 11 + 1, 2 ** 19 + 1])
@pytest.mark.parametrize("field", [0, 1023])
def test_exact_sum_bins_are_exact_at_their_widest(monkeypatch, n, field):
    # n values set the bin width 2^s (16, 8 and 4 exponent fields here).
    # Most of them, with every mantissa bit set, sit at the least and the
    # largest exponent field of one bin: its sums are as long as the bound
    # allows.  One more sits in each neighbouring bin, which a bin twice
    # as wide would merge with them.  Adding -fsum of the rest leaves only
    # the low bits of the exact total, which an inexact bin would move.
    s = (27 - (n - 1).bit_length()).bit_length() - 1
    low, width = field >> s << s, 2 ** s
    fields = [low + width - 1, low, low + 2 * width - 1] + \
        [low - width] * (low > 0)
    ones = np.array([f << 52 | (2 ** 52 - 1) for f in fields],
                    dtype=np.int64).view(np.float64)
    counts = [n // 2, n - n // 2 + 1 - len(fields)] + \
        [1] * (len(fields) - 2)
    values = np.repeat(ones, counts)
    x = np.append(values, -math.fsum(values.tolist()))
    assert len(x) == n
    monkeypatch.setattr(torusquad, "_BINNED_SUM_MIN", 0)
    assert torusquad._exact_sum(x).hex() == math.fsum(x.tolist()).hex()


def test_point_budget_keeps_exponent_bins_exact():
    # a bin adds at most 2^26 values exactly, and no alcove under the
    # point budget holds more
    assert torusquad._MAX_POINTS < 2 ** 26
