"""Property tests of the alcove-sum quadrature against the full torus grid.

``oracles.full_grid_quadrature`` sums the moment integrand over every point
of the uniform grid, with characters from the Weyl character formula; the
library sums over the grid points in the open fundamental alcove, one per
regular Weyl orbit.  The two share only root data and the grid sizes.
The alcove points themselves are checked against
``oracles.alcove_by_filter``, which walks the whole alcove simplex and
keeps the integral points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemoments.asymptotics import ClassFunction
from liemoments.charring import CycleType
from liemoments.rootsys import build_root_system, factor_blocks
from liemoments.torusquad import (_alcove_factor, _factor_grids, default_grid,
                                  quad_K_N)

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
        factors, cells = _factor_grids(rs, sizes, max_points=10**6)
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
