import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemoments import exactla
from liemoments.exactla import (eliminate, hermite_normal_form, identity_int,
                                mat_vec, smith_normal_form)
from liemoments.rootsys import build_root_system

import oracles
from oracles import (det_fraction, inv_fraction, leading_principal_minors,
                     solve_fraction)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_det_inv_against_numpy():
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = rng.integers(-5, 6, size=(n, n)).tolist()
        d = det_fraction(m)
        assert abs(float(d) - np.linalg.det(np.array(m, dtype=float))) < 1e-6
        if d != 0:
            inv = inv_fraction(m)
            prod = _matmul(m, [list(r) for r in inv])
            assert prod == identity_int(n)


def test_solve_roundtrip():
    m = [[2, -1], [-1, 2]]
    x = solve_fraction(m, (1, 1))
    assert x == (Fraction(1), Fraction(1))
    assert mat_vec(m, x) == (Fraction(1), Fraction(1))


def test_minors_and_definiteness():
    assert leading_principal_minors([[2, -1], [-1, 2]]) == [2, 3]
    assert eliminate([[2, -1], [-1, 2]]) == ((2, 3), ())
    assert eliminate([[1, 2], [2, 1]]) is None
    assert eliminate([[0, 0], [0, 1]]) is None
    assert eliminate([[2, -1], [-1, 2]], [[1, 1]]) == ((2, 3), ((1, 1),))
    # the elimination runs in integers only: other entries are refused,
    # not truncated
    for bad in ([[Fraction(1, 2)]], [[2.0]]):
        with pytest.raises(TypeError):
            eliminate(bad)
    with pytest.raises(TypeError):
        eliminate([[2]], [[0.5]])
    # a right-hand side of the wrong length is refused, not truncated
    with pytest.raises(ValueError):
        eliminate([[2, -1], [-1, 2]], [[1]])


def test_elimination_is_one_sylvester_elimination():
    # None exactly when a leading minor is <= 0; otherwise the last minor
    # is the determinant and the solutions are exact
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(n, n))
        m = (a @ a.T + int(rng.integers(-3, 4)) * np.eye(n, dtype=int))
        m = m.tolist()
        v = rng.integers(-5, 6, size=n).tolist()
        done = eliminate(m, [v])
        assert (done is not None) == all(
            d > 0 for d in leading_principal_minors(m))
        if done is not None:
            minors, (x,) = done
            assert minors[-1] == det_fraction(m)
            assert x == solve_fraction(m, v)


def test_elimination_minors_are_the_leading_minors_in_integers():
    # Bareiss's pivots are the leading principal minors, so they decide
    # Sylvester's criterion with no Fraction
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=(n, n))
        m = (a @ a.T + int(rng.integers(-3, 4)) * np.eye(n, dtype=int))
        m = m.tolist()
        done = eliminate(m)
        want = leading_principal_minors(m)
        assert (done is not None) == all(d > 0 for d in want)
        if done is not None:
            assert list(done[0]) == want
            assert all(type(d) is int for d in done[0])
            assert done[1] == ()
    for spec in ("A8", "B8", "C8", "D8", "E8", "F4", "G2", "A1xE7"):
        rs = build_root_system(spec)
        minors, _ = eliminate(rs.cartan)
        assert list(minors) == leading_principal_minors(rs.cartan)
        assert minors[-1] == rs.center.order
    assert eliminate([[2, -3], [-3, 2]]) is None
    assert eliminate([[0, 1], [1, 2]]) is None


@st.composite
def integer_systems(draw):
    """An integer matrix of order 1..6 and 0..3 integer right-hand sides.
    Half the matrices are L U with unit lower L and an upper U with a
    positive diagonal, so every leading minor is positive; most of the
    other half have a leading minor <= 0."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-5, 5)

    def square():
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                             min_size=n, max_size=n))

    m = square()
    if draw(st.booleans()):
        u = square()
        for i in range(n):
            u[i][i] = draw(st.integers(1, 6))
        m = [[(m[i][j] if j < i else int(i == j)) for j in range(n)]
             for i in range(n)]
        u = [[u[i][j] if j >= i else 0 for j in range(n)] for i in range(n)]
        m = _matmul(m, u)
    columns = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                            max_size=3))
    return m, columns


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_elimination_decides_sylvester_and_solves_in_integers(system):
    # None exactly when an oracle minor is <= 0.  Otherwise the minors are
    # the oracle's, every solution is the oracle's, and the only Fractions
    # are the results: one per entry, of two ints
    m, columns = system
    made = []
    real = exactla.Fraction

    def recorded(num, den):
        made.append((type(num), type(den)))
        return real(num, den)

    with mock.patch.object(exactla, "Fraction", recorded):
        done = eliminate(m, columns)
    want = leading_principal_minors(m)
    assert (done is None) == any(d <= 0 for d in want)
    if done is None:
        return
    minors, solutions = done
    assert list(minors) == want
    assert all(type(d) is int for d in minors)
    assert solutions == tuple(solve_fraction(m, c) for c in columns)
    assert made == [(int, int)] * (len(m) * len(columns))


def test_snf_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        nr = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 5))
        m = rng.integers(-6, 7, size=(nr, nc)).tolist()
        diag, u, v = smith_normal_form(m)
        assert abs(det_fraction(u)) == 1
        assert abs(det_fraction(v)) == 1
        prod = _matmul(_matmul([list(r) for r in u], m), [list(r) for r in v])
        for i in range(nr):
            for j in range(nc):
                expect = diag[i] if i == j and i < len(diag) else 0
                assert prod[i][j] == expect
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_snf_known_diagonals():
    # det 3 lattice quotient: invariant factors 1, 3
    diag, _, _ = smith_normal_form([[2, -1], [-1, 2]])
    assert diag == (1, 3)
    diag, _, _ = smith_normal_form([[2]])
    assert diag == (2,)
    diag, _, _ = smith_normal_form([[2, 0], [0, 2]])
    assert diag == (2, 2)


def test_snf_divisor_product_matches_det():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = rng.integers(-4, 5, size=(n, n)).tolist()
        diag, _, _ = smith_normal_form(m)
        assert math.prod(diag) == abs(det_fraction(m))


def _is_integral(mat):
    return all(Fraction(x).denominator == 1 for row in mat for x in row)


def test_hnf_of_sheared_lattices():
    # V @ M spans the row lattice of M for unimodular V, so both have the
    # same (unique) Hermite form
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rng.integers(-5, 6, size=(n, n)).tolist()
        if det_fraction(m) == 0:
            continue
        sheared = _matmul(oracles.random_unimodular(rng, n), m)
        h, u = hermite_normal_form(sheared)
        assert all(h[i][j] == 0 for i in range(n) for j in range(i))
        assert all(h[j][j] > 0 for j in range(n))
        assert all(0 <= h[i][j] < h[j][j]
                   for j in range(n) for i in range(j))
        assert _matmul([list(r) for r in u], sheared) == [list(r) for r in h]
        # same lattice: each basis is an integral combination of the other
        assert _is_integral(_matmul(h, [list(r) for r in
                                        inv_fraction(sheared)]))
        assert _is_integral(_matmul(sheared, [list(r) for r in
                                              inv_fraction(h)]))
        assert abs(det_fraction(u)) == 1
        assert hermite_normal_form(m)[0] == h


def test_hnf_of_cartan_matrices_matches_the_center():
    for spec in ("A1", "A4", "B3", "C4", "D4", "D5", "D6", "E6", "E7",
                 "E8", "F4", "G2", "A1xA2"):
        rs = build_root_system(spec)
        h, u = rs.coroot_grid_basis
        assert (h, u) == hermite_normal_form(rs.cartan)
        assert math.prod(h[j][j] for j in range(rs.rank)) == rs.center.order
        assert _matmul([list(r) for r in u], rs.cartan) == \
            [list(r) for r in h]


def test_hnf_refuses_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        hermite_normal_form([[1, 2], [2, 4]])
