import math
from fractions import Fraction

import numpy as np
import pytest

from liemoments.exactla import (hermite_normal_form, identity_int,
                                lu_solve, mat_vec, positive_lu,
                                positive_minors, smith_normal_form)
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
    assert positive_lu([[2, -1], [-1, 2]]) is not None
    assert positive_lu([[1, 2], [2, 1]]) is None
    assert positive_lu([[0, 0], [0, 1]]) is None


def test_positive_lu_is_one_sylvester_elimination():
    # None exactly when a leading minor is <= 0; otherwise the pivots
    # multiply to the determinant and the factors solve exactly
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(n, n))
        m = (a @ a.T + int(rng.integers(-3, 4)) * np.eye(n, dtype=int))
        m = m.tolist()
        lu = positive_lu(m)
        assert (lu is not None) == all(
            d > 0 for d in leading_principal_minors(m))
        if lu is not None:
            assert math.prod(lu[1][k][k] for k in range(n)) == \
                det_fraction(m)
            v = rng.integers(-5, 6, size=n).tolist()
            assert lu_solve(lu, v) == solve_fraction(m, v)


def test_positive_minors_are_the_leading_minors_in_integers():
    # Bareiss's pivots are the leading principal minors, so they decide
    # Sylvester's criterion as positive_lu does, with no Fraction
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=(n, n))
        m = (a @ a.T + int(rng.integers(-3, 4)) * np.eye(n, dtype=int))
        m = m.tolist()
        minors = positive_minors(m)
        want = leading_principal_minors(m)
        assert (minors is not None) == all(d > 0 for d in want)
        assert (minors is not None) == (positive_lu(m) is not None)
        if minors is not None:
            assert list(minors) == want
            assert all(type(d) is int for d in minors)
    for spec in ("A8", "B8", "C8", "D8", "E8", "F4", "G2", "A1xE7"):
        rs = build_root_system(spec)
        assert list(positive_minors(rs.cartan)) == \
            leading_principal_minors(rs.cartan)
        assert positive_minors(rs.cartan)[-1] == rs.center.order
    assert positive_minors([[2, -3], [-3, 2]]) is None
    assert positive_minors([[0, 1], [1, 2]]) is None


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
