"""Exact linear algebra on tiny matrices: Fraction elimination, leading
minors in integers, Hermite and Smith forms.

Everything in this module works on nested sequences of ints/Fractions and
returns plain tuples.  Matrices here are at most rank x rank for rank <= 8,
so clarity wins over asymptotics throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac_matrix(rows):
    """Copy ``rows`` into a list of lists of Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(mat, vec):
    """Matrix times vector, exact; returns a tuple of Fractions."""
    return tuple(sum((Fraction(a) * Fraction(v) for a, v in zip(row, vec)),
                     Fraction(0)) for row in mat)


def positive_lu(mat):
    """LU factors of ``mat`` by elimination without row exchanges, or None
    when a leading principal minor is <= 0.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading
    principal minor, so every pivot is positive exactly when every minor
    is: one elimination decides Sylvester's criterion.  Returns
    ``(low, up)``, the multipliers below the diagonal of ``low`` and the
    upper-triangular ``up``; :func:`lu_det` multiplies the pivots
    ``up[k][k]`` to det mat, and :func:`lu_solve` solves with the pair.
    This is the package's only Fraction elimination.  For an integer matrix
    whose factors are not needed, :func:`positive_minors` decides the same
    criterion in integers.
    """
    up = frac_matrix(mat)
    n = len(up)
    low = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        pivot = up[col][col]
        if pivot <= 0:
            return None
        for r in range(col + 1, n):
            if up[r][col]:
                f = low[r][col] = up[r][col] / pivot
                up[r] = [x - f * y for x, y in zip(up[r], up[col])]
    return low, up


def lu_solve(factors, vec):
    """Solve ``mat @ x = vec`` exactly from ``positive_lu(mat)``."""
    low, up = factors
    n = len(up)
    y = []
    for i in range(n):
        y.append(Fraction(vec[i]) - sum(
            (low[i][j] * y[j] for j in range(i)), Fraction(0)))
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - sum((up[i][j] * x[j] for j in range(i + 1, n)),
                           Fraction(0))) / up[i][i]
    return tuple(x)


def lu_det(factors):
    """det mat from ``positive_lu(mat)``: the product of the pivots."""
    up = factors[1]
    return math.prod(up[k][k] for k in range(len(up)))


def positive_minors(mat):
    """The leading principal minors of the integer matrix ``mat``, or None
    when one is <= 0.

    Bareiss's fraction-free elimination without row exchanges: after step
    k every entry below and right of the pivot is a minor of ``mat`` of
    order k + 1, and the division by the previous pivot is exact, so the
    k-th pivot is the k-th leading principal minor and every number stays
    an integer.  The last minor is det mat.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    minors = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return None
        minors.append(pivot)
        tail = a[k][k + 1:]
        for i in range(k + 1, n):
            lead = a[i][k]
            a[i][k + 1:] = [(x * pivot - lead * y) // prev
                            for x, y in zip(a[i][k + 1:], tail)]
        prev = pivot
    return tuple(minors)


def hermite_normal_form(mat):
    """Row Hermite normal form of a nonsingular square integer matrix.

    Returns ``(h, u)`` with ``u @ mat == h``, ``u`` unimodular, and ``h``
    upper triangular with a positive diagonal and each entry above the
    diagonal reduced into ``[0, h[j][j])``: the canonical basis of the row
    lattice of ``mat``.  Raises ValueError on a singular matrix.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    u = identity_int(n)

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    for t in range(n):
        # Euclid on column t below the diagonal: the smallest nonzero entry
        # becomes the pivot and reduces the others until they vanish.
        while True:
            live = [i for i in range(t, n) if a[i][t]]
            if not live:
                raise ValueError("matrix is singular")
            p = min(live, key=lambda i: abs(a[i][t]))
            a[t], a[p] = a[p], a[t]
            u[t], u[p] = u[p], u[t]
            if len(live) == 1:
                break
            for i in range(t + 1, n):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        for i in range(t):
            row_sub(i, t, a[i][t] // a[t][t])
    return tuple(tuple(r) for r in a), tuple(tuple(r) for r in u)


def smith_normal_form(mat):
    """Smith normal form of an integer matrix with both transforms.

    Returns ``(diag, u, v)`` with ``u @ mat @ v`` diagonal, ``u`` and ``v``
    unimodular, diagonal entries nonnegative and each dividing the next.
    ``diag`` has length min(rows, cols).
    """
    a = [[int(x) for x in row] for row in mat]
    nr, nc = len(a), len(a[0])
    u = identity_int(nr)
    v = identity_int(nc)

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):  # col_i -= q * col_j
        for r in range(nr):
            a[r][i] -= q * a[r][j]
        for r in range(nc):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def reduce_from(t0):
        for t in range(t0, min(nr, nc)):
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] and (best is None
                                    or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            while True:
                for i in range(t + 1, nr):
                    if a[i][t]:
                        q = a[i][t] // a[t][t]
                        if q:
                            row_sub(i, t, q)
                dirty = [i for i in range(t + 1, nr) if a[i][t]]
                if dirty:
                    swap_rows(t, min(dirty, key=lambda r: abs(a[r][t])))
                    continue
                for j in range(t + 1, nc):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        if q:
                            col_sub(j, t, q)
                dirty = [j for j in range(t + 1, nc) if a[t][j]]
                if dirty:
                    swap_cols(t, min(dirty, key=lambda c: abs(a[t][c])))
                    continue
                break

    reduce_from(0)

    # Enforce the divisibility chain d_i | d_{i+1}.
    k = min(nr, nc)
    while True:
        bad = next((i for i in range(k - 1)
                    if a[i][i] and a[i + 1][i + 1] % a[i][i]), None)
        if bad is None:
            break
        # Fold column bad+1 into column bad and re-reduce; the new pivot is
        # gcd(d_bad, d_bad+1), strictly smaller, so this terminates.
        col_sub(bad, bad + 1, -1)
        reduce_from(bad)

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return diag, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)
