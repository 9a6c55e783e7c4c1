"""Exact linear algebra on tiny matrices: one fraction-free elimination
(leading minors and solutions), Hermite and Smith forms.

Everything in this module works on nested sequences of ints/Fractions and
returns plain tuples; the eliminations run in integers, and Fractions
appear only in results.  Matrices here are at most rank x rank for rank <= 8,
so clarity wins over asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(mat, vec):
    """Matrix times vector, exact; returns a tuple of Fractions."""
    return tuple(sum((Fraction(a) * Fraction(v) for a, v in zip(row, vec)),
                     Fraction(0)) for row in mat)


def eliminate(mat, columns=()):
    """Fraction-free elimination of the integer matrix ``mat`` without row
    exchanges: ``(minors, solutions)``, or None when a leading principal
    minor is <= 0.

    ``minors`` are the leading principal minors, the last one det mat, and
    ``solutions`` holds mat^-1 c as Fractions for each integer vector c of
    ``columns``.  Bareiss's step k replaces each entry x of a row by
    (x p_k - l y) / p_(k-1), with p_k the k-th pivot, l the row's entry in
    the pivot column and y the pivot row's entry: the division is exact,
    the entries below and right of the pivot are minors of order k + 1,
    and the k-th pivot is the k-th leading minor, so the pivots decide
    Sylvester's criterion.  With columns, the rows above the pivot are
    reduced as well (the Gauss-Jordan form), which leaves det mat times
    mat^-1 c in the augmented columns; each solution is divided by det mat
    once, at the end.  Every intermediate is an int.
    """
    n = len(mat)
    a = [list(map(index, row)) for row in mat]
    for c in columns:
        for row, x in zip(a, c, strict=True):
            row.append(index(x))
    minors = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return None
        minors.append(pivot)
        tail = a[k][k + 1:]
        for i in range(n) if columns else range(k + 1, n):
            if i != k:
                lead = a[i][k]
                a[i][k + 1:] = [(x * pivot - lead * y) // prev
                                for x, y in zip(a[i][k + 1:], tail)]
        prev = pivot
    return tuple(minors), tuple(
        tuple(Fraction(row[j], prev) for row in a)
        for j in range(n, n + len(columns)))


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
