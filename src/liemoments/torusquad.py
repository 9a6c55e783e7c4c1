"""Numerical moments by quadrature on the maximal torus.

The integrands are trigonometric polynomials on the torus (characters at
powers of the argument, a band-limited class function, and the squared Weyl
denominator).  A uniform grid of size m on a simple factor sums e^mu to
m^r when mu lies in m P, P the weight lattice, and to 0 otherwise, so it
integrates the integrand *exactly* up to roundoff once no nonzero point of
m P lies in the convex hull of the integrand's weights.  That hull is the
W-permutohedron conv(W Lam) of one dominant weight Lam, and the largest m
that fails is an integer function of Lam and the inverse Cartan matrix
(:func:`required_bandwidth`, after Moody-Patera's elements of finite
order).  It comes from root data alone, never from a weight system, so the
budgets refuse before any weight system is built.  It is the only
aliasing certificate: a grid carries none of its own.  On A_r it needs
about ((r + 1) / (2 r))^r of the points that bounding each axis by the
largest |mu_i| would; on A1 the two agree.

The sum runs over one point per Weyl orbit.  On each simple factor k take
one size m_k, the largest grid size on its axes (still above the bandwidth
on every axis); the lattice (1/m_k) Q^vee / Q^vee is W-stable.  The
integrand F |Delta|^2 is W-invariant, and |Delta|^2 vanishes exactly at the
non-regular points, where W acts with a stabiliser.  Every regular point
has a free orbit that meets the open fundamental alcove once, so

    (1 / (P |W|)) sum_grid F |Delta|^2 = (1 / P) sum_alcove F |Delta|^2,

with P = prod_k m_k^rank_k.  On a product group the alcove is the
Cartesian product of the factors' alcoves, and the integrand, term by term
of f, is a product of factor integrands: each factor's alcove is summed on
its own and the sums multiplied, so sum_k |alcove_k| points are evaluated,
not prod_k.  Every budget still counts the whole group: the point budget
the whole torus grid, the alcove budget P / |W|.

Points are exact: an integer array k stands for k / m, the alcove is
walked one residue class per axis (no candidate is discarded), and every
phase is an integer mod m that indexes a table of trigonometric values.

This path shares no code with the character-ring route beyond the weight
systems themselves, which is the point: the two must agree to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from operator import mul

import numpy as np

from . import rootsys
from .asymptotics import ClassFunction, exact_form
from .charring import CycleType
from .repweights import (check_dominant_integral, weight_system,
                         weyl_dimension)


# The integrand is summed in float64: N (|a| + |b|) log dim V_lam above this
# is refused before any point is evaluated.
_MAX_LOG = 700.0


class GridError(ValueError):
    """Grid too small for the integrand bandwidth, or out of budget."""


@dataclass(frozen=True)
class TorusGrid:
    """A uniform tensor grid on the torus: sizes[i] points on axis i at
    spacing 1/sizes[i].

    Quadrature is exact on it when sizes[i] exceeds the integrand's
    :func:`required_bandwidth` (strictly) on every axis; the quadrature
    call computes that bound and refuses any grid below it.
    """
    sizes: tuple

    @property
    def num_points(self):
        return math.prod(self.sizes)


def _next_smooth(n):
    """Smallest 5-smooth integer >= n (grid sizes that factor nicely)."""
    n = max(1, n)
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@cache
def _hull_data(rs):
    """Per simple factor of ``rs``: its axes, Q = D C^-1 in integers, Q
    composed with lam -> lam* = -w0 lam, and Q 2 rho.

    D is the lcm of the denominators of the factor's inverse Cartan matrix,
    and every entry of Q is positive.  Row j of Q pairs a weight with D
    times its coefficient on alpha_j, and column i is D omega_i on the
    simple roots.  -w0 is linear: its column i is dom(-omega_i)."""
    out = []
    for block, rs_k in rootsys.simple_factors(rs):
        r = rs_k.rank
        den = math.lcm(*(x.denominator for row in rs_k.cartan_inv
                         for x in row))
        q = tuple(tuple(int(x * den) for x in row) for row in rs_k.cartan_inv)
        duals = [rootsys.dominant_representative(
                     rs_k, tuple(-int(p == i) for p in range(r)))[0]
                 for i in range(r)]
        q_dual = tuple(tuple(sum(map(mul, row, dual)) for dual in duals)
                       for row in q)
        out.append((block, q, q_dual, tuple(2 * sum(row) for row in q)))
    return tuple(out)


def required_bandwidth(rs, lam, a, b, n, f):
    """Aliasing bound of the full moment integrand, one per torus axis.

    A grid of size m on a simple factor sums e^mu to m^r [mu in m P], P the
    weight lattice, so it is exact once no nonzero point of m P lies in the
    hull of the integrand's weights.  The weights of each term of f lie in
    conv(W Lam) with

        Lam = N (a.weight lam + b.weight lam*) + nu + 2 rho,  lam* = dom(-lam)

    (Minkowski sums of W-permutohedra are permutohedra, and |Delta|^2 spans
    conv(W 2 rho)).  A dominant mu lies in that hull iff Lam - mu is in the
    cone of the positive roots, and every nonzero dominant point of m P lies
    above some m omega_i, so the hull meets m P only at 0 iff m exceeds

        max_nu max_i min_j floor((Q Lam)_j / Q[j][i]),   Q = D C^-1,

    the largest m with m omega_i in the hull.  Each factor's bound is
    repeated on its axes; everything is integer arithmetic on root data,
    and no weight system is built.

    Parameters
    ----------
    a, b : CycleType
        Exponent patterns of the plain and conjugated trace factors; the
        actual exponents are n * a_j and n * b_j.
    f : ClassFunction
        Extra class-function factor.

    Returns
    -------
    tuple of int, one bound per torus axis.
    """
    lam = check_dominant_integral(rs, lam)
    nus = [check_dominant_integral(rs, nu) for nu, _ in f.terms]
    deg_a, deg_b = n * a.weight, n * b.weight
    out = []
    for block, q, q_dual, q_two_rho in _hull_data(rs):
        lam_k = lam[block.start:block.stop]
        # Q Lam - Q nu, one entry per simple root of the factor
        trace = [deg_a * sum(map(mul, row, lam_k))
                 + deg_b * sum(map(mul, drow, lam_k)) + two_rho
                 for row, drow, two_rho in zip(q, q_dual, q_two_rho)]
        bound = 0
        for nu in nus or [(0,) * rs.rank]:
            nu_k = nu[block.start:block.stop]
            top = [t + sum(map(mul, row, nu_k)) for t, row in zip(trace, q)]
            bound = max(bound, max(min(x // row[i] for x, row in zip(top, q))
                                   for i in range(len(block))))
        out.extend([bound] * len(block))
    return tuple(out)


def default_grid(rs, lam, a, b, n, f=None):
    """Smallest safe grid: :func:`required_bandwidth` + 1 on every axis of
    each simple factor, rounded up 5-smooth.  No size exceeds the one a
    per-axis bound on the largest |mu_i| would give."""
    f = ClassFunction.one(rs.rank) if f is None else f
    bw = required_bandwidth(rs, lam, a, b, n, f)
    return TorusGrid(sizes=tuple(_next_smooth(b_ + 1) for b_ in bw))


_INT64_MAX = 2 ** 63 - 1


def _check_phase_range(rank, m):
    """Refuse a grid size m whose int64 phases could overflow: a phase sums
    ``rank`` products of residues below m."""
    if m < 1:
        raise GridError(f"grid size must be >= 1, got {m}")
    if rank * (m - 1) ** 2 > _INT64_MAX:
        raise GridError(
            f"grid size {m} on rank {rank}: phases up to {rank} * {m - 1}^2 "
            f"overflow int64")


class _GridPoints:
    """Integer torus points k / m reduced mod m once, with the two phase
    tables of m: one alcove sum hands the same residues and tables to every
    evaluator call instead of each call building its own."""

    __slots__ = ("residues", "m", "circle", "four_sin_sq")

    def __init__(self, residues, m, circle, four_sin_sq):
        self.residues = residues            # k mod m, int64
        self.m = m
        self.circle = circle                # cos + i sin of 2 pi t / m
        self.four_sin_sq = four_sin_sq      # 4 sin^2(pi t / m)

    @classmethod
    def of(cls, k, m):
        """k itself when the alcove sum prepared it for m; otherwise the
        integer point(s) k reduced mod m, with tables built for m."""
        if isinstance(k, cls) and k.m == m:
            return k
        pts = np.asarray(k)
        if pts.dtype.kind != "i":
            raise TypeError(f"torus grid points must be signed integers, "
                            f"got {pts.dtype}")
        t = np.arange(m)
        return cls(pts.astype(np.int64, copy=False) % m, m,
                   np.exp(1j * (2 * math.pi * t / m)),
                   4 * np.sin(math.pi * t / m) ** 2)

    def dilated(self, j):
        """The points j k, on the same tables."""
        return _GridPoints(j * self.residues % self.m, self.m, self.circle,
                           self.four_sin_sq)

    def __len__(self):
        return len(self.residues)

    def phases(self, vectors):
        """<v, k> mod m in int64 for each row v of ``vectors``:
        (k mod m) @ (v mod m) mod m, exact integers; no vectors give an
        empty last axis."""
        vecs = np.array(vectors, dtype=np.int64).reshape(
            len(vectors), self.residues.shape[-1]) % self.m
        t = self.residues @ vecs.T
        t %= self.m
        return t


def character_at(ws, k, m):
    """Character with weight system ``ws`` at the torus point(s) k / m in
    simple-coroot coordinates, k integral: a complex for one point, a
    length-P complex array for a ``(P, rank)`` integer array k.

    Each phase <mu, k> mod m is an exact integer t that indexes one table of
    cos + i sin of 2 pi t / m, so k and k + m e_i give identical bits.  The
    alcove sum passes its points already reduced, with the table built.
    The empty weight system is the zero character: it forms no phase, and
    its value is 0 at every point."""
    weights = list(ws.entries)
    _check_phase_range(len(weights[0]) if weights else 0, m)
    pts = _GridPoints.of(k, m)
    t = pts.phases(weights)
    mults = np.array(list(ws.entries.values()), dtype=float)
    vals = pts.circle[t] @ mults
    return complex(vals) if t.ndim == 1 else vals


def weyl_denominator_sq(rs, k, m):
    """prod over positive roots of 4 sin^2(pi <alpha, k / m>), k integral: a
    float for one point, a length-P array for a ``(P, rank)`` integer array
    k.  Each factor indexes one table of 4 sin^2(pi t / m) at the exact
    integer t = <alpha, k> mod m."""
    _check_phase_range(rs.rank, m)
    pts = _GridPoints.of(k, m)
    t = pts.phases(rs.positive_roots)
    vals = np.prod(pts.four_sin_sq[t], axis=-1)
    return float(vals) if t.ndim == 1 else vals


def _alcove_factor(rs, m):
    """Points of the grid (1/m) Z^r in the open fundamental alcove of the
    simple group ``rs``, as an integer array k with the points at k / m.

    In root-value coordinates z = k @ C, z_j = m <alpha_j, k / m>, the open
    alcove is z_j >= 1 and sum_j a_j z_j <= m - 1, with a_j the marks of the
    highest root.  The z of grid points are the row lattice of C; with
    H = U @ C its upper-triangular Hermite form (``rs.coroot_grid_basis``)
    they are z = c @ H, c integral, so once z_1 .. z_{j-1} (and with them
    c_1 .. c_{j-1}) are fixed, z_j runs over one residue class mod H_jj.
    Every z the walk visits is a grid point, k = c @ U; none is discarded.
    """
    marks = max(rs.positive_rootcoords, key=sum)
    h, u = rs.coroot_grid_basis
    c = np.zeros((1, 0), dtype=np.int64)
    room = np.array([m - 1], dtype=np.int64)
    for j, aj in enumerate(marks):
        # z_j = base + c_j H_jj with base = sum_{i<j} c_i H_ij; c_j runs
        # from lo (z_j >= 1) to hi, leaving room for z_i = 1 on later axes
        step = h[j][j]
        base = c @ np.array([row[j] for row in h[:j]], dtype=np.int64)
        lo = -((base - 1) // step)
        hi = ((room - sum(marks[j + 1:])) // aj - base) // step
        count = np.maximum(hi - lo + 1, 0)
        rows = np.repeat(np.arange(len(c)), count)
        cj = np.arange(len(rows)) + np.repeat(lo - np.cumsum(count) + count,
                                              count)
        c = np.column_stack([c[rows], cj])
        room = room[rows] - aj * (base[rows] + step * cj)
    return c @ np.array(u, dtype=np.int64)


def _factor_grids(rs, sizes, max_points):
    """Per simple factor its axes, its datum and its one size m_k, the
    largest of its axes' sizes, and the number P = prod_k m_k^rank_k of
    torus-grid points the alcove sums stand for.

    The alcove of the whole group holds at most P / |W| points; a caller
    grid whose sizes within a factor differ so much that this exceeds
    ``max_points``, or a size whose phases could overflow int64, is
    refused before any point is enumerated.
    """
    factors = [(block, rs_k, max(sizes[i] for i in block))
               for block, rs_k in rootsys.simple_factors(rs)]
    for block, _, m in factors:
        _check_phase_range(len(block), m)
    cells = math.prod(m ** len(block) for block, _, m in factors)
    if cells // rs.weyl_order > max_points:
        raise GridError(
            f"grid {sizes} puts up to {cells // rs.weyl_order} points in "
            f"the alcove (largest size of each simple factor on all its "
            f"axes), budget is {max_points}")
    return factors, cells


def _alcove_sums(rs, lam, a, b, n, weights, m):
    """Sum over the alcove points of the simple group ``rs`` on the grid
    (1/m) Z^r of chi_nu |Delta|^2 prod_j chi(g^j)^(n a_j)
    conj(chi(g^j))^(n b_j), chi the character of ``lam``, for each nu in
    ``weights``: a dict nu -> complex, each part one exactly rounded
    :func:`math.fsum`."""
    # one residue array and one pair of tables serve every evaluation
    pts = _GridPoints.of(_alcove_factor(rs, m), m)
    ws = weight_system(rs, lam)
    base = weyl_denominator_sq(rs, pts, m).astype(complex)
    # chi(g^j) at k is chi at j k: one synthesis per Adams degree
    for j, (aj, bj) in enumerate(zip_longest(a.exps, b.exps, fillvalue=0),
                                 start=1):
        if not (aj or bj):
            continue
        chi = character_at(ws, pts.dilated(j), m)
        if aj:
            base *= chi ** (n * aj)
        if bj:
            base *= np.conj(chi, out=chi) ** (n * bj)
    sums = {}
    for nu in weights:
        terms = character_at(weight_system(rs, nu), pts, m) * base
        sums[nu] = complex(math.fsum(terms.real.tolist()),
                           math.fsum(terms.imag.tolist()))
    return sums


def _quad_core(rs, lam, a, b, n, f, grid, max_points):
    lam = check_dominant_integral(rs, lam)
    f = (ClassFunction.one(rs.rank) if f is None else f).validated(rs)
    if n < 0:
        raise ValueError(f"N must be >= 0, got {n}")
    dim = weyl_dimension(rs, lam)
    mag = (a.size + b.size) * n * math.log(dim)
    if mag > _MAX_LOG:
        raise GridError(
            f"integrand magnitude exp({mag:.1f}) exceeds the float budget "
            f"exp({_MAX_LOG}); refusing rather than overflow")
    if grid is None:
        grid = default_grid(rs, lam, a, b, n, f)
    elif len(grid.sizes) != rs.rank:
        raise GridError(f"grid {grid.sizes} has {len(grid.sizes)} axes, "
                        f"the torus of {rs.describe()} has rank {rs.rank}")
    else:
        bw = required_bandwidth(rs, lam, a, b, n, f)
        bad = [i for i in range(rs.rank) if grid.sizes[i] <= bw[i]]
        if bad:
            need = tuple(b_ + 1 for b_ in bw)
            raise GridError(
                f"grid {grid.sizes} aliases on axes {bad}: integrand "
                f"bandwidth is {bw}, need at least {need} points per axis")
    if grid.num_points > max_points:
        raise GridError(
            f"grid has {grid.num_points} points, budget is {max_points}")

    # The integrand is a product over the simple factors, and so is each
    # term of f: the sum is sum_nu c_nu prod_k S_k(nu_k), one alcove per
    # factor.
    factors, cells = _factor_grids(rs, grid.sizes, max_points)
    terms = [(check_dominant_integral(rs, nu), c) for nu, c in f.terms]
    values = [c for _, c in terms]
    for block, rs_k, m in factors:
        part = slice(block.start, block.stop)
        sums = _alcove_sums(rs_k, lam[part], a, b, n,
                            dict.fromkeys(nu[part] for nu, _ in terms), m)
        values = [v * sums[nu[part]] for v, (nu, _) in zip(values, terms)]
    total = sum(values) / cells
    residual = abs(total.imag)
    if residual > 1e-10 * max(1.0, abs(total.real)):
        raise GridError(
            f"imaginary residual {residual:.3e} above tolerance for value "
            f"{total.real:.6e}; quadrature inconsistent")
    return total.real


def quad_I_N(rs, lam, a, n, f=None, grid=None, max_points=4_000_000):
    """Torus quadrature of the one-sided moment with exponents N * a_j.

    Exact up to roundoff on any admissible grid; refuses grids below the
    computed bandwidth and magnitudes beyond the float range.
    """
    return _quad_core(rs, lam, a, CycleType(()), n, f, grid, max_points)


def quad_K_N(rs, lam, a, b, n, f=None, grid=None, max_points=4_000_000):
    """Torus quadrature of the two-sided moment (conjugated b factors)."""
    return _quad_core(rs, lam, a, b, n, f, grid, max_points)


def mehta_quadrature(rs, h, extra_nodes=0):
    """Gauss-Hermite evaluation of the Gaussian kappa^2 integral.

    Substituting x = L^{-T} y for the Cholesky factor L of ``h`` turns the
    integral into a standard-Gaussian expectation of a polynomial of degree
    2 * #positive roots, which a tensor Gauss-Hermite rule with
    #positive + 1 (+ extra_nodes) points per axis integrates exactly.
    Supports rank <= 3 (tensor grids grow fast).  ``h`` need not commute
    with the Weyl action, but must pass the exact shape, symmetry and
    definiteness checks of :func:`asymptotics.exact_form`.
    """
    if rs.rank > 3:
        raise ValueError(f"tensor Gauss-Hermite limited to rank <= 3, "
                         f"got rank {rs.rank}")
    m = exact_form(rs, h, equivariant=False)
    chol = np.linalg.cholesky(np.array(m, dtype=float))
    deg = rs.num_positive_roots + 1 + extra_nodes
    nodes, weights = np.polynomial.hermite_e.hermegauss(deg)
    mesh = np.meshgrid(*([nodes] * rs.rank), indexing="ij")
    y = np.stack(mesh, axis=-1).reshape(-1, rs.rank)
    wmesh = np.meshgrid(*([weights] * rs.rank), indexing="ij")
    wprod = np.stack(wmesh, axis=-1).reshape(-1, rs.rank).prod(axis=1)
    x = np.linalg.solve(chol.T, y.T).T
    kap = np.ones(len(x))
    for alpha in rs.positive_roots:
        kap *= x @ np.array(alpha, dtype=float)
    det_sqrt = float(np.prod(np.diagonal(chol)))
    return float((wprod * kap ** 2).sum() / det_sqrt)
