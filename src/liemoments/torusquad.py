"""Numerical moments by quadrature on the maximal torus.

The integrands are trigonometric polynomials on the torus (characters at
powers of the argument, a band-limited class function, and the squared Weyl
denominator), so a uniform tensor grid with more points per axis than the
per-axis bandwidth integrates them *exactly* up to roundoff.  The bandwidth
is computed from the weight systems involved, never guessed.

This path shares no code with the character-ring route beyond the weight
systems themselves, which is the point: the two must agree to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .asymptotics import ClassFunction
from .charring import CycleType
from .repweights import check_dominant_integral, weight_system, weyl_dimension


class GridError(ValueError):
    """Grid too small for the integrand bandwidth, or out of budget."""


@dataclass(frozen=True)
class TorusGrid:
    """A uniform tensor grid on the torus with its aliasing certificate.

    sizes[i] points on axis i at spacing 1/sizes[i]; exactness holds when
    sizes[i] exceeds bandwidth_bound[i] (strictly) on every axis.
    """
    sizes: tuple
    bandwidth_bound: tuple

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


def required_bandwidth(rs, lam, a, b, n, f):
    """Per-axis frequency bound of the full moment integrand.

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
    maxw = weight_system(rs, lam).max_abs_coord()
    out = []
    for i in range(rs.rank):
        trace_part = (a.weight + b.weight) * n * maxw[i]
        f_part = max((weight_system(rs, nu).max_abs_coord()[i]
                      for nu, _ in f.terms), default=0)
        denom_part = sum(abs(alpha[i]) for alpha in rs.positive_roots)
        out.append(trace_part + f_part + denom_part)
    return tuple(out)


def default_grid(rs, lam, a, b, n, f=None):
    """Smallest safe grid: bandwidth + 1 per axis, rounded up 5-smooth."""
    f = ClassFunction.one(rs.rank) if f is None else f
    bw = required_bandwidth(rs, lam, a, b, n, f)
    return TorusGrid(sizes=tuple(_next_smooth(b_ + 1) for b_ in bw),
                     bandwidth_bound=bw)


def character_at(ws, phi):
    """Character with weight system ``ws`` at torus point(s) ``phi`` in
    simple-coroot coordinates: a complex for one point, a length-P complex
    array for a ``(P, rank)`` array of points."""
    pts = np.asarray(phi, dtype=float)
    weights = np.array(list(ws.entries), dtype=float)
    mults = np.array(list(ws.entries.values()), dtype=float)
    theta = pts @ weights.T
    theta *= 2 * math.pi
    vals = np.cos(theta) @ mults + 1j * (np.sin(theta) @ mults)
    return complex(vals) if pts.ndim == 1 else vals


def weyl_denominator_sq(rs, phi):
    """prod over positive roots of 4 sin^2(pi <alpha, phi>): a float for one
    point, a length-P array for a ``(P, rank)`` array of points."""
    pts = np.asarray(phi, dtype=float)
    roots = np.array(rs.positive_roots, dtype=float)
    vals = np.prod(4 * np.sin(math.pi * (pts @ roots.T)) ** 2, axis=-1)
    return float(vals) if pts.ndim == 1 else vals


def _grid_points(grid):
    axes = [np.arange(m, dtype=float) / m for m in grid.sizes]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(grid.sizes))


def _quad_core(rs, lam, a, b, n, f, grid, max_log, max_points):
    lam = check_dominant_integral(rs, lam)
    f = (ClassFunction.one(rs.rank) if f is None else f).validated(rs)
    if n < 0:
        raise ValueError(f"N must be >= 0, got {n}")
    dim = weyl_dimension(rs, lam)
    mag = (a.size + b.size) * n * math.log(dim)
    if mag > max_log:
        raise GridError(
            f"integrand magnitude exp({mag:.1f}) exceeds the float budget "
            f"exp({max_log}); refusing rather than overflow")
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

    pts = _grid_points(grid)
    ws = weight_system(rs, lam)
    integrand = sum(c * character_at(weight_system(rs, nu), pts)
                    for nu, c in f.terms)
    integrand *= weyl_denominator_sq(rs, pts)
    # chi(g^j) = character_at(ws, j * phi): one synthesis per Adams degree
    for j, (aj, bj) in enumerate(zip_longest(a.exps, b.exps, fillvalue=0),
                                 start=1):
        if not (aj or bj):
            continue
        chi = character_at(ws, j * pts)
        if aj:
            integrand *= chi ** (n * aj)
        if bj:
            integrand *= np.conj(chi, out=chi) ** (n * bj)

    total = complex(math.fsum(integrand.real), math.fsum(integrand.imag))
    total /= len(pts) * rs.weyl_order
    residual = abs(total.imag)
    if residual > 1e-10 * max(1.0, abs(total.real)):
        raise GridError(
            f"imaginary residual {residual:.3e} above tolerance for value "
            f"{total.real:.6e}; quadrature inconsistent")
    return total.real


def quad_I_N(rs, lam, a, n, f=None, grid=None, max_log=700.0,
             max_points=4_000_000):
    """Torus quadrature of the one-sided moment with exponents N * a_j.

    Exact up to roundoff on any admissible grid; refuses grids below the
    computed bandwidth and magnitudes beyond the float range.
    """
    return _quad_core(rs, lam, a, CycleType(()), n, f, grid, max_log,
                      max_points)


def quad_K_N(rs, lam, a, b, n, f=None, grid=None, max_log=700.0,
             max_points=4_000_000):
    """Torus quadrature of the two-sided moment (conjugated b factors)."""
    return _quad_core(rs, lam, a, b, n, f, grid, max_log, max_points)


def mehta_quadrature(rs, h, extra_nodes=0):
    """Gauss-Hermite evaluation of the Gaussian kappa^2 integral.

    Substituting x = L^{-T} y for the Cholesky factor L of ``h`` turns the
    integral into a standard-Gaussian expectation of a polynomial of degree
    2 * #positive roots, which a tensor Gauss-Hermite rule with
    #positive + 1 (+ extra_nodes) points per axis integrates exactly.
    Supports rank <= 3 (tensor grids grow fast).
    """
    if rs.rank > 3:
        raise ValueError(f"tensor Gauss-Hermite limited to rank <= 3, "
                         f"got rank {rs.rank}")
    m = np.array([[float(x) for x in row] for row in h], dtype=float)
    if not np.allclose(m, m.T, rtol=1e-12, atol=0):
        raise ValueError("matrix must be symmetric")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("matrix must be positive definite") from None
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
