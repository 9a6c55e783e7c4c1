"""Numerical moments by quadrature on the maximal torus.

The integrands are trigonometric polynomials on the torus (characters at
powers of the argument, a band-limited class function, and the squared Weyl
denominator).  chi_V(g^j) is the character of psi^j V, whose weights are
V's times j (:func:`charring.adams`).  A uniform grid of size m on a simple
factor sums e^mu to m^r when mu lies in m P, P the weight lattice, and to 0
otherwise, so it integrates the integrand *exactly* up to roundoff once no
nonzero point of m P lies in the convex hull of the integrand's weights.
That hull is the W-permutohedron conv(W Lam) of one dominant weight Lam,
and the largest m that fails is an integer function of Lam and the inverse
Cartan matrix (:func:`required_bandwidth`, after Moody-Patera's elements of
finite order).  It comes from root data alone, never from a weight system,
so the budgets refuse before any weight system is built.  It is the only
aliasing certificate: a grid carries none of its own, and the default grid
is the bound plus one on every axis, since the alcove walk and the phase
tables below take any size.  On A_r it needs about ((r + 1) / (2 r))^r of
the points that bounding each axis by the largest |mu_i| would; on A1 the
two agree.

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
phase <v, k> is an exact integer whose residue mod m indexes a table of
trigonometric values.

A grid above the certificate of the largest N of a schedule is exact for
every smaller N, since the bound grows with N.  A sweep
(:func:`quad_sequence`) therefore cuts its rows into bands, from the
largest N down, of rows whose own grids have at least half the points of
the band's top grid; each band synthesises its characters once, and each
row only raises, multiplies and sums.  A row never sums over more than
twice its own grid's points, so a long sweep does not pay for its largest
alcove on every row.  The alcoves themselves are nested: in root-value
coordinates the alcove of size m is z_j >= 1, sum_j a_j z_j <= m - 1 on a
lattice that does not depend on m, so it is the alcove of any size M >= m
cut at level m - 1.  A sweep evaluates its bands in order and walks each
factor's alcove once, at the first band's size (the largest), ordered by
level, so every band's points are a prefix of the walk.  A band refused
on a walk of its top's own sizes refuses only its top row, as a one-N call
would, and the rows below it band again on the same walk; a band refused
on a larger walk runs again on a walk of its top's own sizes, whatever
refused it.  On a caller grid a refusal refuses every row.  The walk is
one pass over 1-D integer columns.  The phases of the whole walk are
formed once per vector set (one int64 matrix product each, held for the
sweep), and every band reads its prefix through its tables repeated over
the phases' range, with no product or reduction of its own.  The rows'
certificates share their N-independent sums (:func:`_hull_sums`), formed
once per sweep.  A one-N call is the one-element schedule.

On the alcove the two-sided integrand |Delta|^2 |chi|^(2N) is real and
nonnegative: each Adams degree's paired part min(a_j, b_j) is raised as
the real |chi|^2, only the unpaired rest is raised in complex, and a row
without phase (every degree paired, trivial nu) takes one real sum.  A
one-sided row has no paired part: its arithmetic, and so its value, is
that of an all-complex sum.  Every sum is exactly rounded
(:func:`_exact_sum`): math.fsum over a list of the values on a small
alcove, and from ``_BINNED_SUM_MIN`` points on exact per-exponent sums
(np.bincount) that one math.fsum rounds.  Both give the bits of
math.fsum, so the alcove's size only picks the faster path.

This path shares no code with the character-ring route beyond the weight
systems themselves, which is the point: the two must agree to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import takewhile, zip_longest
from operator import floordiv, mul

import numpy as np

from . import rootsys
from .asymptotics import ClassFunction
from .charring import CycleType, adams
from .repweights import (check_dominant_integral, weight_system,
                         weyl_dimension)


# The integrand is summed in float64: N (|a| + |b|) log dim V_lam above this
# is refused before any point is evaluated.
_MAX_LOG = 700.0

# A row whose torus grid, or whose alcove bound P / |W| (_factor_grids),
# holds more points than this is refused before any point is enumerated.
_MAX_POINTS = 4_000_000

# Bytes that a walk's held phases, or one gathered table, may take.
_MAX_BYTES = 2 ** 28

# An alcove of at least this many points is summed in exponent bins
# (_exact_sum), a smaller one by math.fsum over a list, whose per-call cost
# is lower there; on integrand rows of rank 1-4 the two cross at about 250
# points.  Both sums are exactly rounded, so the choice moves no bit.
_BINNED_SUM_MIN = 256


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


@cache
def _hull_data(rs):
    """Per simple factor of ``rs``: its axes, Q = D C^-1 in integers
    (:func:`rootsys.scaled_cartan_inv`), Q composed with
    lam -> lam* = -w0 lam, and Q 2 rho.

    D is the lcm of the denominators of the factor's inverse Cartan matrix,
    and every entry of Q is positive.  Row j of Q pairs a weight with D
    times its coefficient on alpha_j, and column i is D omega_i on the
    simple roots.  -w0 is linear: its column i is dom(-omega_i)."""
    out = []
    for block, rs_k in rootsys.simple_factors(rs):
        r = rs_k.rank
        _, q = rootsys.scaled_cartan_inv(rs_k)
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
    return _bandwidth(_hull_sums(
        rs, check_dominant_integral(rs, lam),
        [check_dominant_integral(rs, nu) for nu, _ in f.terms]), a, b, n)


def _hull_sums(rs, lam, nus):
    """The N-independent part of :func:`required_bandwidth` for a checked
    ``lam`` and the checked highest weights ``nus`` of f's terms; validates
    nothing.  Per simple factor: its axis count, the columns of Q, Q lam,
    Q lam*, and Q 2 rho + Q nu for each distinct projection nu of ``nus``
    (nu = 0 when there is none).  A sweep forms them once for all its
    rows."""
    out = []
    for block, q, q_dual, q_two_rho in _hull_data(rs):
        part = slice(block.start, block.stop)
        lam_k = lam[part]
        fixed = [tuple(t + sum(map(mul, row, nu)) for t, row
                       in zip(q_two_rho, q))
                 for nu in dict.fromkeys(nu[part] for nu in nus
                                         or [(0,) * rs.rank])]
        out.append((len(block), tuple(zip(*q)),
                    [sum(map(mul, row, lam_k)) for row in q],
                    [sum(map(mul, row, lam_k)) for row in q_dual], fixed))
    return out


def _bandwidth(sums, a, b, n):
    """:func:`required_bandwidth` at n from the :func:`_hull_sums` of its
    weights: (Q Lam)_j = N (a.weight (Q lam)_j + b.weight (Q lam*)_j) plus
    the row's fixed sum, then the floor divisions."""
    deg_a, deg_b = n * a.weight, n * b.weight
    out = []
    for width, cols, q_lam, q_dual, fixed in sums:
        trace = [deg_a * x + deg_b * y for x, y in zip(q_lam, q_dual)]
        bound = 0
        for sums_nu in fixed:
            top = [t + x for t, x in zip(trace, sums_nu)]
            bound = max(bound, max(min(map(floordiv, top, col))
                                   for col in cols))
        out.extend([bound] * width)
    return tuple(out)


def default_grid(rs, lam, a, b, n, f=None):
    """Smallest safe grid: :func:`required_bandwidth` + 1 on every axis,
    neither rounded nor clamped (the bound is at least 2, as 2 omega_i
    lies in conv(W 2 rho))."""
    f = ClassFunction.one(rs.rank) if f is None else f
    bw = required_bandwidth(rs, lam, a, b, n, f)
    return TorusGrid(sizes=tuple(b_ + 1 for b_ in bw))


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


def _phase_tables(m):
    """cos + i sin of 2 pi t / m and 4 sin^2(pi t / m) for t = 0 .. m - 1.

    t and m - t share 4 sin^2 and have conjugate phases, so both tables
    mirror their first half t = 0..m/2: sin(pi t / m) then never meets a
    float64 angle near pi, whose rounding costs 4 sin^2 up to ~1000 ulp
    near t = m.  The half turn t = m/2 is -1 exactly, so every phase is the
    conjugate of its mirror's.

    Both tables read one angle array u = pi t / m; the phase takes 2 u,
    which is the float64 2 pi t / m bit for bit (doubling is exact, and
    rounding commutes with it), so the tables are those of the two
    separate angles."""
    k = np.arange(m // 2 + 1)
    u = math.pi * k / m
    circle = np.exp(1j * (2 * u))
    if m % 2 == 0:
        circle[-1] = -1
    four_sin_sq = 4 * np.sin(u) ** 2
    back = slice((m - 1) // 2, 0, -1)   # m - t for t = m/2 + 1 .. m - 1
    return (np.concatenate((circle, circle[back].conj())),
            np.concatenate((four_sin_sq, four_sin_sq[back])))


def _check_bytes(nbytes, what, *args):
    """Refuse, before it is formed, an array of more than ``_MAX_BYTES``,
    named by ``what.format(*args)``, which is formatted only then."""
    if nbytes > _MAX_BYTES:
        raise GridError(f"{what.format(*args)} would take {nbytes} bytes, "
                        f"byte budget is {_MAX_BYTES}")


def _phases(points, vectors):
    """<v, k> in int64 for each row k of ``points`` and each row v of the
    int64 array ``vectors``.  numpy has no BLAS product for integers, so
    this is the costly step of an evaluation, and a quadrature sweep makes
    it once per vector set and walk."""
    return points @ vectors.T


def _wrapped(table, lo, hi):
    """``table`` repeated so that indexing it at any integer t in [lo, hi]
    reads table[t mod m], m = len(table): it covers 0 .. hi and, by
    numpy's negative indices from its end, lo .. -1, and its length is a
    multiple of m.  The table itself when [lo, hi] lies in [0, m); a
    repeated table past the byte budget is refused before it is formed."""
    m = len(table)
    reps = -(-max(hi + 1, -lo, 1) // m)
    if reps == 1:
        return table
    _check_bytes(reps * table.nbytes,
                 "a table of {} phases repeated over phases {}..{}", m, lo,
                 hi)
    return np.concatenate((table,) * reps)


class _Walk:
    """One simple factor's alcove walk at the size M of the band that built
    it (a sweep's first band, or a band whose phases the held walk could
    not hold), ordered by level, so that the alcove of any size m <= M (the
    points of level <= m - 1, :func:`_alcove_levels`) is a prefix of it.
    The phases <v, k> of all its points are formed on first use, once per
    vector set, and held with their range until the walk is dropped; the
    int64 guard on them reads the walk's largest |k_i|, taken once."""

    __slots__ = ("points", "levels", "reach", "sets")

    def __init__(self, rs, m):
        points = _alcove_factor(rs, m)
        levels = _alcove_levels(rs, points)
        # levels lie in [0, m); in the narrowest signed dtype that holds
        # them, 16 bits or fewer for m <= 2^15, numpy sorts by radix
        order = np.argsort(levels.astype(np.min_scalar_type(-m)),
                           kind="stable")
        self.points = np.take(points, order, axis=0)
        self.levels, self.sets = levels[order], {}
        self.reach = int(np.abs(points).max(initial=0))   # max |k_i|

    def at(self, m):
        """The alcove of size m <= M, with the tables of m."""
        count = int(np.searchsorted(self.levels, m))
        return _GridPoints(self, count, m, *_phase_tables(m))

    def phases(self, vectors):
        """<v, k> for every point k and row v of ``vectors``, with its
        least and largest entry; refuses phases that could overflow."""
        key = tuple(vectors)
        if key not in self.sets:
            count, rank = self.points.shape
            vecs = np.array(vectors, dtype=np.int64).reshape(len(vectors),
                                                             rank)
            top = int(np.abs(vecs).max(initial=0))
            held = sum(t.nbytes for t, _, _ in self.sets.values())
            if rank * self.reach * top > _INT64_MAX:
                raise GridError(f"phases of weights up to {top} on an "
                                f"alcove walk of rank {rank} could overflow "
                                f"int64")
            _check_bytes(held + 8 * count * len(vectors),
                         "the phases held on an alcove walk of {} points",
                         count)
            t = _phases(self.points, vecs)
            self.sets[key] = (t, *((int(t.min()), int(t.max())) if t.size
                                   else (0, 0)))
        return self.sets[key]


class _Residues:
    """Integer torus points reduced mod m, whose phases are formed and
    reduced mod m on each call: exact integers in [0, m)."""

    __slots__ = ("points", "m")

    def __init__(self, points, m):
        self.points, self.m = points, m

    def phases(self, vectors):
        vecs = np.array(vectors, dtype=np.int64).reshape(
            len(vectors), self.points.shape[-1])
        count = math.prod(self.points.shape[:-1])
        _check_bytes(8 * count * len(vectors),
                     "the phases of {} vectors at {} points", len(vectors),
                     count)
        t = _phases(self.points, vecs % self.m)
        t %= self.m
        return t, 0, self.m - 1


class _GridPoints:
    """Integer torus points k / m with the two phase tables of m, and the
    source of their phases.

    Points from a caller are reduced mod m once (:class:`_Residues`).  A
    quadrature band passes the first ``count`` points of its factor's
    :class:`_Walk`, whose phases the sweep formed once, unreduced: the
    band reads its prefix of them through the tables repeated over their
    range (:func:`_wrapped`), without a product or a reduction of its own.
    Either way every phase reads table[<v, k> mod m]; ``count`` is None
    for a caller's points."""

    __slots__ = ("source", "count", "m", "circle", "four_sin_sq")

    def __init__(self, source, count, m, circle, four_sin_sq):
        self.source, self.count, self.m = source, count, m
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
        residues = _Residues(pts.astype(np.int64, copy=False) % m, m)
        return cls(residues, None, m, *_phase_tables(m))

    def __len__(self):
        return len(self.source.points) if self.count is None else self.count

    def lookup(self, table, vectors):
        """table[<v, k> mod m] for each point k and each row v of
        ``vectors``, a last axis of len(vectors)."""
        t, lo, hi = self.source.phases(vectors)
        t = t[:self.count]
        _check_bytes(t.size * table.itemsize, "a table of {} phases", t.size)
        return _wrapped(table, lo, hi)[t]


def character_at(ws, k, m):
    """Character with weight system ``ws`` at the torus point(s) k / m in
    simple-coroot coordinates, k integral: a complex for one point, a
    length-P complex array for a ``(P, rank)`` integer array k.

    Each phase <mu, k> is an exact integer t that indexes one table of
    cos + i sin of 2 pi t / m at t mod m, so k and k + m e_i give identical
    bits.  The alcove sum passes its points with their phases formed and
    the table built.  The empty weight system is the zero character: it
    forms no phase, and its value is 0 at every point."""
    weights = list(ws.entries)
    _check_phase_range(len(weights[0]) if weights else 0, m)
    pts = _GridPoints.of(k, m)
    mults = np.array(list(ws.entries.values()), dtype=float)
    vals = pts.lookup(pts.circle, weights) @ mults
    return complex(vals) if vals.ndim == 0 else vals


def weyl_denominator_sq(rs, k, m):
    """prod over positive roots of 4 sin^2(pi <alpha, k / m>), k integral: a
    float for one point, a length-P array for a ``(P, rank)`` integer array
    k.  Each factor indexes one table of 4 sin^2(pi t / m) at the exact
    integer t = <alpha, k> mod m.

    The factors are multiplied root by root, in the order of the positive
    roots, into one running product: numpy reduces a short last axis in
    that order too, so the bits are those of np.prod(..., axis=-1) over
    the looked-up factors, without its reduction's per-call cost."""
    _check_phase_range(rs.rank, m)
    pts = _GridPoints.of(k, m)
    factors = pts.lookup(pts.four_sin_sq, rs.positive_roots)
    vals = factors[..., 0].copy()
    for i in range(1, factors.shape[-1]):
        vals *= factors[..., i]
    return float(vals) if vals.ndim == 0 else vals


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

    The walk is one pass over 1-D columns: each axis repeats the columns
    c_1 .. c_{j-1} fixed so far, and every later axis l carries its partial
    base sum_{i<j} c_i H_il, which gains c_j H_jl once c_j is fixed.
    """
    marks = rs.positive_rootcoords[-1]     # the highest root
    h, u = rs.coroot_grid_basis
    cols = []
    bases = [np.zeros(1, dtype=np.int64)] * len(marks)
    room = np.array([m - 1], dtype=np.int64)
    for j, aj in enumerate(marks):
        # z_j = base + c_j H_jj; c_j runs from lo (z_j >= 1) to hi, leaving
        # room for z_i = 1 on later axes
        step, base = h[j][j], bases[0]
        lo = -((base - 1) // step)
        hi = ((room - sum(marks[j + 1:])) // aj - base) // step
        count = np.maximum(hi - lo + 1, 0)
        cj = np.arange(int(count.sum())) + np.repeat(
            lo - np.cumsum(count) + count, count)
        cols = [np.repeat(col, count) for col in cols] + [cj]
        room = np.repeat(room - aj * base, count) - aj * step * cj
        bases = [np.repeat(b, count) + h_jl * cj
                 for b, h_jl in zip(bases[1:], h[j][j + 1:])]
    return np.column_stack(cols) @ np.array(u, dtype=np.int64)


def _alcove_levels(rs, k):
    """The level sum_j a_j z_j = <theta, k> of each point k of
    :func:`_alcove_factor`, theta the highest root.  Only the level bound
    depends on m, so for m <= M the walk at m is the walk at M cut to the
    points of level <= m - 1, in the same order."""
    return k @ np.array(rs.positive_roots[-1], dtype=np.int64)


def _factor_grids(rs, sizes):
    """Per simple factor its axes, its datum and its one size m_k, the
    largest of its axes' sizes, and the number P = prod_k m_k^rank_k of
    torus-grid points the alcove sums stand for.

    The alcove of the whole group holds at most P / |W| points; a caller
    grid whose sizes within a factor differ so much that this exceeds
    ``_MAX_POINTS``, or a size whose phases could overflow int64, is
    refused before any point is enumerated.  The factors are read from
    :func:`rootsys.simple_factors`, built once per datum.
    """
    factors = [(block, rs_k, max(sizes[i] for i in block))
               for block, rs_k in rootsys.simple_factors(rs)]
    for block, _, m in factors:
        _check_phase_range(len(block), m)
    cells = math.prod(m ** len(block) for block, _, m in factors)
    if cells // rs.weyl_order > _MAX_POINTS:
        raise GridError(
            f"grid {sizes} puts up to {cells // rs.weyl_order} points in "
            f"the alcove (largest size of each simple factor on all its "
            f"axes), budget is {_MAX_POINTS}")
    return factors, cells


def _admit(rs, sums, a, b, n, grid, log_dim):
    """One row's checks, in order: the float budget, the grid (the default
    one, or a caller grid's axis count and aliasing), the point budget and
    :func:`_factor_grids`.  ``sums`` are the sweep's :func:`_hull_sums`.
    Returns the factors and P, or raises the :class:`GridError` that
    refuses the row; enumerates no point."""
    try:
        mag = (a.size + b.size) * n * log_dim
    except OverflowError:   # N (|a| + |b|) is past the float range
        mag = math.inf if log_dim else 0.0
    if mag > _MAX_LOG:
        raise GridError(
            f"integrand magnitude exp({mag:.1f}) exceeds the float budget "
            f"exp({_MAX_LOG}); refusing rather than overflow")
    bw = _bandwidth(sums, a, b, n)
    need = tuple(b_ + 1 for b_ in bw)
    if grid is None:
        grid = TorusGrid(sizes=need)
    elif len(grid.sizes) != rs.rank:
        raise GridError(f"grid {grid.sizes} has {len(grid.sizes)} axes, "
                        f"the torus of {rs.describe()} has rank {rs.rank}")
    else:
        bad = [i for i in range(rs.rank) if grid.sizes[i] <= bw[i]]
        if bad:
            raise GridError(
                f"grid {grid.sizes} aliases on axes {bad}: integrand "
                f"bandwidth is {bw}, need at least {need} points per axis")
    if grid.num_points > _MAX_POINTS:
        raise GridError(
            f"grid has {grid.num_points} points, budget is {_MAX_POINTS}")
    return _factor_grids(rs, grid.sizes)


def _exact_sum(x):
    """The exactly rounded sum of the float64 array ``x``: the bits of
    ``math.fsum(x.tolist())``, from :data:`_BINNED_SUM_MIN` values on
    without a Python float per value.

    Each value splits exactly into hi, its sign, exponent and top 26
    significant bits, and lo = x - hi.  A bin holds the values whose
    exponent field lies in one aligned run of 2^s fields.  In a bin every
    hi is a multiple of 2^-25 times the bin's least power of two and every
    lo of 2^-52 times it, each below 2^(2^s + 26) such units, so
    :func:`np.bincount` adds up to 2^k of them exactly while 2^s + k <= 27.
    s is the largest such for len(x); s >= 0 for every alcove the point
    budget admits (``_MAX_POINTS`` < 2^26), and a longer x goes to
    :func:`math.fsum`.  One :func:`math.fsum` over the nonzero bin sums
    then rounds the values' exact total once, as fsum over the values
    does.  A nonfinite value has the top exponent field, so it leaves the
    top bin's hi sum nonfinite, and an overflowing bin leaves the total
    nonfinite; either way the values go to :func:`math.fsum` itself, which
    returns or raises what it does for them.  The top bin is read before
    lo is formed, so no nonfinite value reaches a subtraction and numpy
    raises no floating-point warning."""
    k = (len(x) - 1).bit_length()
    if len(x) < _BINNED_SUM_MIN or k > 26:
        return math.fsum(x.tolist())
    s = (27 - k).bit_length() - 1
    top = 0x7FF >> s
    bits = x.view(np.int64)
    bins = bits >> (52 + s) & top
    hi = (bits & -(1 << 27)).view(np.float64)
    hi_sums = np.bincount(bins, hi, minlength=top + 1)
    if not math.isfinite(hi_sums[top]):
        return math.fsum(x.tolist())
    sums = np.concatenate((hi_sums, np.bincount(bins, x - hi)))
    total = math.fsum(sums[sums != 0].tolist())
    return total if math.isfinite(total) else math.fsum(x.tolist())


def _band_values(lam, a, b, ns, terms, factors, cells, walks):
    """Values at each n of ``ns`` on the one grid ``factors``, above every
    row's certificate; ``walks`` holds per simple factor its
    :class:`_Walk` at a size >= m_k.

    The integrand is a product over the simple factors, and so is each term
    of f: a row's sum is sum_nu c_nu prod_k S_k(nu_k), one alcove per
    factor.  Each factor's alcove (the walk cut at level m_k - 1),
    |Delta|^2, characters chi(g^j) (one per Adams degree: the character of
    psi^j V, whose weights are V's times j, :func:`charring.adams`) and
    chi_nu (one per distinct nontrivial nu_k; chi_0 is 1) are built once
    and serve every row.  Degree j's paired part min(a_j, b_j) enters as
    the real |chi|^2, the unpaired rest as chi or conj(chi) to a complex
    power, so a one-sided row is all complex.  A row raises and multiplies,
    then takes one exactly rounded :func:`_exact_sum` per nu_k (math.fsum
    over a list below ``_BINNED_SUM_MIN`` alcove points, exponent bins from
    there on, the same bits either way), real when its integrand has no
    phase and a real and imaginary pair otherwise.
    The coefficients of f are scaled by 2^-s, s the binary exponent of
    the largest |c_nu| (0 when it is below 1/2), before the factor
    products, and each row's total and S by 2^s after the division by P.
    A power of two scales exactly in the normal range, so the bits are
    those of the unscaled sums wherever these stay finite, and a row whose
    value is finite is answered even when sum_nu c_nu prod_k S_k, not yet
    divided by P, is not.
    Yields per n the float or the :class:`GridError` of a value past the
    float range (``_MAX_LOG`` bounds the integrand, not the terms of f) or
    of an imaginary residual.

    The residual's tolerance is 1e-10 max(1, |value|, S), where the
    integrand's scale S = sum_nu |c_nu| prod_k sum |t_k| / P bounds the
    roundoff of a sum that cancels to a small value.  Only rows with a
    phase (an unpaired degree or a nontrivial nu) are complex, and only
    they compute S."""
    degrees = [(j, min(aj, bj), aj - bj) for j, (aj, bj)
               in enumerate(zip_longest(a.exps, b.exps, fillvalue=0), 1)
               if aj or bj]
    shift = max(0, math.frexp(max((abs(c) for _, c in terms), default=0))[1])
    coeffs = [math.ldexp(c, -shift) for _, c in terms]
    values = [list(coeffs) for _ in ns]
    phased = (any(e for _, _, e in degrees)
              or any(any(nu) for nu, _ in terms))
    mags = [[abs(c) for c in coeffs] for _ in ns]
    for (block, rs_k, m), walk in zip(factors, walks):
        part = slice(block.start, block.stop)
        # one prefix of the walk's phases and one pair of tables serve
        # every evaluation
        pts = walk.at(m)
        ws = weight_system(rs_k, lam[part])
        delta = weyl_denominator_sq(rs_k, pts, m)
        paired, unpaired = [], []
        for j, p, e in degrees:
            chi = character_at(adams(ws, j), pts, m)
            if p:
                paired.append((p, chi.real ** 2 + chi.imag ** 2))
            if e:
                unpaired.append((abs(e), chi if e > 0 else np.conj(chi)))
        nus = {nu: character_at(weight_system(rs_k, nu), pts, m)
               if any(nu) else None
               for nu in dict.fromkeys(nu[part] for nu, _ in terms)}
        for n, row, mag in zip(ns, values, mags):
            base = delta
            for p, chi_sq in paired:
                base = base * chi_sq ** (n * p)
            if unpaired:
                base = base.astype(complex)
                for e, chi in unpaired:
                    base *= chi ** (n * e)
            sums, abs_sums = {}, {}
            for nu, chi_nu in nus.items():
                t = base if chi_nu is None else chi_nu * base
                sums[nu] = (complex(_exact_sum(t.real), _exact_sum(t.imag))
                            if np.iscomplexobj(t) else _exact_sum(t))
                if phased:
                    abs_sums[nu] = float(np.abs(t).sum())
            row[:] = [v * sums[nu[part]] for v, (nu, _) in zip(row, terms)]
            if phased:
                mag[:] = [v * abs_sums[nu[part]]
                          for v, (nu, _) in zip(mag, terms)]
    for row, mag in zip(values, mags):
        total = sum(row) / cells
        scale = sum(mag) / cells if phased else 0.0
        value, residual, scale = (_ldexp_or_inf(x, shift) for x in
                                  (total.real, abs(total.imag), scale))
        if not (math.isfinite(value) and math.isfinite(residual)):
            yield GridError(
                "the terms of f take the quadrature sum past the float "
                "range; refusing rather than return a non-finite value")
        elif residual > 1e-10 * max(1.0, abs(value), scale):
            yield GridError(
                f"imaginary residual {residual:.3e} above tolerance for "
                f"value {value:.6e}; quadrature inconsistent")
        else:
            yield value


def _ldexp_or_inf(x, k):
    """x 2^k, exact in the normal range, and inf past the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def quad_sequence(rs, lam, a, b, ns, f=None, grid=None):
    """Torus quadrature of the two-sided moment (conjugated b factors; an
    empty b gives the one-sided one) at each n of ``ns``.

    lam and the highest weight of each term of f are checked once, here;
    every row is then checked before any point is enumerated, in the order
    and with the messages of a one-N call (:func:`_admit`).  The admissible
    rows are then evaluated in bands from the largest n down: a band is its
    top row and the rows after it whose own grids have at least half the
    torus points P = prod_k m_k^rank_k of the top's grid.  The bandwidth
    grows with n, so the top grid is above every band row's certificate
    and each band sums on it alone (:func:`_band_values`): one character
    synthesis per simple factor serves the whole band, and no row sums over
    more than twice its own grid's points.  The alcoves are nested, so each
    simple factor's is walked once, at the first band's size, and each band
    takes the points of level <= m_k - 1 (:func:`_alcove_levels`), a prefix
    of the walk ordered by level; each vector set's phases are formed once
    on the whole walk and read by every band (:class:`_Walk`).  A band
    refused with a :class:`GridError` on a walk of its top's own sizes,
    the walk a one-N call of the top takes, refuses its top row alone, and
    the rows below band again from the next one, on the same walks and
    their phases.  A band refused on a larger walk, whose points, phase
    range and tables a one-N call would not have, drops the walks and runs
    again on walks of its top's own sizes, whatever refused it; its points
    are a prefix of either walk in the same order, so its values are the
    same bits on both.  So a refused row is a band top and carries the
    refusal of its one-N call.  A caller grid is every row's grid, so its
    rows form one band, and a raised refusal, which does not depend on N,
    refuses them all.
    Band tops, caller-grid rows and one-element schedules give the bits of
    a one-N call; the other rows are summed on a finer certified grid and
    differ from it at roundoff.

    Yields, per n, the float or the :class:`GridError` that refused it.
    """
    lam = check_dominant_integral(rs, lam)
    f = ClassFunction.one(rs.rank) if f is None else f
    terms = [(check_dominant_integral(rs, nu), c) for nu, c in f.terms]
    ns = tuple(ns)
    for n in ns:
        if n < 0:
            raise ValueError(f"N must be >= 0, got {n}")
    log_dim = math.log(weyl_dimension(rs, lam))
    sums = _hull_sums(rs, lam, [nu for nu, _ in terms])
    out, admitted = {}, []
    for i, n in enumerate(ns):
        try:
            admitted.append((i, *_admit(rs, sums, a, b, n, grid, log_dim)))
        except GridError as exc:
            out[i] = exc
    rest = sorted(admitted, key=lambda row: -ns[row[0]])
    walks = None
    while rest:
        _, factors, cells = rest[0]
        rows = [i for i, _, _ in takewhile(lambda row: 2 * row[2] >= cells,
                                           rest)]
        own = walks is None     # walks at the band top's own sizes
        if own:
            walks = [_Walk(rs_k, m) for _, rs_k, m in factors]
        try:
            out.update(zip(rows, _band_values(
                lam, a, b, [ns[j] for j in rows], terms, factors, cells,
                walks)))
        except GridError as exc:
            if not own:
                # a held walk has no fewer points than the band top's own,
                # so no fewer phases, no narrower range and no smaller
                # tables: the band runs again on walks of its top's sizes
                walks = None
                continue
            # a raised refusal does not depend on N: on a caller grid it
            # is every row's, otherwise the top's, and the rest band again
            # on the same walk
            if grid is None:
                rows = rows[:1]
            out.update(dict.fromkeys(rows, exc))
        del rest[:len(rows)]
    yield from (out[i] for i in range(len(ns)))


def _one_row(rs, lam, a, b, n, f, grid):
    """The one-element schedule of :func:`quad_sequence`, raising its
    refusal."""
    (value,) = quad_sequence(rs, lam, a, b, (n,), f, grid)
    if isinstance(value, GridError):
        raise value
    return value


def quad_I_N(rs, lam, a, n, f=None, grid=None):
    """Torus quadrature of the one-sided moment with exponents N * a_j.

    Exact up to roundoff on any admissible grid; refuses grids below the
    computed bandwidth and magnitudes beyond the float range.
    """
    return _one_row(rs, lam, a, CycleType(()), n, f, grid)


def quad_K_N(rs, lam, a, b, n, f=None, grid=None):
    """Torus quadrature of the two-sided moment (conjugated b factors): the
    one-element schedule of :func:`quad_sequence`, raising its refusal."""
    return _one_row(rs, lam, a, b, n, f, grid)

