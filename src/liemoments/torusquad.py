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
cut at level m - 1.  A sweep walks each factor's alcove once, at its
largest size, ordered by level, so every band's points are a prefix of
the walk.  The phases of the whole walk are formed once per vector set
(one int64 matrix product each, held for the sweep), and every band reads
its prefix through its tables repeated over the phases' range, with no
product or reduction of its own.  A one-N call is the one-element
schedule.

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
from itertools import zip_longest
from operator import mul

import numpy as np

from . import rootsys
from .asymptotics import ClassFunction
from .charring import CycleType
from .repweights import (check_dominant_integral, weight_system,
                         weyl_dimension)


# The integrand is summed in float64: N (|a| + |b|) log dim V_lam above this
# is refused before any point is evaluated.
_MAX_LOG = 700.0

# A row whose torus grid, or whose alcove bound P / |W| (_factor_grids),
# holds more points than this is refused before any point is enumerated.
_MAX_POINTS = 4_000_000

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
    return _bandwidth(rs, check_dominant_integral(rs, lam), a, b, n,
                      [check_dominant_integral(rs, nu) for nu, _ in f.terms])


def _bandwidth(rs, lam, a, b, n, nus):
    """:func:`required_bandwidth` of a checked ``lam`` and the checked
    highest weights ``nus`` of f's terms; validates nothing."""
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
    conjugate of its mirror's."""
    k = np.arange(m // 2 + 1)
    circle = np.exp(1j * (2 * math.pi * k / m))
    if m % 2 == 0:
        circle[-1] = -1
    four_sin_sq = 4 * np.sin(math.pi * k / m) ** 2
    back = slice((m - 1) // 2, 0, -1)   # m - t for t = m/2 + 1 .. m - 1
    return (np.concatenate((circle, circle[back].conj())),
            np.concatenate((four_sin_sq, four_sin_sq[back])))


def _phases(points, vectors):
    """<v, k> in int64 for each row k of ``points`` and each row v of the
    int64 array ``vectors``.  numpy has no BLAS product for integers, so
    this is the costly step of an evaluation, and a quadrature sweep makes
    it once per vector set and simple factor."""
    return points @ vectors.T


def _wrapped(table, lo, hi):
    """``table`` repeated so that indexing it at any integer t in [lo, hi]
    reads table[t mod m], m = len(table): it covers 0 .. hi and, by
    numpy's negative indices from its end, lo .. -1, and its length is a
    multiple of m.  The table itself when [lo, hi] lies in [0, m)."""
    m = len(table)
    reps = -(-max(hi + 1, -lo, 1) // m)
    return table if reps == 1 else np.concatenate((table,) * reps)


class _Walk:
    """One simple factor's alcove walk at its largest size M in a sweep,
    ordered by level, so that the alcove of any size m <= M (the points of
    level <= m - 1, :func:`_alcove_levels`) is a prefix of it.  The phases
    <j v, k> of all its points are formed on first use, once per vector
    set and Adams degree j, and held with their range for the sweep."""

    __slots__ = ("points", "levels", "sets")

    def __init__(self, rs, m):
        points = _alcove_factor(rs, m)
        levels = _alcove_levels(rs, points)
        # levels lie in [0, m); in the narrowest signed dtype that holds
        # them, 16 bits or fewer for m <= 2^15, numpy sorts by radix
        order = np.argsort(levels.astype(np.min_scalar_type(-m)),
                           kind="stable")
        self.points, self.levels, self.sets = points[order], levels[order], {}

    def at(self, m):
        """The alcove of size m <= M, with the tables of m."""
        count = int(np.searchsorted(self.levels, m))
        return _GridPoints(self, count, m, *_phase_tables(m))

    def phases(self, vectors, j):
        """<j v, k> for every point k and row v of ``vectors``, with its
        least and largest entry; refuses phases that could overflow."""
        key = (j, tuple(vectors))
        if key not in self.sets:
            rank = self.points.shape[1]
            vecs = np.array(vectors, dtype=np.int64).reshape(len(vectors),
                                                             rank)
            top = j * int(np.abs(vecs).max(initial=0))
            if rank * int(np.abs(self.points).max(initial=0)) * top \
                    > _INT64_MAX:
                raise GridError(f"phases of weights up to {top} on an "
                                f"alcove walk of rank {rank} could "
                                f"overflow int64")
            t = _phases(self.points, j * vecs)
            self.sets[key] = (t, *((int(t.min()), int(t.max())) if t.size
                                   else (0, 0)))
        return self.sets[key]


class _Residues:
    """Integer torus points reduced mod m, whose phases are formed and
    reduced mod m on each call: exact integers in [0, m)."""

    __slots__ = ("points", "m")

    def __init__(self, points, m):
        self.points, self.m = points, m

    def phases(self, vectors, j):
        vecs = np.array(vectors, dtype=np.int64).reshape(
            len(vectors), self.points.shape[-1])
        t = _phases(self.points, j * vecs % self.m)
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
    Either way every phase reads table[<v, k> mod m].  ``dilation`` j
    stands for the points j k; ``count`` is None for a caller's points."""

    __slots__ = ("source", "count", "m", "circle", "four_sin_sq",
                 "dilation")

    def __init__(self, source, count, m, circle, four_sin_sq, dilation=1):
        self.source, self.count, self.m = source, count, m
        self.circle = circle                # cos + i sin of 2 pi t / m
        self.four_sin_sq = four_sin_sq      # 4 sin^2(pi t / m)
        self.dilation = dilation

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

    def dilated(self, j):
        """The points j k, on the same tables."""
        return _GridPoints(self.source, self.count, self.m, self.circle,
                           self.four_sin_sq, j * self.dilation)

    def __len__(self):
        return len(self.source.points) if self.count is None else self.count

    def lookup(self, table, vectors):
        """table[<v, k> mod m] for each point k and each row v of
        ``vectors``, a last axis of len(vectors)."""
        t, lo, hi = self.source.phases(vectors, self.dilation)
        return _wrapped(table, lo, hi)[t[:self.count]]


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
    integer t = <alpha, k> mod m."""
    _check_phase_range(rs.rank, m)
    pts = _GridPoints.of(k, m)
    vals = np.prod(pts.lookup(pts.four_sin_sq, rs.positive_roots), axis=-1)
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


def _alcove_levels(rs, k):
    """The level sum_j a_j z_j = <theta, k> of each point k of
    :func:`_alcove_factor`, theta the highest root.  Only the level bound
    depends on m, so for m <= M the walk at m is the walk at M cut to the
    points of level <= m - 1, in the same order."""
    marks = max(rs.positive_rootcoords, key=sum)
    return k @ (np.array(rs.cartan, dtype=np.int64) @ marks)


def _factor_grids(rs, sizes):
    """Per simple factor its axes, its datum and its one size m_k, the
    largest of its axes' sizes, and the number P = prod_k m_k^rank_k of
    torus-grid points the alcove sums stand for.

    The alcove of the whole group holds at most P / |W| points; a caller
    grid whose sizes within a factor differ so much that this exceeds
    ``_MAX_POINTS``, or a size whose phases could overflow int64, is
    refused before any point is enumerated.
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


def _admit(rs, lam, a, b, n, nus, grid, log_dim):
    """One row's checks, in order: the float budget, the grid (the default
    one, or a caller grid's axis count and aliasing), the point budget and
    :func:`_factor_grids`.  ``lam`` and ``nus`` (the highest weights of f's
    terms) come checked from :func:`quad_sequence`.  Returns the factors
    and P, or raises the :class:`GridError` that refuses the row;
    enumerates no point."""
    mag = (a.size + b.size) * n * log_dim
    if mag > _MAX_LOG:
        raise GridError(
            f"integrand magnitude exp({mag:.1f}) exceeds the float budget "
            f"exp({_MAX_LOG}); refusing rather than overflow")
    bw = _bandwidth(rs, lam, a, b, n, nus)
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


def _band_values(rs, lam, a, b, ns, terms, factors, cells, walks):
    """Values at each n of ``ns`` on the one grid ``factors``, above every
    row's certificate; ``walks`` holds per simple factor its
    :class:`_Walk` at a size >= m_k.

    The integrand is a product over the simple factors, and so is each
    term of f: a row's sum is sum_nu c_nu prod_k S_k(nu_k), one alcove per
    factor.  Each factor's alcove (the walk cut at level m_k - 1),
    |Delta|^2, characters chi(g^j) (one per Adams degree: chi at j k) and
    chi_nu (one per distinct nontrivial nu_k; chi_0 is 1) are built once
    and serve every row.  Degree j's paired part min(a_j, b_j) enters as
    the real |chi|^2, the unpaired rest as chi or conj(chi) to a complex
    power, so a one-sided row is all complex.  A row raises and
    multiplies, then takes one exactly rounded :func:`_exact_sum` per nu_k
    (math.fsum over a list below ``_BINNED_SUM_MIN`` alcove points,
    exponent bins from there on, the same bits either way), real when its
    integrand has no phase and a real and imaginary pair otherwise.
    Yields per n the float or the imaginary-residual :class:`GridError`.

    The residual's tolerance is 1e-10 max(1, |value|, S), where the
    integrand's scale S = sum_nu |c_nu| prod_k sum |t_k| / P bounds the
    roundoff of a sum that cancels to a small value.  Only rows with a
    phase (an unpaired degree or a nontrivial nu) are complex, and only
    they compute S."""
    degrees = [(j, min(aj, bj), aj - bj) for j, (aj, bj)
               in enumerate(zip_longest(a.exps, b.exps, fillvalue=0), 1)
               if aj or bj]
    values = [[c for _, c in terms] for _ in ns]
    phased = (any(e for _, _, e in degrees)
              or any(any(nu) for nu, _ in terms))
    mags = [[abs(c) for _, c in terms] for _ in ns]
    for (block, rs_k, m), walk in zip(factors, walks):
        part = slice(block.start, block.stop)
        # one prefix of the walk's phases and one pair of tables serve
        # every evaluation
        pts = walk.at(m)
        ws = weight_system(rs_k, lam[part])
        delta = weyl_denominator_sq(rs_k, pts, m)
        paired, unpaired = [], []
        for j, p, e in degrees:
            chi = character_at(ws, pts.dilated(j), m)
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
        residual = abs(total.imag)
        scale = sum(mag) / cells if phased else 0.0
        if residual > 1e-10 * max(1.0, abs(total.real), scale):
            yield GridError(
                f"imaginary residual {residual:.3e} above tolerance for "
                f"value {total.real:.6e}; quadrature inconsistent")
        else:
            yield total.real


def quad_sequence(rs, lam, a, b, ns, f=None, grid=None):
    """Torus quadrature of the two-sided moment (conjugated b factors; an
    empty b gives the one-sided one) at each n of ``ns``.

    lam and the highest weight of each term of f are checked once, here;
    every row is then checked before any point is enumerated, in the order
    and with the messages of a one-N call (:func:`_admit`).  The admissible
    rows are then cut into bands from the largest n down: a row joins the
    current band while its own grid has at least half the torus points
    P = prod_k m_k^rank_k of the band's top grid, and starts a new band
    otherwise.  The bandwidth grows with n, so the top grid is above every
    band row's certificate and each band sums on it alone
    (:func:`_band_values`): one character synthesis per simple factor
    serves the whole band, and no row sums over more than twice its own
    grid's points.  The alcoves are nested, so each simple factor's is
    walked once, at its largest size over the bands, and each band takes
    the points of level <= m_k - 1 (:func:`_alcove_levels`), a prefix of
    the walk ordered by level; each vector set's phases are formed once
    on the whole walk and read by every band (:class:`_Walk`).  A caller
    grid is every row's grid, so its rows form one band.  Band tops,
    caller-grid rows and one-element schedules give the bits of a one-N
    call; the other rows are summed on a finer certified grid and differ
    from it at roundoff.

    Yields, per n, the float or the :class:`GridError` that refused it.
    """
    lam = check_dominant_integral(rs, lam)
    f = ClassFunction.one(rs.rank) if f is None else f
    terms = [(check_dominant_integral(rs, nu), c) for nu, c in f.terms]
    nus = [nu for nu, _ in terms]
    ns = tuple(ns)
    for n in ns:
        if n < 0:
            raise ValueError(f"N must be >= 0, got {n}")
    log_dim = math.log(weyl_dimension(rs, lam))
    out, admitted = {}, []
    for i, n in enumerate(ns):
        try:
            admitted.append((i, *_admit(rs, lam, a, b, n, nus, grid,
                                        log_dim)))
        except GridError as exc:
            out[i] = exc
    bands = []      # (row indices, factors, P of the top grid)
    for i, factors, cells in sorted(admitted, key=lambda row: -ns[row[0]]):
        if bands and 2 * cells >= bands[-1][2]:
            bands[-1][0].append(i)
        else:
            bands.append(([i], factors, cells))
    band_of = {i: band for band in bands for i in band[0]}
    walks = [_Walk(sizes[0][1], max(m for _, _, m in sizes))
             for sizes in zip(*(factors for _, factors, _ in bands))]
    for i in range(len(ns)):
        if i not in out:
            rows, factors, cells = band_of[i]
            out.update(zip(rows, _band_values(
                rs, lam, a, b, [ns[j] for j in rows], terms, factors,
                cells, walks)))
        yield out.pop(i)


def _one_row(rs, lam, a, b, n, f, grid):
    """The value at n alone, or its refusal raised; ``quad_I_N`` calls it,
    not ``quad_K_N``, so a traced one-sided call counts once."""
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

