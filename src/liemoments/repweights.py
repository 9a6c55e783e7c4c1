"""Weight systems of irreducible representations and derived data.

Multiplicities come from Freudenthal's recursion run over the dominant
weights (found by closing the highest weight under subtraction of positive
roots) in order of level, the height of lam - mu (Moody-Patera).  The
recursion is in integers: inner products are scaled by the lcm D of the
symmetrizer denominators, and each multiplicity is one exact ``divmod``.
As soon as a dominant weight's multiplicity is known, its Weyl orbit is
walked down into the table of weights, so each term mu + k alpha of the
recursion is one table lookup: its dominant conjugate lies at a strictly
lower level and was expanded earlier.  Everything is exact: weights are
integer tuples in fundamental-weight coordinates, multiplicities are ints,
and the second-moment matrix is a Fraction matrix.  That matrix comes from
root data alone, never from a weight system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import add, mul

from . import rootsys
from .exactla import lu_det, lu_solve, mat_vec, positive_lu


class WeightSystem:
    """A finite multiset of weights with (possibly signed) multiplicities.

    ``entries`` maps weight tuples to nonzero integer multiplicities.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {tuple(k): int(v) for k, v in dict(entries).items()
                        if v}

    def __eq__(self, other):
        return (isinstance(other, WeightSystem)
                and self.entries == other.entries)

    def __repr__(self):
        return f"WeightSystem({len(self.entries)} weights)"

    @property
    def support_size(self):
        return len(self.entries)

    def dimension(self):
        """Sum of multiplicities (the virtual dimension)."""
        return sum(self.entries.values())

    @staticmethod
    def trivial(rank):
        return WeightSystem({(0,) * rank: 1})


def check_dominant_integral(rs, lam):
    lam = tuple(lam)
    if len(lam) != rs.rank:
        raise rootsys.ConfigurationError(
            f"weight {lam} has wrong rank for {rs.describe()}")
    if any((not isinstance(c, int) and Fraction(c).denominator != 1)
           or c < 0 for c in lam):
        raise rootsys.ConfigurationError(
            f"highest weight must be dominant integral, got {lam}")
    return tuple(int(c) for c in lam)


def is_regular(rs, lam):
    """True when the weight is strictly inside the dominant chamber."""
    return all(c >= 1 for c in lam)


def weyl_dimension(rs, lam):
    """Dimension of the irreducible with highest weight ``lam`` (exact)."""
    lam = check_dominant_integral(rs, lam)
    num = den = 1
    for cr in rs.positive_coroots:
        num *= sum((l + 1) * c for l, c in zip(lam, cr))
        den *= sum(cr)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise RuntimeError(
            f"Weyl dimension of {lam} is {num}/{den}, not a positive "
            f"integer: corrupted root tables")
    return dim


def weight_system(rs, lam):
    """Weight multiplicities of the irreducible with highest weight ``lam``,
    memoized per (rs, lam): a root system hashes by identity, and
    ``build_root_system`` returns one datum per factors tuple."""
    return _freudenthal(rs, check_dominant_integral(rs, lam))


def _root_coords_below(rs, lam, mu):
    """Coordinates of lam - mu on the simple roots, as nonnegative ints."""
    coords = rootsys.root_lattice_coords(
        rs, tuple(l - m for l, m in zip(lam, mu)))
    if any(c.denominator != 1 or c < 0 for c in coords):
        raise RuntimeError(
            f"{lam} - {mu} is not a nonnegative root combination: "
            f"corrupted root tables")
    return [int(c) for c in coords]


@cache
def _freudenthal(rs, lam):
    # Dominant weights of the module: close lam downward under root
    # subtraction, keeping dominant ones.  Every dominant weight of the
    # module is reachable this way through dominant intermediates.
    dominants = {lam}
    frontier = [lam]
    while frontier:
        grown = []
        for mu in frontier:
            for alpha in rs.positive_roots:
                nu = tuple(m - a for m, a in zip(mu, alpha))
                if all(c >= 0 for c in nu) and nu not in dominants:
                    dominants.add(nu)
                    grown.append(nu)
        frontier = grown

    below = {mu: _root_coords_below(rs, lam, mu) for mu in dominants}
    levels = {mu: sum(c) for mu, c in below.items()}
    order = sorted(dominants, key=lambda mu: (levels[mu], mu))

    # Integer inner products: D (mu, alpha) = sum_j mu_j c_j D d_j, with c
    # the simple-root coordinates of alpha and D the lcm of the
    # denominators of the symmetrizers d_j.
    scale = math.lcm(*(d.denominator for d in rs.symmetrizers))
    sym = [int(d * scale) for d in rs.symmetrizers]
    roots = []
    for c, alpha in zip(rs.positive_rootcoords, rs.positive_roots):
        pair = tuple(cj * dj for cj, dj in zip(c, sym))
        roots.append((alpha, pair, _dot(alpha, pair), sum(c)))

    # Each term mu + k alpha has a dominant conjugate of strictly lower
    # level than mu, whose orbit is already in the table.
    entries = {}
    for mu in order:
        if mu == lam:
            m_mu = 1
        else:
            lv = levels[mu]
            total = 0
            for alpha, pair, norm, height in roots:
                base = _dot(mu, pair)
                nu = mu
                for k in range(1, lv // height + 1):
                    nu = tuple(map(add, nu, alpha))
                    m_nu = entries.get(nu)
                    if m_nu:
                        total += m_nu * (base + k * norm)
            # (lam + rho, lam + rho) - (mu + rho, mu + rho)
            # = (lam - mu, lam + mu + 2 rho), lam - mu a root combination.
            denom = sum(c * d * (l + m + 2) for c, d, l, m
                        in zip(below[mu], sym, lam, mu))
            m_mu, rem = divmod(2 * total, denom)
            if rem or m_mu <= 0:
                raise RuntimeError(
                    f"Freudenthal multiplicity of {mu} in {lam} is "
                    f"{Fraction(2 * total, denom)}, not a positive integer: "
                    f"corrupted root tables")
        for w in rootsys.dominant_orbit(rs, mu):
            entries[w] = m_mu

    # The table already maps int tuples to nonzero ints: wrap it, no copy.
    ws = WeightSystem.__new__(WeightSystem)
    ws.entries = entries
    if ws.dimension() != weyl_dimension(rs, lam):
        raise RuntimeError(
            f"weight multiplicities for {lam} sum to {ws.dimension()}, "
            f"dimension formula gives {weyl_dimension(rs, lam)}")
    return ws


def _dot(x, y):
    return sum(map(mul, x, y))


@dataclass(frozen=True)
class SecondMoment:
    """Second-moment matrix of a weight system, dim-normalized, exact."""
    matrix: tuple  # rank x rank, Fractions

    @cached_property
    def factors(self):
        """:func:`exactla.positive_lu` of the matrix, or None when a
        leading principal minor vanishes; ``det`` and ``solve`` read it."""
        return positive_lu(self.matrix)

    @cached_property
    def det(self):
        # The matrix is a Gram sum, hence positive semidefinite, and a PSD
        # matrix with a zero leading minor is singular: no factors, det 0.
        return lu_det(self.factors) if self.factors else Fraction(0)

    def apply(self, x):
        """Act on a covector (matrix maps covectors to weights)."""
        return mat_vec(self.matrix, x)

    def solve(self, mu):
        if self.factors is None:
            raise ValueError("matrix is singular")
        return lu_solve(self.factors, mu)


def a_lambda(rs, lam):
    """Averaged weight-square matrix of the irreducible with h.w. ``lam``.

    Entry (i, j) is  sum_mu m(mu) mu_i mu_j / dim.  The matrix is
    W-invariant, so on each simple factor it is a multiple of the invariant
    form on coroots, (alpha_i^vee, alpha_j^vee) = cartan[i][j] / d_j; the
    trace identity  Tr_V(H H') = dim V (lam, lam + 2 rho) / dim G (H, H')
    (the Dynkin index) fixes the multiple.  Blocks between factors vanish
    because sum_mu m(mu) mu = 0 on each factor.  Only root data enter, no
    weight system.  For regular ``lam`` the result must be positive
    definite; that is checked exactly and a failure raises RuntimeError (it
    would indicate corrupted tables).
    """
    lam = check_dominant_integral(rs, lam)
    d = rs.symmetrizers
    m = [[Fraction(0)] * rs.rank for _ in range(rs.rank)]
    for block, dim_factor in rootsys.factor_blocks(rs):
        # (lam, lam + 2 rho) restricted to this factor
        casimir = sum(lam[i] * (lam[j] + 2) * d[i] * rs.cartan_inv[i][j]
                      for i in block for j in block)
        scale = casimir / dim_factor
        for i in block:
            for j in block:
                m[i][j] = scale * rs.cartan[i][j] / d[j]
    sm = SecondMoment(matrix=tuple(tuple(row) for row in m))
    if is_regular(rs, lam) and sm.factors is None:
        raise RuntimeError(f"second-moment matrix for {lam} not positive "
                           f"definite: corrupted root tables")
    return sm
