"""Weight systems of irreducible representations and derived data.

Multiplicities come from Freudenthal's recursion run over the dominant
weights (found by closing the highest weight under subtraction of positive
roots), then expanded along Weyl orbits.  Everything is exact: weights are
integer tuples in fundamental-weight coordinates, multiplicities are ints,
and the second-moment matrix is a Fraction matrix.  That matrix comes from
root data alone (the Casimir identity), never from a weight system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from . import rootsys
from .exactla import (det_fraction, inv_fraction, is_positive_definite,
                      mat_vec)


class WeightSystem:
    """A finite multiset of weights with (possibly signed) multiplicities.

    ``entries`` maps weight tuples to nonzero integer multiplicities;
    ``is_virtual`` records whether signed multiplicities may occur (set by the
    character-ring operations, not inferred from the data).
    """

    __slots__ = ("entries", "is_virtual")

    def __init__(self, entries, is_virtual=False):
        self.entries = {tuple(k): int(v) for k, v in dict(entries).items()
                        if v}
        self.is_virtual = bool(is_virtual)

    def __eq__(self, other):
        return (isinstance(other, WeightSystem)
                and self.entries == other.entries
                and self.is_virtual == other.is_virtual)

    def __repr__(self):
        return (f"WeightSystem({len(self.entries)} weights, "
                f"virtual={self.is_virtual})")

    @property
    def support_size(self):
        return len(self.entries)

    def dimension(self):
        """Sum of multiplicities (the virtual dimension)."""
        return sum(self.entries.values())

    def max_abs_coord(self):
        """Per-axis maximum of |coordinate| over the support (0 if empty)."""
        if not self.entries:
            return ()
        rank = len(next(iter(self.entries)))
        out = [0] * rank
        for w in self.entries:
            for i, c in enumerate(w):
                if abs(c) > out[i]:
                    out[i] = abs(c)
        return tuple(out)

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
    memoized per (rs.factors, lam): a root system hashes by its factors."""
    return _freudenthal(rs, check_dominant_integral(rs, lam))


def _level(rs, lam, mu):
    """Height of lam - mu as a nonnegative integer root combination."""
    coords = rootsys.root_lattice_coords(
        rs, tuple(l - m for l, m in zip(lam, mu)))
    if any(c.denominator != 1 or c < 0 for c in coords):
        return None
    return int(sum(coords))


@cache
def _freudenthal(rs, lam):
    rank = rs.rank
    sym = rs.symmetrizers

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

    levels = {mu: _level(rs, lam, mu) for mu in dominants}
    order = sorted(dominants, key=lambda mu: (levels[mu], mu))

    def inner_with_root(mu, ridx):
        # (mu, alpha) via root coordinates of alpha and the symmetrizers.
        c = rs.positive_rootcoords[ridx]
        return sum(Fraction(c[j]) * sym[j] * mu[j] for j in range(rank))

    heights = [sum(c) for c in rs.positive_rootcoords]
    mult = {lam: 1}
    for mu in order:
        if mu == lam:
            continue
        lv = levels[mu]
        total = Fraction(0)
        for ridx, alpha in enumerate(rs.positive_roots):
            for k in range(1, lv // heights[ridx] + 1):
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                rep, _ = rootsys.dominant_representative(rs, nu)
                m_nu = mult.get(rep)
                if m_nu:
                    total += m_nu * (inner_with_root(mu, ridx)
                                     + k * inner_with_root(alpha, ridx))
        # (lam + rho, lam + rho) - (mu + rho, mu + rho)
        # = (lam - mu, lam + mu + 2 rho), with lam - mu a root combination.
        diff = rootsys.root_lattice_coords(
            rs, tuple(l - m for l, m in zip(lam, mu)))
        shifted = tuple(l + m + 2 for l, m in zip(lam, mu))
        denom = sum(diff[j] * sym[j] * shifted[j] for j in range(rank))
        m_mu = 2 * total / denom
        if m_mu.denominator != 1 or m_mu <= 0:
            raise RuntimeError(
                f"Freudenthal multiplicity of {mu} in {lam} is {m_mu}, not "
                f"a positive integer: corrupted root tables")
        mult[mu] = int(m_mu)

    entries = {}
    for mu, m in mult.items():
        for w in rootsys.weyl_orbit(rs, mu):
            entries[w] = m
    ws = WeightSystem(entries, is_virtual=False)
    if ws.dimension() != weyl_dimension(rs, lam):
        raise RuntimeError(
            f"weight multiplicities for {lam} sum to {ws.dimension()}, "
            f"dimension formula gives {weyl_dimension(rs, lam)}")
    return ws


@dataclass(frozen=True)
class SecondMoment:
    """Second-moment matrix of a weight system, dim-normalized, exact."""
    matrix: tuple  # rank x rank, Fractions

    @cached_property
    def det(self):
        return det_fraction(self.matrix)

    @cached_property
    def inverse(self):
        return inv_fraction(self.matrix)

    def apply(self, x):
        """Act on a covector (matrix maps covectors to weights)."""
        return mat_vec(self.matrix, x)

    def solve(self, mu):
        return mat_vec(self.inverse, mu)


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
    if is_regular(rs, lam) and not is_positive_definite(sm.matrix):
        raise RuntimeError(f"second-moment matrix for {lam} not positive "
                           f"definite: corrupted root tables")
    return sm
