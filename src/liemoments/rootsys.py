"""Root data for compact simply connected semisimple groups.

Coordinates
-----------
All covectors (points of the Cartan algebra / torus directions) carry
coordinates in the basis of simple coroots; all weights carry coordinates in
the dual basis of fundamental weights.  The natural pairing is then a plain
dot product, and the integral lattice of the simply connected group is exactly
the integer covectors.  The invariant inner product is encoded by the
symmetrizers ``d_i = (alpha_i, alpha_i) / 2`` with long roots normalized to
squared length 2; no Euclidean embedding of the root system is ever used.

Simple factors are hard-coded from the standard tables (Bourbaki numbering of
the Dynkin diagram nodes); positive roots are generated by root-string closure
and cross-checked against the dimension table at build time.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul, sub

from .exactla import (eliminate, hermite_normal_form, identity_int, mat_vec,
                      smith_normal_form)

Weight = tuple  # coordinates on fundamental weights; ints or Fractions
Covector = tuple  # coordinates on simple coroots; ints or Fractions


class ConfigurationError(ValueError):
    """Raised for malformed group/weight/cycle specifications."""


# letter -> (lowest, highest) supported rank
_RANK_RANGE = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (3, 8),
    "D": (4, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXCEPTIONAL_DIM = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248,
                    ("F", 4): 52, ("G", 2): 14}
_EXCEPTIONAL_WEYL = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                     ("F", 4): 1152, ("G", 2): 12}


def _dim_simple(letter, n):
    if letter == "A":
        return n * (n + 2)
    if letter in ("B", "C"):
        return n * (2 * n + 1)
    if letter == "D":
        return n * (2 * n - 1)
    return _EXCEPTIONAL_DIM[(letter, n)]


def _weyl_order_simple(letter, n):
    if letter == "A":
        return math.factorial(n + 1)
    if letter in ("B", "C"):
        return 2 ** n * math.factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return _EXCEPTIONAL_WEYL[(letter, n)]


def _cartan_simple(letter, n):
    """Cartan matrix a[i][j] = <alpha_j, alpha_i^vee>, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j):  # single bond between nodes i and j (0-based)
        a[i][j] = a[j][i] = -1

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B":  # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            a[n - 1][n - 2] = -2
        elif letter == "C":  # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
            a[n - 2][n - 1] = -2
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif letter == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)][: n - 1]:
            bond(i - 1, j - 1)
        for i, j in [(6, 7), (7, 8)][: n - 6]:
            bond(i - 1, j - 1)
    elif letter == "F":
        bond(0, 1)
        bond(2, 3)
        a[1][2] = -1  # <alpha_3, alpha_2^vee>
        a[2][1] = -2  # <alpha_2, alpha_3^vee>; alpha_3, alpha_4 short
    elif letter == "G":
        a[0][1] = -3  # alpha_1 short, alpha_2 long
        a[1][0] = -1
    return a


def _symmetrizers_simple(letter, n):
    """d_i = (alpha_i, alpha_i)/2 with long roots at squared length 2."""
    if letter == "B":
        return [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
    if letter == "C":
        return [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
    if letter == "F":
        return [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    if letter == "G":
        return [Fraction(1, 3), Fraction(1)]
    return [Fraction(1)] * n


def _positive_rootcoords(cartan):
    """All positive roots in simple-root coordinates, by string closure."""
    n = len(cartan)
    roots = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
    frontier = sorted(roots)
    while frontier:
        grown = []
        for beta in frontier:
            pair = [sum(cartan[i][j] * beta[j] for j in range(n))
                    for i in range(n)]
            for i in range(n):
                down = list(beta)
                p = 0
                down[i] -= 1
                while tuple(down) in roots:
                    p += 1
                    down[i] -= 1
                if p - pair[i] > 0:  # the string continues upward
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        grown.append(t)
        frontier = grown
    return sorted(roots, key=lambda c: (sum(c), c))


@dataclass(frozen=True)
class FundamentalGroup:
    """Center of the simply connected group, as torus points.

    ``elements`` are covectors with coordinates in [0, 1); the identity comes
    first.  ``invariant_factors`` are the nontrivial diagonal entries of the
    Smith form of the transposed Cartan matrix.
    """
    order: int
    elements: tuple
    invariant_factors: tuple


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root datum of a product of simple factors.

    Every field is a function of ``factors``, and ``build_root_system``
    memoises one datum per factors tuple.  Root systems compare and hash by
    identity, so a cache keyed on a datum never serves a copy with altered
    fields (``dataclasses.replace``) the original's value.
    """
    factors: tuple              # e.g. (("A", 2), ("B", 3))
    rank: int
    dim_group: int
    cartan: tuple               # cartan[i][j] = <alpha_j, alpha_i^vee>
    cartan_inv: tuple           # exact inverse, Fractions
    symmetrizers: tuple         # d_i, Fractions
    simple_roots: tuple         # weight coords (columns of cartan)
    positive_roots: tuple       # weight coords
    positive_rootcoords: tuple  # simple-root coords
    positive_coroots: tuple     # simple-coroot coords, ints
    rho: tuple                  # (1, ..., 1)
    weyl_order: int
    center: FundamentalGroup
    coroot_grid_basis: tuple    # (H, U): H = U @ cartan, row Hermite form

    @property
    def num_positive_roots(self):
        return len(self.positive_roots)

    def describe(self):
        return "x".join(f"{letter}{n}" for letter, n in self.factors)


def parse_group(spec):
    """Parse a group label like ``"A2"``, ``"B3"`` or ``"A1xA1"``."""
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigurationError(f"empty group spec {spec!r}")
    factors = []
    for token in re.split(r"[x,]", spec.strip(), flags=re.IGNORECASE):
        token = token.strip()
        m = re.fullmatch(r"([A-Ga-g])\s*([0-9]+)", token)
        if not m:
            raise ConfigurationError(f"cannot parse group factor {token!r}")
        letter = m.group(1).upper()
        n = int(m.group(2))
        lo, hi = _RANK_RANGE[letter]
        if not lo <= n <= hi:
            raise ConfigurationError(
                f"{letter}{n} not supported: {letter} needs rank in "
                f"[{lo}, {hi}]")
        factors.append((letter, n))
    return tuple(factors)


def _block_diag(blocks):
    total = sum(len(b) for b in blocks)
    out = [[0] * total for _ in range(total)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def build_root_system(spec):
    """Construct the full root datum for a group spec string.

    The positive-root count is cross-checked against the dimension table
    (dim G = 2 * #positive + rank) and the center order against |det Cartan|;
    a mismatch raises RuntimeError, as it would mean corrupted tables.
    The spec is parsed on every call, so a malformed one always raises; the
    datum is memoised per parsed factors, since it is immutable and a
    function of them alone.
    """
    factors = parse_group(spec) if isinstance(spec, str) else tuple(spec)
    return _root_system(factors)


@cache
def _root_system(factors):
    cartan = _block_diag([_cartan_simple(l, n) for l, n in factors])
    rank = len(cartan)
    dim_group = sum(_dim_simple(l, n) for l, n in factors)
    weyl_order = math.prod(_weyl_order_simple(l, n) for l, n in factors)
    sym = []
    for l, n in factors:
        sym.extend(_symmetrizers_simple(l, n))

    rootcoords = []
    off = 0
    for l, n in factors:
        for c in _positive_rootcoords(_cartan_simple(l, n)):
            rootcoords.append(tuple([0] * off + list(c) + [0] * (rank - off - n)))
        off += n
    rootcoords.sort(key=lambda c: (sum(c), c))
    if 2 * len(rootcoords) + rank != dim_group:
        raise RuntimeError(
            f"root closure produced {len(rootcoords)} positive roots for "
            f"{factors}, inconsistent with dim {dim_group}")

    def to_weight(c):
        return tuple(sum(cartan[i][j] * c[j] for j in range(rank))
                     for i in range(rank))

    pos_weights = tuple(to_weight(c) for c in rootcoords)
    coroots = []
    for c, w in zip(rootcoords, pos_weights):
        norm = sum(Fraction(c[j]) * sym[j] * w[j] for j in range(rank))
        coroots.append(tuple(2 * Fraction(c[j]) * sym[j] / norm
                             for j in range(rank)))
    for cr in coroots:
        if any(x.denominator != 1 for x in cr):
            raise RuntimeError(f"non-integral coroot {cr}")
    coroots = tuple(tuple(int(x) for x in cr) for cr in coroots)

    # Every finite-type Cartan matrix has positive leading minors, so one
    # elimination without row exchanges gives its inverse and determinant.
    done = eliminate(cartan, identity_int(rank))
    if done is None:
        raise RuntimeError(f"Cartan matrix of {factors} has a non-positive "
                           f"leading minor: corrupted root tables")
    minors, columns = done
    cartan_inv = tuple(zip(*columns))
    rho = tuple([1] * rank)

    center = _fundamental_group(cartan)
    if center.order != minors[-1]:
        raise RuntimeError("center order disagrees with det of Cartan matrix")
    grid_basis = _coroot_grid_basis(cartan, center)

    return RootSystem(
        factors=factors,
        rank=rank,
        dim_group=dim_group,
        cartan=tuple(tuple(r) for r in cartan),
        cartan_inv=cartan_inv,
        symmetrizers=tuple(sym),
        simple_roots=tuple(to_weight(tuple(1 if k == i else 0
                                           for k in range(rank)))
                           for i in range(rank)),
        positive_roots=pos_weights,
        positive_rootcoords=tuple(rootcoords),
        positive_coroots=coroots,
        rho=rho,
        weyl_order=weyl_order,
        center=center,
        coroot_grid_basis=grid_basis,
    )


def _coroot_grid_basis(cartan, center):
    """Row Hermite form H = U @ cartan of the lattice of root values.

    Torus grid points k / m have root values z = k @ cartan, the row
    lattice of the Cartan matrix, which quadrature walks through H
    (``torusquad._alcove_factor``).  prod_j H_jj = |det cartan| must be the
    center order from the Smith form, and U @ cartan == H must hold; either
    failure raises RuntimeError, as it would mean corrupted tables.
    """
    h, u = hermite_normal_form(cartan)
    rank = len(cartan)
    product = [tuple(sum(u[i][p] * cartan[p][j] for p in range(rank))
                     for j in range(rank)) for i in range(rank)]
    if math.prod(h[j][j] for j in range(rank)) != center.order:
        raise RuntimeError("Hermite diagonal disagrees with the center order")
    if tuple(product) != h:
        raise RuntimeError("Hermite transform does not map cartan to H")
    return h, u


def _fundamental_group(cartan):
    """Quotient of the coweight lattice by the coroot lattice.

    In coroot coordinates the coweight lattice is (cartan^T)^{-1} Z^rank, so
    with U (cartan^T) V = D in Smith form its classes are represented by
    V @ diag(1/d_i) @ c over c in prod range(d_i), reduced mod 1.
    """
    rank = len(cartan)
    at = [[cartan[j][i] for j in range(rank)] for i in range(rank)]
    diag, _u, v = smith_normal_form(at)
    if any(d == 0 for d in diag):
        raise RuntimeError("Cartan matrix is singular")
    elements = []
    for c in itertools.product(*(range(d) for d in diag)):
        x = mat_vec(v, [Fraction(ci, di) for ci, di in zip(c, diag)])
        elements.append(tuple(xi - xi.__floor__() for xi in x))
    order = math.prod(diag)
    return FundamentalGroup(order=order,
                            elements=tuple(elements),
                            invariant_factors=tuple(d for d in diag if d > 1))


@cache
def simple_factors(rs):
    """``((index range, root datum), ...)``, one pair per simple factor,
    in factor order; memoised per datum.

    For G = G_1 x ... x G_k every weight, covector and root splits along
    the ranges, and every matrix built from the root datum (Cartan matrix,
    its inverse, the symmetrizers) is block diagonal along them, so a
    computation on G can run on each factor's own (memoised) datum.  A
    simple group is its own one factor: the datum is ``rs`` itself, not a
    rebuilt one, so a ``dataclasses.replace``d copy reaches its own
    cross-checks.
    """
    if len(rs.factors) == 1:
        return ((range(rs.rank), rs),)
    out, off = [], 0
    for letter, n in rs.factors:
        out.append((range(off, off + n), build_root_system(((letter, n),))))
        off += n
    return tuple(out)


def pairing(mu, x):
    """Natural pairing of a weight with a covector (plain dot product),
    exact for int and Fraction coordinates.  Each side is scaled to
    integers by the lcm of its denominators, so one Fraction is built."""
    if len(mu) != len(x):
        raise ValueError(f"rank mismatch: weight {mu} vs covector {x}")
    den_mu = math.lcm(*(m.denominator for m in mu))
    den_x = math.lcm(*(xi.denominator for xi in x))
    return Fraction(sum(m.numerator * (den_mu // m.denominator)
                        * xi.numerator * (den_x // xi.denominator)
                        for m, xi in zip(mu, x)), den_mu * den_x)


def kappa(rs, x):
    """Product of <alpha, x> over the positive roots alpha, exact.

    The pairings are taken in integers, on ``x`` scaled by the common
    denominator of its coordinates; one division restores the scale.
    """
    if len(x) != rs.rank:
        raise ValueError(f"rank mismatch: covector {x} for rank {rs.rank}")
    x = [Fraction(xi) for xi in x]
    den = math.lcm(*(xi.denominator for xi in x))
    scaled = [xi.numerator * (den // xi.denominator) for xi in x]
    out = 1
    for alpha in rs.positive_roots:
        out *= sum(map(mul, alpha, scaled))
    return Fraction(out, den ** len(rs.positive_roots))


def dominant_representative(rs, mu):
    """Dominant Weyl conjugate of ``mu`` and the sign of an element mapping
    mu to it.  The sign is meaningful only when the stabilizer of mu is
    trivial (no zero coordinate on the dominant conjugate)."""
    cur = list(mu)
    sign = 1
    while True:
        i = next((k for k, c in enumerate(cur) if c < 0), None)
        if i is None:
            return tuple(cur), sign
        ci = cur[i]
        for k in range(rs.rank):
            cur[k] -= ci * rs.cartan[k][i]
        sign = -sign


def dominant_orbit(rs, mu):
    """Weyl orbit of the dominant weight ``mu`` as a list, ``mu`` first.

    The walk goes down from ``mu``: it applies s_i only where coordinate i
    is positive, which subtracts a positive multiple of alpha_i.  A point
    w(mu), w shortest in its coset of the stabiliser, is first reached after
    length(w) steps, so the generations of the walk are disjoint and each
    is deduplicated on its own, with no set of every point seen.  The walk
    depends on ``mu`` only through its zero set J: coordinate i of w(mu) is
    <mu, w^-1 alpha_i^vee>, whose sign J fixes, and w(mu) = w'(mu) exactly
    when w W_J = w' W_J.  So the steps ``_walk_orbit`` records replay, by
    ``_replay_orbit``, to this list for any dominant weight with that zero
    set.
    """
    return _walk_orbit(rs, mu)[0]


def _walk_orbit(rs, mu):
    """:func:`dominant_orbit` and, for each point after the first, its
    first-reach step p * rank + i: the point is s_i of point p.  Following
    the parents counts each point's generation, length(w), so
    (-1)^generation is det(w) when ``mu`` is regular.  Each step is one
    int, not a pair, since a large build keeps one walk per zero set."""
    multiples = [{} for _ in range(rs.rank)]
    out = [tuple(mu)]
    steps = []
    start = 0
    while start < len(out):
        grown = {}
        for p in range(start, len(out)):
            w = out[p]
            for i, c in enumerate(w):
                if c > 0:
                    grown.setdefault(tuple(map(
                        sub, w, _multiple(rs, multiples, i, c))),
                        p * rs.rank + i)
        start = len(out)
        out.extend(grown)
        steps.extend(grown.values())
    return out, steps


def _replay_orbit(rs, steps, mu):
    """The orbit of the dominant weight ``mu`` from the steps
    :func:`_walk_orbit` recorded on a dominant weight with its zero set."""
    multiples = [{} for _ in range(rs.rank)]
    out = [mu]
    for step in steps:
        p, i = divmod(step, rs.rank)
        w = out[p]
        out.append(tuple(map(sub, w, _multiple(rs, multiples, i, w[i]))))
    return out


def _multiple(rs, multiples, i, c):
    """c * alpha_i in weight coordinates, memoised in ``multiples[i]``."""
    step = multiples[i].get(c)
    if step is None:
        step = multiples[i][c] = tuple(c * a for a in rs.simple_roots[i])
    return step


@cache
def scaled_cartan_inv(rs):
    """``(D, D C^-1)``: the lcm D of the denominators of the inverse Cartan
    matrix, and D times that matrix in integers.  Row j pairs a weight with
    D times its coefficient on alpha_j.  Memoised per datum, and read from
    ``cartan_inv``, so a copy with an altered inverse gets its own."""
    den = math.lcm(*(x.denominator for row in rs.cartan_inv for x in row))
    return den, tuple(tuple(int(x * den) for x in row)
                      for row in rs.cartan_inv)


def root_lattice_class(rs, mu):
    """Class of the integer weight ``mu`` modulo the root lattice Q: the
    residues of D C^-1 mu mod D (D from :func:`scaled_cartan_inv`).  The
    root coordinates of ``mu`` are (D C^-1 mu) / D, so the class is linear
    in ``mu`` and all zeros exactly when ``mu`` lies in Q, that is when
    every central element acts trivially on V_mu."""
    den, inv = scaled_cartan_inv(rs)
    return tuple(sum(map(mul, row, mu)) % den for row in inv)


def order_mod_root_lattice(rs, mu):
    """Smallest q >= 1 with q * mu in the root lattice: D / gcd(D, class)
    for the :func:`root_lattice_class` of the integer weight ``mu``."""
    den = scaled_cartan_inv(rs)[0]
    return den // math.gcd(den, *root_lattice_class(rs, mu))
