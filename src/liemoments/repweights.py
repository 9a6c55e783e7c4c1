"""Weight systems of irreducible representations and derived data.

Multiplicities come from Freudenthal's recursion run over the dominant
weights (found by closing the highest weight under subtraction of positive
roots) in order of level, the height of lam - mu (Moody-Patera).  The
recursion is in integers: levels are one ``divmod`` per coordinate against
the integer matrix D' C^-1, inner products are scaled by the lcm D of the
symmetrizer denominators, and each multiplicity is one exact ``divmod``.
As soon as a dominant weight's multiplicity is known, its Weyl orbit is
expanded into the table of weights, so each term mu + k alpha of the
recursion is one table lookup: its dominant conjugate lies at a strictly
lower level and was expanded earlier, and each alpha-string stops at its
first miss.  An orbit walk depends only on the zero set of mu, so it is
walked once per zero set and replayed on the other dominant weights with
that zero set, which gives the same points in the same order
(``rootsys.dominant_orbit``).  Everything is exact:
weights are integer tuples in fundamental-weight coordinates,
multiplicities are ints, and the second-moment matrix is one exact
Casimir scale per simple factor times the invariant form, from root data
alone, never from a weight system; its determinant, its inverse applied to
a weight and kappa(A_lam^-1 rho) are closed forms (``SecondMoment``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import add, mul, sub

from . import rootsys
from .exactla import eliminate


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


_INT = frozenset((int,))


def check_dominant_integral(rs, lam):
    lam = tuple(lam)
    if len(lam) != rs.rank:
        raise rootsys.ConfigurationError(
            f"weight {lam} has wrong rank for {rs.describe()}")
    # the common case, checked in C: exact ints, none negative
    if _INT.issuperset(map(type, lam)) and min(lam, default=0) >= 0:
        return lam
    if any((not isinstance(c, int) and Fraction(c).denominator != 1)
           or c < 0 for c in lam):
        raise rootsys.ConfigurationError(
            f"highest weight must be dominant integral, got {lam}")
    return tuple(int(c) for c in lam)


def is_regular(rs, lam):
    """True when the weight is strictly inside the dominant chamber."""
    return min(lam, default=1) >= 1


def weyl_dimension(rs, lam):
    """Dimension of the irreducible with highest weight ``lam`` (exact):
    prod <lam + rho, alpha^vee> over the memoised prod <rho, alpha^vee>,
    and 1 with no product for the zero weight.  The pairings follow the
    coroot recurrence of :func:`_coroot_steps`, one integer add each: a
    simple coroot alpha_i^vee pairs to lam_i + 1, and every other positive
    coroot to the pairing of the coroot one simple coroot below it plus
    lam_i + 1."""
    lam = check_dominant_integral(rs, lam)
    if not any(lam):
        return 1
    shifted = [l + 1 for l in lam]
    pairings = [0]
    for parent, i in _coroot_steps(rs):
        pairings.append(pairings[parent] + shifted[i])
    num = math.prod(pairings[1:])
    den = _weyl_denominator(rs)
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
                nu = tuple(map(sub, mu, alpha))
                if min(nu) >= 0 and nu not in dominants:
                    dominants.add(nu)
                    grown.append(nu)
        frontier = grown

    # Simple-root coordinates of lam - mu in integers: with den the common
    # denominator of the inverse Cartan matrix, each is one divmod of a row
    # of den * cartan_inv against lam - mu.
    den, inv = rootsys.scaled_cartan_inv(rs)
    below = {}
    for mu in dominants:
        diff = tuple(map(sub, lam, mu))
        coords = [divmod(_dot(row, diff), den) for row in inv]
        if any(r or q < 0 for q, r in coords):
            raise RuntimeError(
                f"{lam} - {mu} is not a nonnegative root combination: "
                f"corrupted root tables")
        below[mu] = [q for q, _ in coords]
    levels = {mu: sum(c) for mu, c in below.items()}
    order = sorted(dominants, key=lambda mu: (levels[mu], mu))

    # Integer inner products: D (mu, alpha) = sum_j mu_j c_j D d_j, with c
    # the simple-root coordinates of alpha and D the lcm of the
    # denominators of the symmetrizers d_j.
    _scale, sym = _integer_symmetrizers(rs)
    roots = []
    for c, alpha in zip(rs.positive_rootcoords, rs.positive_roots):
        pair = tuple(cj * dj for cj, dj in zip(c, sym))
        roots.append((alpha, pair, _dot(alpha, pair), sum(c)))

    # Each term mu + k alpha has a dominant conjugate of strictly lower
    # level than mu, whose orbit is already in the table.  The alpha-string
    # through the weight mu is unbroken (Humphreys, section 21.3), so the
    # first k that misses the table ends the string.
    entries = {}
    walks = {}  # zero set -> steps of rootsys._walk_orbit
    last = {tuple(c == 0 for c in mu): mu for mu in order}
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
                    if not m_nu:
                        break
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
        # Walk the orbit of the first dominant weight with each zero set
        # and replay its steps on the others (see rootsys.dominant_orbit);
        # the steps are freed after the last one.
        zeros = tuple(c == 0 for c in mu)
        steps = walks.get(zeros)
        if steps is None:
            orbit, walks[zeros] = rootsys._walk_orbit(rs, mu)
        else:
            orbit = rootsys._replay_orbit(rs, steps, mu)
        if last[zeros] == mu:
            del walks[zeros]
        entries.update(dict.fromkeys(orbit, m_mu))

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


# The exact constants of a datum below are memoised per datum, as
# rootsys.scaled_cartan_inv is, so a dataclasses.replace'd copy gets its own.
@cache
def _integer_symmetrizers(rs):
    """``(S, S d)``: the lcm S of the denominators of the symmetrizers d_j,
    and the symmetrizers scaled by it to integers."""
    scale = math.lcm(*(d.denominator for d in rs.symmetrizers))
    return scale, tuple(d.numerator * (scale // d.denominator)
                        for d in rs.symmetrizers)


@cache
def _cartan_minors(rs):
    """The leading principal minors of the Cartan matrix, from one
    :func:`exactla.eliminate` in integers; None when one is not positive."""
    done = eliminate(rs.cartan)
    return None if done is None else done[0]


@cache
def _weyl_denominator(rs):
    """prod <rho, alpha^vee> over the positive coroots."""
    return math.prod(map(sum, rs.positive_coroots))


@cache
def _coroot_steps(rs):
    """The recurrence of :func:`weyl_dimension`: one ``(parent, i)`` per
    positive coroot, in order of height.  Slot 0 holds the zero covector
    and step k fills slot k + 1 with the coroot of slot ``parent`` plus
    alpha_i^vee, so a simple coroot is ``(0, i)``.  The coroots form the
    dual root system, so every other positive coroot is a positive coroot
    of height one less plus a simple coroot; a coroot with no such parent
    raises RuntimeError, as it would mean corrupted tables."""
    slots, steps = {}, []
    for cr in sorted(rs.positive_coroots, key=sum):
        for i, c in enumerate(cr):
            below = cr[:i] + (c - 1,) + cr[i + 1:]
            if c > 0 and (below in slots or not any(below)):
                steps.append((slots.get(below, 0), i))
                break
        else:
            raise RuntimeError(
                f"positive coroot {cr} is no positive coroot plus a simple "
                f"coroot: corrupted root tables")
        slots.setdefault(cr, len(steps))
    return tuple(steps)


@cache
def _form_parts(rs):
    """The lam-free parts of :func:`_closed_forms`, S as in
    :func:`_integer_symmetrizers`: kappa's numerator prod S (alpha, rho)
    over the positive roots, with (alpha, rho) = sum_j c_j d_j for
    alpha = sum_j c_j alpha_j, and its denominator S^|Phi+|; det's S^rank
    over prod S d_j; and per simple factor k its rank r_k and its number of
    positive roots."""
    scale, sym = _integer_symmetrizers(rs)
    return (math.prod(sum(map(mul, c, sym)) for c in rs.positive_rootcoords),
            scale ** rs.num_positive_roots, scale ** rs.rank, math.prod(sym),
            tuple((len(block), (dim_factor - len(block)) // 2)
                  for block, dim_factor in rootsys.factor_blocks(rs)))


def _closed_forms(sm):
    """``(kappa_rho, det)`` of the :class:`SecondMoment` ``sm``, each one
    reduced Fraction from one integer pass over its scales: a scale
    s_k = p / q multiplies kappa's numerator by q and its denominator by p
    once per positive root of factor k, and det's numerator by p and its
    denominator by q once per simple root of k.  ValueError when A_lam is
    not positive definite."""
    if not sm.definite:
        raise ValueError("matrix is singular")
    kappa_num, kappa_den, det_num, det_den, shape = _form_parts(sm.rs)
    for (rank, roots), s in zip(shape, sm.scales):
        p, q = s.numerator, s.denominator
        kappa_num *= q ** roots
        kappa_den *= p ** roots
        det_num *= p ** rank
        det_den *= q ** rank
    # the last leading minor of C is det C
    return (Fraction(kappa_num, kappa_den),
            Fraction(_cartan_minors(sm.rs)[-1] * det_num, det_den))


@dataclass(frozen=True)
class SecondMoment:
    """The second-moment matrix A_lam of :func:`a_lambda`, exact, held as
    one Casimir scale s_k per simple factor k: on factor k's block,
    A_lam = s_k B_k, where B_k = (cartan[i][j] / d_j) is the invariant form
    on coroots.  So, with C the Cartan matrix and r_k the rank of factor k,
    its data are closed forms in root data (Humphreys, Introduction to Lie
    Algebras, sections 13 and 24):

    - ``det`` = det C / prod_j d_j * prod_k s_k^{r_k};
    - ``kappa_rho`` = kappa(A_lam^-1 rho) = prod_{alpha > 0} (alpha, rho)
      / s_k, with k the factor of alpha, since <alpha, D C^-1 rho> is
      (alpha, rho) for D = diag(d).

    A_lam is positive definite exactly when every s_k, every d_j and every
    leading principal minor of C is positive.  The parts that do not depend
    on lam are memoised per root datum: those minors, from one
    :func:`exactla.eliminate` of C in integers (:func:`_cartan_minors`),
    and the integer numerators and denominators of both forms
    (:func:`_form_parts`); so only the scales s_k are taken per lam, and
    A_lam itself is never eliminated.  Otherwise A_lam, a Gram sum and so
    positive semidefinite, is singular: ``det`` is 0, and ``kappa_rho``
    raises ValueError, as when lam vanishes on a simple factor.  Both forms
    come from one pass over the scales (:func:`_closed_forms`), which
    ``asymptotics.peak_data`` reads once for the pair; each property takes
    that pass again on every read, and nothing is kept.
    """
    rs: rootsys.RootSystem = field(repr=False)
    scales: tuple  # s_k = (lam, lam + 2 rho)_k / dim G_k, Fractions

    @property
    def matrix(self):
        """A_lam as a rank x rank tuple of Fractions."""
        rs = self.rs
        m = [[Fraction(0)] * rs.rank for _ in range(rs.rank)]
        for (block, _), s in zip(rootsys.factor_blocks(rs), self.scales):
            for i in block:
                for j in block:
                    m[i][j] = s * rs.cartan[i][j] / rs.symmetrizers[j]
        return tuple(tuple(row) for row in m)

    @property
    def definite(self):
        """Whether A_lam is positive definite, decided exactly: a scale's
        sign is its numerator's, and d_j > 0 exactly when S d_j > 0."""
        return (all(s.numerator > 0 for s in self.scales)
                and min(_integer_symmetrizers(self.rs)[1]) > 0
                and _cartan_minors(self.rs) is not None)

    @property
    def det(self):
        """det A_lam, exact; 0 when A_lam is not positive definite."""
        return _closed_forms(self)[1] if self.definite else Fraction(0)

    @property
    def kappa_rho(self):
        """kappa(A_lam^-1 rho), exact."""
        return _closed_forms(self)[0]


def a_lambda(rs, lam):
    """Averaged weight-square matrix of the irreducible with h.w. ``lam``.

    Entry (i, j) is  sum_mu m(mu) mu_i mu_j / dim.  The matrix is
    W-invariant, so on each simple factor it is a multiple of the invariant
    form on coroots, (alpha_i^vee, alpha_j^vee) = cartan[i][j] / d_j; the
    trace identity  Tr_V(H H') = dim V (lam, lam + 2 rho) / dim G (H, H')
    (the Dynkin index) fixes the multiple.  Blocks between factors vanish
    because sum_mu m(mu) mu = 0 on each factor.  Only root data enter, no
    weight system: each factor's multiple s_k is one integer sum over
    ``rootsys.scaled_cartan_inv`` and the scaled symmetrizers, and one
    Fraction, and :class:`SecondMoment` keeps the multiples.  For regular
    ``lam`` the result must be positive definite; that is checked exactly,
    from the leading minors of the Cartan matrix in integers, and a failure
    raises RuntimeError (it would indicate corrupted tables).
    """
    lam = check_dominant_integral(rs, lam)
    den, inv = rootsys.scaled_cartan_inv(rs)
    scale, sym = _integer_symmetrizers(rs)
    shifted = [l + 2 for l in lam]
    scales = []
    for block, dim_factor in rootsys.factor_blocks(rs):
        # den * scale * (lam, lam + 2 rho) restricted to this factor
        lo, hi = block.start, block.stop
        casimir = sum(lam[i] * sym[i] * _dot(inv[i][lo:hi], shifted[lo:hi])
                      for i in block)
        scales.append(Fraction(casimir, den * scale * dim_factor))
    sm = SecondMoment(rs, tuple(scales))
    if is_regular(rs, lam) and not sm.definite:
        raise RuntimeError(f"second-moment matrix for {lam} not positive "
                           f"definite: corrupted root tables")
    return sm
