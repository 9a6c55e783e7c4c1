"""Independent oracles used to freeze expected values in the tests.

Nothing in here calls the library's own evaluation routes (only cheap shared
data like root coordinates), so agreement between library and oracle is a
genuine two-route check:

* Exact determinant, inverse and solve by elimination with row exchanges,
  sharing no elimination with ``exactla.eliminate``.
* Catalan / Fourier-coefficient formulas: plain binomials.
* Simple reflections on weight and covector coordinates, one at a time.
* su(2) ladder walks: invariant counts by explicit Clebsch-Gordan recursion.
* Weyl character formula by Laurent-polynomial division: weight
  multiplicities without Freudenthal, and the second-moment matrix summed
  over them.
* The weight table in Freudenthal's order: the dominant weights of the Weyl
  character formula by level (Fraction root coordinates), each walked out
  by ``rootsys.dominant_orbit``, with no orbit walk replayed.
* Root coordinates as Fractions, and a weight's order modulo the root
  lattice as the lcm of their denominators.
* The central sum of the leading term as a float phase sum over the
  center's elements: exp(2 pi i m <lam, psi>) from the Fraction pairing,
  and the class function's value at each element, term by term, with Weyl
  dimensions from the product formula over the positive coroots.
* The leading term's peak data composed from the second-moment matrix's
  properties, kappa(A^-1 rho) and det A read one at a time, with the
  Weyl dimensions from that product formula.
* Permutations with no increasing subsequence longer than n, by the
  hook-length formula summed over the partitions with at most n rows, and
  Regev's leading term for them.
* SU(n) moments of the standard representation in closed form: the
  Diaconis-Shahshahani product in the stable range, and Rains's
  multinomial sum for a single high power.
* Sp(2r) moments of the standard representation: perfect matchings with
  no (r + 1)-crossing, as oscillating-tableau walks on partitions with at
  most r rows.
* The center from the special nodes of the extended Dynkin diagram, with
  no Smith form.
* A re-assembly of the leading-order constant from raw transformed data, for
  the basis-independence certificate.
* One Klimyk step that reflects every (highest weight, weight) pair to the
  dominant chamber with ``rootsys.dominant_representative``: the loop whose
  short cuts (no test above the depth, walls dropped unreflected) the
  engine's step takes, so it checks those short cuts, not the reflection.
* Torus evaluators as scalar per-weight and per-root loops: the character
  and the squared Weyl denominator at one point.
* Torus quadrature over the whole uniform grid, every point of every Weyl
  orbit, with characters from the Weyl character formula.
* The alcove walk with its coefficient matrix restacked on every axis, the
  reference for the one-pass walk's points and their order.
* The two torus tables of a grid size from two separate angle arrays,
  2 pi t / m and pi t / m, the reference for tables read off one.
* The per-axis quadrature bandwidth: the largest |mu_i| of every factor of
  the integrand, read off the vertices W lam of its weight polytope and
  added axis by axis.
* Trace monomials of a matrix by brute force over the tensor basis states,
  contracted along a permutation of the cycle type.
* The Gaussian kappa^2 integral by a tensor Gauss-Hermite rule in floats.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import comb

import numpy as np

from liemoments.exactla import mat_vec
from liemoments.repweights import a_lambda, check_dominant_integral
from liemoments.rootsys import (dominant_orbit, dominant_representative,
                                pairing, root_lattice_class, simple_factors)


def frac_matrix(rows):
    """Copy ``rows`` into a list of lists of Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def det_fraction(mat):
    """Determinant by exact Gaussian elimination."""
    m = frac_matrix(mat)
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1, 1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [m[r][c] - f * m[col][c] for c in range(n)]
    return det


def inv_fraction(mat):
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(mat)
    m = frac_matrix(mat)
    aug = [m[i] + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve_fraction(mat, vec):
    """Solve mat @ x = vec exactly; returns a tuple of Fractions."""
    return mat_vec(inv_fraction(mat), vec)


def leading_principal_minors(mat):
    """Determinants of the top-left k x k blocks, k = 1..n."""
    n = len(mat)
    return [det_fraction([row[: k + 1] for row in mat[: k + 1]])
            for k in range(n)]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def balanced_moment_fourier(n):
    """Constant Fourier coefficient of |2 cos|^{2N} * (2 - 2 cos(2.)) / 2,
    i.e. the exact two-sided moment for the su(2) standard character."""
    return comb(2 * n, n) - comb(2 * n, n + 1)


def su2_ladder_invariants(step_m, n):
    """Invariant count after n tensor steps with the su(2) irrep of highest
    weight coordinate ``step_m`` (dimension step_m + 1), by the explicit
    Clebsch-Gordan rule m' in {|m - step|, ..., m + step} with matching
    parity."""
    state = {0: 1}
    for _ in range(n):
        nxt = {}
        for m, count in state.items():
            lo = abs(m - step_m)
            for mp in range(lo, m + step_m + 1, 2):
                nxt[mp] = nxt.get(mp, 0) + count
        state = nxt
    return state.get(0, 0)


def syt_rectangular(rows, cols):
    """Standard Young tableaux of a rows x cols rectangle (hook lengths)."""
    return standard_tableaux((cols,) * rows)


def riordan(n):
    """Riordan numbers 1, 0, 1, 1, 3, 6, 15, ... by the 3-term recursion."""
    if n == 0:
        return 1
    vals = [1, 0]
    for k in range(2, n + 1):
        vals.append((k - 1) * (2 * vals[k - 1] + 3 * vals[k - 2]) // (k + 1))
    return vals[n]


def partitions(n, max_parts, largest=None):
    """Partitions of n into at most ``max_parts`` parts, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


def standard_tableaux(shape):
    """f^mu, the standard Young tableaux of ``shape``, by hook lengths."""
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def bounded_lis_count(n, size):
    """Permutations of ``size`` with no increasing subsequence longer than
    n: sum of (f^mu)^2 over the partitions mu of ``size`` with at most n
    rows (Robinson-Schensted).  It equals K_N of the standard
    representation of SU(n), with a = b = (1) and N = ``size``."""
    if size == 0:
        return 1
    return sum(standard_tableaux(mu) ** 2 for mu in partitions(size, n))


def regev_leading(n, size):
    """Regev's leading term of :func:`bounded_lis_count`:
    c_n n^{2N} N^{-(n^2 - 1)/2} with
    c_n = (2 pi)^{-(n-1)/2} 2^{-(n^2-1)/2} 1! 2! ... (n-1)! n^{n^2/2}."""
    c = ((2 * math.pi) ** (-(n - 1) / 2) * 2 ** (-(n * n - 1) / 2)
         * math.prod(math.factorial(j) for j in range(1, n))
         * n ** (n * n / 2))
    return c * n ** (2 * size) * size ** (-(n * n - 1) / 2)


def diaconis_shahshahani(n, a, size):
    """K_N of the standard representation of SU(n) with a = b = ``a`` and
    N = ``size`` in the stable range n >= N sum_j j a_j, where the traces
    Tr(g^j) are moment-equivalent to independent complex Gaussians of
    variance j (Diaconis-Shahshahani): prod_j j^{a_j N} (a_j N)!."""
    if n < size * sum(j * aj for j, aj in enumerate(a, 1)):
        raise ValueError(f"N = {size} is outside the stable range of SU({n})")
    return math.prod(j ** (aj * size) * math.factorial(aj * size)
                     for j, aj in enumerate(a, 1))


def rains_moment(n, j, size):
    """K_N of the standard representation of SU(n) with a = b = e_j, j >= n,
    and N = ``size``: the eigenvalues of g^j are n independent uniform
    points of the circle (Rains), so K_N = E|z_1 + ... + z_n|^{2N}, the sum
    over k_1 + ... + k_n = N of (N! / (k_1! ... k_n!))^2."""
    if j < n:
        raise ValueError(f"Rains's law needs j >= n, got j = {j}, n = {n}")
    total = 0
    for ks in itertools.product(range(size + 1), repeat=n - 1):
        if sum(ks) <= size:
            parts = (*ks, size - sum(ks))
            total += (math.factorial(size)
                      // math.prod(map(math.factorial, parts))) ** 2
    return total


def crossing_free_matchings(r, size):
    """Perfect matchings of [``size``] with no (r + 1)-crossing, counted as
    oscillating tableaux: walks of ``size`` steps from the empty partition
    back to it, each step adding or removing one box, through partitions
    with at most r rows (Sundaram; Chen-Deng-Du-Stanley-Yan).  It equals
    I_N of the standard representation of Sp(2r), a = (1) and N =
    ``size``: 0 at odd N, and (N - 1)!! while N <= 2r."""
    walks = {(): 1}
    for step in range(size):
        left = size - step - 1      # a shape must empty in the steps left
        nxt = {}
        for shape, count in walks.items():
            for i in range(min(len(shape) + 1, r)):
                row = shape[i] if i < len(shape) else 0
                if i == 0 or shape[i - 1] > row:        # add a box to row i
                    new = shape[:i] + (row + 1,) + shape[i + 1:]
                    if sum(new) <= left:
                        nxt[new] = nxt.get(new, 0) + count
            for i, row in enumerate(shape):
                if i + 1 == len(shape) or shape[i + 1] < row:   # remove one
                    new = shape[:i] + (row - 1,) + shape[i + 1:]
                    new = new[:-1] if new[-1] == 0 else new
                    nxt[new] = nxt.get(new, 0) + count
        walks = nxt
    return walks.get((), 0)


def reflect_weight(rs, mu, i):
    """Simple reflection s_i acting on weight coordinates."""
    ci = mu[i]
    return tuple(m - ci * rs.cartan[k][i] for k, m in enumerate(mu))


def reflect_covector(rs, x, i):
    """Simple reflection s_i acting on covector coordinates."""
    c = sum(rs.cartan[j][i] * x[j] for j in range(rs.rank))
    return tuple(xj - c if j == i else xj for j, xj in enumerate(x))


def signed_orbit(rs, mu):
    """{w(mu): sign(w)} for a regular weight mu (free orbit)."""
    out = {tuple(mu): 1}
    frontier = [tuple(mu)]
    while frontier:
        grown = []
        for w in frontier:
            for i in range(rs.rank):
                r = reflect_weight(rs, w, i)
                if r not in out:
                    out[r] = -out[w]
                    grown.append(r)
        frontier = grown
    return out


def weyl_formula_multiplicities(rs, lam):
    """Weight multiplicities via the Weyl character formula.

    Computes the alternating orbit sums of lam + rho and rho and divides
    them as Laurent polynomials (lexicographic leading-term division).  This
    never touches the Freudenthal recursion.
    """
    lam = tuple(int(c) for c in lam)
    rho = (1,) * rs.rank
    num = dict(signed_orbit(rs, tuple(l + 1 for l in lam)))
    den = signed_orbit(rs, rho)
    den_lead = max(den)
    den_lead_coeff = den[den_lead]
    quot = {}
    steps = 0
    while num:
        steps += 1
        assert steps < 200000, "division runaway — inputs not an exact multiple?"
        lead = max(num)
        q_key = tuple(a - b for a, b in zip(lead, den_lead))
        q_coeff = num[lead] // den_lead_coeff
        assert q_coeff * den_lead_coeff == num[lead]
        quot[q_key] = quot.get(q_key, 0) + q_coeff
        for k, c in den.items():
            key = tuple(a + b for a, b in zip(q_key, k))
            v = num.get(key, 0) - q_coeff * c
            if v:
                num[key] = v
            else:
                num.pop(key, None)
    return {k: v for k, v in quot.items() if v}


def root_lattice_coords(rs, mu):
    """Coordinates of ``mu`` on the simple roots (exact; may be fractional)."""
    return mat_vec(rs.cartan_inv, mu)


def order_mod_root_lattice(rs, mu):
    """Smallest q >= 1 with q * mu in the root lattice: the lcm of the
    denominators of the root coordinates of ``mu``."""
    return math.lcm(*(c.denominator for c in root_lattice_coords(rs, mu)))


def special_node_center(rs):
    """The center from the special nodes (Bourbaki VI 2.3): on each simple
    factor, 0 and the fundamental coweights omega_j^vee (row j of the
    inverse Cartan matrix, mod 1) of the nodes whose mark in the highest
    root is 1; on a product, every combination of the factors' elements.
    No Smith form is taken."""
    parts = []
    for _, rs_k in simple_factors(rs):
        marks = max(rs_k.positive_rootcoords, key=sum)
        parts.append([(Fraction(0),) * rs_k.rank] + [
            tuple(x % 1 for x in rs_k.cartan_inv[j])
            for j, mark in enumerate(marks) if mark == 1])
    return [sum(elements, ()) for elements in itertools.product(*parts)]


def unit_phase(t):
    """exp(2 pi i t) for rational t: exactly 1, -1, i or -i at the integers,
    halves and quarters, cmath elsewhere."""
    t = Fraction(t)
    num, den = t.numerator % t.denominator, t.denominator
    if den == 1:
        return complex(1, 0)
    if den == 2:
        return complex(-1, 0)
    if den == 4:
        return complex(0, 1) if num == 1 else complex(0, -1)
    return cmath.exp(2j * math.pi * (num / den))


def nu_character(rs, lam, m, psi):
    """Phase exp(2 pi i m <lam, psi>) of the central element ``psi`` (a
    covector) on the m-th dilate of ``lam``: a root of unity."""
    return unit_phase(m * pairing(lam, psi))


def weyl_dimension_product(rs, lam):
    """dim V_lam as prod over the positive coroots of
    <lam + rho, a^v> / <rho, a^v>, in Fractions."""
    shifted = [l + 1 for l in lam]
    out = Fraction(1)
    for cor in rs.positive_coroots:
        out *= pairing(shifted, cor) / pairing(rs.rho, cor)
    assert out.denominator == 1
    return int(out)


def peak_data_from_second_moment(rs, lam, f):
    """The fields of ``asymptotics.PeakData`` composed from the public
    second-moment properties: ``a_lambda`` (its checks and refusals), the
    dimensions of lam and of each term from the coroot product, kappa and
    det as ``kappa_rho`` and ``det`` read one at a time, and the floats
    from those Fractions: ``float``, ``math.sqrt`` and the difference of
    the logs of numerator and denominator.  Each term of ``f`` is checked
    by ``check_dominant_integral`` before its dimension is taken."""
    sm = a_lambda(rs, lam)
    lam = check_dominant_integral(rs, lam)
    dim = weyl_dimension_product(rs, lam)
    kap, det = sm.kappa_rho, sm.det
    weights = [c * weyl_dimension_product(rs, check_dominant_integral(rs, nu))
               for nu, c in f.terms]
    classes = [root_lattice_class(rs, nu) for nu, _ in f.terms]

    def log(q):
        q = Fraction(q)
        return math.log(q.numerator) - math.log(q.denominator)

    return (dim, kap, det, root_lattice_class(rs, lam),
            tuple(zip(classes, weights)),
            (math.log(dim), float(kap), log(kap), math.sqrt(det), log(det)))


def central_value(rs, f, psi):
    """The class function ``f`` at the central element ``psi``: the sum
    over its terms of c dim V_nu times nu's phase, term by term."""
    value = complex(0, 0)
    for nu, c in f.terms:
        value += (c * weyl_dimension_product(rs, nu)
                  * nu_character(rs, nu, 1, psi))
    return value


def phase_central_sum(rs, lam, k, f):
    """The leading term's central sum as a float phase sum over
    ``rs.center.elements``: sum_psi exp(2 pi i k <lam, psi>) f(psi), with
    k = N k_a one-sided and 0 two-sided."""
    total = complex(0, 0)
    for psi in rs.center.elements:
        total += nu_character(rs, lam, k, psi) * central_value(rs, f, psi)
    return total


def weight_table_by_levels(rs, lam):
    """Weight multiplicities as a list of (weight, multiplicity) in the
    order of the Freudenthal table: dominant weights mu sorted by (level,
    mu), level the height of lam - mu, each followed by the rest of its
    Weyl orbit in ``dominant_orbit`` order."""
    mults = weyl_formula_multiplicities(rs, lam)

    def level(mu):
        return sum(root_lattice_coords(rs, [l - m for l, m in zip(lam, mu)]))

    dominant = sorted((mu for mu in mults if min(mu) >= 0),
                      key=lambda mu: (level(mu), mu))
    return [(w, mults[mu]) for mu in dominant
            for w in dominant_orbit(rs, mu)]


def weight_sum_second_moment(rs, lam):
    """sum_mu m(mu) mu_i mu_j / dim as a Fraction matrix, summed over the
    Weyl-character-formula multiplicities."""
    mults = weyl_formula_multiplicities(rs, lam)
    dim = sum(mults.values())
    return tuple(tuple(Fraction(sum(m * mu[i] * mu[j]
                                    for mu, m in mults.items()), dim)
                       for j in range(rs.rank))
                 for i in range(rs.rank))


def random_unimodular(rng, n, shears=6):
    """Random integer matrix of determinant +-1 (products of shears and
    signed permutations)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def shear(i, j, c):
        for k in range(n):
            m[i][k] += c * m[j][k]

    for _ in range(shears):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        shear(i, j, int(rng.integers(-2, 3)) or 1)
    if n > 1 and rng.integers(2):
        m[0], m[1] = m[1], m[0]
    if rng.integers(2):
        m[0] = [-x for x in m[0]]
    return m


def reassembled_leading_value(rs, lam, a, n, basis_change):
    """Leading-order value rebuilt from scratch after a basis change.

    ``basis_change`` U is a unimodular integer matrix giving new integral-
    lattice basis vectors as columns in the old coroot basis.  Weight
    coordinates transform by U^T, covector coordinates by U^{-1}; everything
    below uses only the transformed raw data (weight system, rho, positive
    roots, center representatives) plus the scalar assembly formula.
    """
    from liemoments.repweights import weight_system, weyl_dimension

    rank = rs.rank
    u = [[Fraction(x) for x in row] for row in basis_change]
    ut = [[u[j][i] for j in range(rank)] for i in range(rank)]
    uinv = inv_fraction(u)

    def tw(mu):  # weight coords in the new basis
        return mat_vec(ut, mu)

    def tc(x):  # covector coords in the new basis
        return mat_vec(uinv, x)

    ws = weight_system(rs, lam)
    dim = weyl_dimension(rs, lam)
    # second-moment matrix from transformed weights
    m = [[Fraction(0)] * rank for _ in range(rank)]
    for mu, c in ws.entries.items():
        mu_t = tw(mu)
        for i in range(rank):
            for j in range(rank):
                m[i][j] += c * mu_t[i] * mu_t[j]
    for i in range(rank):
        for j in range(rank):
            m[i][j] /= dim
    det_a = det_fraction(m)
    arho = mat_vec(inv_fraction(m), tw(rs.rho))
    kap = Fraction(1)
    for alpha in rs.positive_roots:
        alpha_t = tw(alpha)
        kap *= sum(ai * xi for ai, xi in zip(alpha_t, arho))
    size, k, l = a.size, a.weight, a.quad
    pi_sum = complex(0, 0)
    for psi in rs.center.elements:
        pairing = sum(li * xi for li, xi in zip(tw(lam), tc(psi)))
        t = n * k * pairing
        t -= t.__floor__()
        pi_sum += cmath.exp(2j * math.pi * float(t))
    d = len(rs.positive_roots)
    return (math.exp(n * size * math.log(dim))
            * (2 * math.pi) ** d
            / ((2 * math.pi * l * n) ** (rs.dim_group / 2)
               * math.sqrt(det_a))
            * float(kap) * pi_sum.real)


def all_cycle_types_with_weight(k):
    """Every exponent vector (a_1, ..., a_k) with sum j * a_j = k."""
    out = []

    def rec(j, remaining, acc):
        if j > k:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for aj in range(remaining // j + 1):
            rec(j + 1, remaining - j * aj, acc + [aj])

    rec(1, k, [])
    return out


def canonical_permutation(a):
    """A permutation of {0..k-1} with cycle type ``a``: cycles in increasing
    length, filled with consecutive indices.  Returned as the image array."""
    k = a.weight
    perm = list(range(k))
    pos = 0
    for j, aj in enumerate(a.exps, start=1):
        for _ in range(aj):
            block = list(range(pos, pos + j))
            for idx, src in enumerate(block):
                perm[src] = block[(idx + 1) % j]
            pos += j
    return perm


def permutation_trace_bruteforce(matrix, a, cap=10 ** 5):
    """Trace of (B tensor ... tensor B) composed with a cycle-type permutation.

    Brute force over all d^k tensor basis states; refuses when d^k exceeds
    ``cap``.  The permutation operator sends basis slot i to slot sigma(i)
    (slot i of the output holds the input slot sigma^{-1}(i)).
    """
    d = len(matrix)
    k = a.weight
    if k == 0:
        return 1.0 + 0.0j
    if d ** k > cap:
        raise ValueError(f"d^k = {d ** k} exceeds brute-force cap {cap}")
    perm = canonical_permutation(a)
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    total = 0.0 + 0.0j
    for phi in itertools.product(range(d), repeat=k):
        term = 1.0 + 0.0j
        for i in range(k):
            term *= matrix[phi[i]][phi[inv[i]]]
            if term == 0:
                break
        total += term
    return total


def greedy_decompose(rs, ws):
    """Decompose a genuine character by peeling highest weights.

    Repeatedly take the weight of maximal height (then lexicographically
    largest), which for a genuine character is a dominant highest weight,
    and subtract that irreducible's weight system from the Weyl character
    formula.  Raises ValueError if the input turns out not to be a genuine
    character.
    """
    remaining = dict(ws.entries)
    # pairs to 1 with every simple root: cartan^T x = rho
    rho_cov = solve_fraction([list(col) for col in zip(*rs.cartan)], rs.rho)

    def height(w):
        return sum(c * x for c, x in zip(w, rho_cov))

    out = {}
    while remaining:
        mu = max(remaining, key=lambda w: (height(w), w))
        c = remaining[mu]
        if c < 0 or any(x < 0 for x in mu):
            raise ValueError("not the character of a genuine representation")
        out[mu] = c
        for nu, m in weyl_formula_multiplicities(rs, mu).items():
            v = remaining.get(nu, 0) - c * m
            if v:
                remaining[nu] = v
            else:
                remaining.pop(nu, None)
    return out


def klimyk_step_reference(rs, state, x):
    """One Klimyk step reflecting every pair: ``sum_mu state[mu] V_mu (x) X``
    as highest weights with signed multiplicities, each shift mu + rho + w
    taken to its dominant conjugate and dropped when that lies on a wall.
    The engine's step reflects only the shifts that leave the chamber."""
    out = {}
    for mu, c in state.items():
        shifted_mu = tuple(m + 1 for m in mu)
        for w, m in x.items():
            dom, sign = dominant_representative(
                rs, tuple(s + y for s, y in zip(shifted_mu, w)))
            if 0 in dom:
                continue
            hw = tuple(d - 1 for d in dom)
            v = out.get(hw, 0) + sign * c * m
            if v:
                out[hw] = v
            else:
                out.pop(hw, None)
    return out


def _convolve(x, y):
    out = {}
    for w1, m1 in x.items():
        for w2, m2 in y.items():
            w = tuple(p + q for p, q in zip(w1, w2))
            out[w] = out.get(w, 0) + m1 * m2
    return {w: m for w, m in out.items() if m}


def alternating_trivial_multiplicity(rs, chi):
    """Multiplicity of the trivial representation in a virtual character.

    chi * sum_w sign(w) e^{w rho} = sum_lam d_lam A_{lam + rho}, and e^rho
    occurs on the right only in A_rho, so d_0 = sum_w sign(w) m_chi(rho - w
    rho).  No weight of chi is ever reflected.
    """
    rho = (1,) * rs.rank
    return sum(sign * chi.get(tuple(r - x for r, x in zip(rho, w)), 0)
               for w, sign in signed_orbit(rs, rho).items())


def convolution_moment(rs, lam, a, b, f_terms):
    """sum_nu c_nu * Haar integral of P_a * conj(P_b) * chi_nu, by full
    weight-system convolution.

    ``a`` and ``b`` are exponent tuples (a_1, a_2, ...); ``f_terms`` is a
    sequence of (highest weight, coefficient).  Weight multiplicities come
    from the Weyl character formula, Adams dilates and duals act on them
    directly, and the trivial multiplicity comes from
    :func:`alternating_trivial_multiplicity`.
    """
    ws = weyl_formula_multiplicities(rs, lam)
    total = {(0,) * rs.rank: 1}
    for exps, sign in ((a, 1), (b, -1)):
        for j, aj in enumerate(exps, start=1):
            dilate = {tuple(sign * j * c for c in w): m
                      for w, m in ws.items()}
            for _ in range(aj):
                total = _convolve(total, dilate)
    return sum(c * alternating_trivial_multiplicity(
                   rs, _convolve(total, weyl_formula_multiplicities(rs, nu)))
               for nu, c in f_terms)


def character_sum(entries, phi):
    """Character at one torus point as a plain sum of weight phases:
    sum_w m(w) exp(2 pi i <w, phi>), for ``entries`` {weight: mult}."""
    return sum(m * cmath.exp(2j * math.pi
                             * sum(c * p for c, p in zip(w, phi)))
               for w, m in entries.items())


def denominator_product(rs, phi):
    """prod over positive roots of 4 sin^2(pi <alpha, phi>), term by term."""
    return math.prod(4 * math.sin(math.pi * sum(c * p for c, p in
                                                zip(alpha, phi))) ** 2
                     for alpha in rs.positive_roots)


def full_grid_points(sizes):
    """Integer coordinates k of every point k_i / sizes[i] of the uniform
    torus grid, as a (prod(sizes), len(sizes)) array."""
    mesh = np.meshgrid(*(np.arange(m) for m in sizes), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(sizes))


def full_grid_quadrature(rs, lam, a, b, n, f_terms, sizes):
    """Moment integrand summed over the whole torus grid of ``sizes``,
    divided by (points * |W|): the Weyl integration formula without the
    W-orbit reduction.

    The integrand is  f * |Delta|^2 * prod_j chi(g^j)^(n a_j)
    * conj(chi(g^j))^(n b_j), with characters summed from the Weyl
    character formula multiplicities and |Delta|^2 as
    prod |1 - exp(2 pi i <alpha, x>)|^2.  Returns the complex value and the
    mean of |integrand| / |W|, the scale its roundoff is relative to.
    """
    x = full_grid_points(sizes) / np.array(sizes, dtype=float)

    def chi(weight, pts):
        mults = weyl_formula_multiplicities(rs, weight)
        w = np.array(list(mults), dtype=float)
        m = np.array(list(mults.values()), dtype=float)
        return np.exp(2j * np.pi * (pts @ w.T)) @ m

    integrand = sum(c * chi(nu, x) for nu, c in f_terms)
    roots = np.array(rs.positive_roots, dtype=float)
    integrand = integrand * np.prod(
        np.abs(1 - np.exp(2j * np.pi * (x @ roots.T))) ** 2, axis=1)
    for j, (aj, bj) in enumerate(zip_longest(a, b, fillvalue=0), start=1):
        if aj or bj:
            dilate = chi(lam, j * x)
            integrand = (integrand * dilate ** (n * aj)
                         * np.conj(dilate) ** (n * bj))
    norm = len(x) * rs.weyl_order
    return integrand.sum() / norm, np.abs(integrand).sum() / norm


@cache
def weight_extent(rs, lam):
    """Per axis i, the largest |mu_i| over the weights mu of the irreducible
    with highest weight ``lam``: every weight lies in conv(W lam), so a
    linear coordinate is extreme on the orbit."""
    orbit = dominant_orbit(rs, tuple(lam))
    return tuple(max(abs(w[i]) for w in orbit) for i in range(rs.rank))


def per_axis_bandwidth(rs, lam, a, b, n, f):
    """Per-axis frequency bound of the moment integrand: on axis i the
    trace factors contribute (a.weight + b.weight) n max |mu_i| over the
    weights of ``lam``, f its largest max |nu_i|, and |Delta|^2 the sum of
    |alpha_i| over the positive roots.  A grid with more points than this
    on every axis integrates the integrand exactly."""
    maxw = weight_extent(rs, lam)
    f_extents = [weight_extent(rs, nu) for nu, _ in f.terms]
    return tuple((a.weight + b.weight) * n * maxw[i]
                 + max((ext[i] for ext in f_extents), default=0)
                 + sum(abs(alpha[i]) for alpha in rs.positive_roots)
                 for i in range(rs.rank))


def alcove_by_filter(rs, m):
    """Grid points k / m in the open fundamental alcove of the simple group
    ``rs``, as an integer array k: every integer z in the alcove simplex
    (z_j = m <alpha_j, x> >= 1, sum_j a_j z_j <= m - 1, a_j the marks of the
    highest root), kept where k = (C^T)^{-1} z is integral.  The test runs
    on integers: with D the common denominator of C^{-1}, D k = (D C^{-1})^T
    z must be divisible by D."""
    marks = max(rs.positive_rootcoords, key=sum)
    z = np.zeros((1, 0), dtype=np.int64)
    room = np.array([m - 1], dtype=np.int64)
    for j, aj in enumerate(marks):
        # z_j runs over 1 .. top, leaving room for z_i = 1 on later axes
        top = np.maximum((room - sum(marks[j + 1:])) // aj, 0)
        rows = np.repeat(np.arange(len(z)), top)
        starts = np.repeat(np.cumsum(top) - top, top)
        zj = np.arange(len(rows), dtype=np.int64) - starts + 1
        z = np.column_stack([z[rows], zj])
        room = room[rows] - aj * zj
    den = math.lcm(*(x.denominator for row in rs.cartan_inv for x in row))
    scaled = np.array([[int(x * den) for x in row] for row in rs.cartan_inv],
                      dtype=np.int64)
    k = z @ scaled
    return k[np.all(k % den == 0, axis=1)] // den


def stacked_alcove_walk(rs, m):
    """The alcove walk of ``torusquad._alcove_factor`` (same points, same
    order), with the whole coefficient matrix c restacked on every axis:
    each axis gathers c's rows, appends its column c_j, and forms z_j's
    base as the product of c with column j of the Hermite form H."""
    marks = rs.positive_rootcoords[-1]
    h, u = rs.coroot_grid_basis
    c = np.zeros((1, 0), dtype=np.int64)
    room = np.array([m - 1], dtype=np.int64)
    for j, aj in enumerate(marks):
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


def two_angle_phase_tables(m):
    """``torusquad._phase_tables(m)`` with each table from its own angle:
    cos + i sin of 2 pi t / m, -1 at the half turn, and 4 sin^2(pi t / m),
    for t = 0 .. m / 2, mirrored to t = m - 1."""
    k = np.arange(m // 2 + 1)
    circle = np.exp(1j * (2 * math.pi * k / m))
    if m % 2 == 0:
        circle[-1] = -1
    four_sin_sq = 4 * np.sin(math.pi * k / m) ** 2
    back = slice((m - 1) // 2, 0, -1)
    return (np.concatenate((circle, circle[back].conj())),
            np.concatenate((four_sin_sq, four_sin_sq[back])))


def mehta_quadrature(rs, h, extra_nodes=0):
    """Gauss-Hermite evaluation of the Gaussian kappa^2 integral.

    Substituting x = L^{-T} y for the Cholesky factor L of ``h`` turns the
    integral into a standard-Gaussian expectation of a polynomial of degree
    2 * #positive roots, which a tensor Gauss-Hermite rule with
    #positive + 1 (+ extra_nodes) points per axis integrates exactly.  Meant
    for rank <= 3 (tensor grids grow fast).  ``h`` is any symmetric
    positive definite form; unlike the closed form, it need not commute
    with the Weyl action.
    """
    chol = np.linalg.cholesky(np.array(h, dtype=float))
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
