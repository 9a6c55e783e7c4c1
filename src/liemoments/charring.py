"""Exact character-ring route to moments of traces.

A product of traces  prod_j Tr(rho(g^j))^{a_j} * prod_j conj(Tr(rho(g^j)))^{b_j}
is the character of a (virtual) representation built from Adams operations,
duals and tensor products; its Haar integral is the multiplicity of the
trivial representation.  The exact engine never builds that weight system:
it applies one Klimyk step per trace factor to a state of highest weights
with signed multiplicities (:func:`klimyk_step`), and pairs two such
decompositions for the two-sided moment (:func:`moment_sequence`, which
extends one chain across a whole N schedule, on each simple factor of a
product group separately); a one-N value is the one-element schedule
(:func:`exact_moment`).  No route calls the weight-system convolution
(:func:`product`, :func:`product_all`, :func:`moment_weight_system`) or
:func:`trivial_multiplicity`: they are the tests' reference for the engine,
and the benchmark traces them.  Everything here is exact integer
arithmetic.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from operator import add, mul, neg

from . import rootsys
from .repweights import WeightSystem, check_dominant_integral, weight_system


# The exact route's work budget: pairs per Klimyk step, and pairs and support
# per convolution (product).
_SUPPORT_CAP = 10 ** 7


class SupportCapExceeded(RuntimeError):
    """The exact route's budget refusal: raised before a Klimyk step whose
    work (highest weights in the state times weights of the factor) exceeds
    ``_SUPPORT_CAP``.  The character-ring :func:`product` raises it for its
    own pair budget too."""


@dataclass(frozen=True)
class CycleType:
    """Exponent vector (a_1, a_2, ...): a_j copies of the j-th power trace.

    Trailing zeros are not significant; ``CycleType((2,))`` equals
    ``CycleType((2, 0))``.  Its scalars do not depend on N and are taken
    once, when the type is built:

    - ``size``: the number of trace factors, sum a_j;
    - ``weight``: the total power of the group element, sum j a_j;
    - ``quad``: the quadratic weight sum j^2 a_j (the Laplace scale);
    - ``gcd_support``: the gcd of the j with a_j > 0 (0 for the empty
      type).
    """
    exps: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exps)
        if any(e < 0 for e in exps):
            raise rootsys.ConfigurationError(
                f"cycle exponents must be >= 0, got {exps}")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        powers = range(1, len(exps) + 1)
        put = object.__setattr__
        put(self, "exps", exps)
        put(self, "size", sum(exps))
        put(self, "weight", sum(map(mul, powers, exps)))
        put(self, "quad", sum(j * j * a for j, a in zip(powers, exps)))
        put(self, "gcd_support",
            math.gcd(*(j for j, a in zip(powers, exps) if a)))

    @staticmethod
    def parse(text):
        """Parse ``"2"`` or ``"0,1"`` (a_1, a_2, ... comma separated)."""
        text = text.strip()
        if not text:
            return CycleType(())
        if not re.fullmatch(r"\d+(\s*,\s*\d+)*", text):
            raise rootsys.ConfigurationError(f"bad cycle type {text!r}")
        return CycleType(tuple(int(t) for t in text.split(",")))

    def scaled(self, n):
        """The type with every exponent multiplied by n."""
        return CycleType(tuple(n * a for a in self.exps))

    def support(self):
        return tuple(j for j, a in enumerate(self.exps, start=1) if a)


def adams(ws, j):
    """Adams operation: dilate every weight by j.

    For j >= 2 the result is in general only a virtual character.
    """
    if j < 1:
        raise ValueError(f"Adams degree must be >= 1, got {j}")
    if j == 1:
        return ws
    return WeightSystem({tuple(j * c for c in w): m
                         for w, m in ws.entries.items()})


def dual(ws):
    """Weight system of the dual: negate every weight."""
    return WeightSystem({tuple(-c for c in w): m
                         for w, m in ws.entries.items()})


def product(ws1, ws2):
    """Convolution of weight systems (character of the tensor product)."""
    a, b = ws1.entries, ws2.entries
    if len(a) > len(b):
        a, b = b, a
    if len(a) * len(b) > _SUPPORT_CAP:
        raise SupportCapExceeded(
            f"convolution support may reach {len(a) * len(b)}, "
            f"cap is {_SUPPORT_CAP}")
    out = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            v = out.get(w, 0) + m1 * m2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    if len(out) > _SUPPORT_CAP:
        raise SupportCapExceeded(
            f"convolution support {len(out)} exceeds cap {_SUPPORT_CAP}")
    return WeightSystem(out)


def product_all(factors, rank):
    """Convolve many weight systems, smallest supports first (heap order)."""
    heap = [(ws.support_size, i, ws) for i, ws in enumerate(factors)]
    heapq.heapify(heap)
    counter = len(heap)
    if not heap:
        return WeightSystem.trivial(rank)
    while len(heap) > 1:
        _, _, w1 = heapq.heappop(heap)
        _, _, w2 = heapq.heappop(heap)
        w = product(w1, w2)
        heapq.heappush(heap, (w.support_size, counter, w))
        counter += 1
    return heap[0][2]


def klimyk_step(rs, state, x, step=1):
    """Decompose ``sum_mu state[mu] V_mu (x) X`` into irreducibles.

    ``state`` maps highest weights to signed multiplicities and ``x`` maps
    weights to signed multiplicities of a W-invariant (possibly virtual)
    character X.  Klimyk's formula gives
    V_mu (x) X = sum_w m_X(w) * sign * V_{dom(mu + w + rho) - rho}, with the
    terms whose shift lands on a chamber wall dropped.  Refuses before any
    work when |state| * |support(X)| exceeds ``_SUPPORT_CAP``; ``step`` only
    labels the refusal.

    Most shifts s = mu + rho + w need no reflection.  With the depth
    d = max over w of max_i(-w_i) (0 for the empty X), every shift of a mu
    with min(mu) >= d is regular dominant, so its pairs add m_X(w) at
    mu + w with no test.  For the other mu, a shift with every coordinate
    positive adds directly, one with a zero coordinate lies on a wall (as
    does its dominant conjugate) and is dropped, and only the rest are
    reflected by :func:`rootsys.dominant_representative`.
    """
    pairs = len(state) * len(x)
    if pairs > _SUPPORT_CAP:
        raise SupportCapExceeded(
            f"Klimyk step {step}: state of {len(state)} highest weights "
            f"times {len(x)} weights is {pairs} pairs, over support_cap "
            f"{_SUPPORT_CAP}")
    terms = list(x.items())
    depth = max((max(map(neg, w)) for w in x), default=0)
    reflect = rootsys.dominant_representative
    out = {}
    get = out.get
    for mu, c in state.items():
        if min(mu) >= depth:
            for w, m in terms:
                hw = tuple(map(add, mu, w))
                out[hw] = get(hw, 0) + c * m
            continue
        shifted_mu = tuple(m + 1 for m in mu)
        for w, m in terms:
            s = tuple(map(add, shifted_mu, w))
            if min(s) > 0:
                hw = tuple(map(add, mu, w))
                out[hw] = get(hw, 0) + c * m
            elif 0 not in s:
                dom, sign = reflect(rs, s)
                if 0 not in dom:
                    hw = tuple(d - 1 for d in dom)
                    out[hw] = get(hw, 0) + sign * c * m
    return {hw: v for hw, v in out.items() if v}


def trivial_multiplicity(rs, ws):
    """Multiplicity of the trivial representation in a virtual character:
    one :func:`klimyk_step` from the trivial representation."""
    zero = (0,) * rs.rank
    return klimyk_step(rs, {zero: 1}, ws.entries).get(zero, 0)


def _power_factors(ws, a):
    """Adams dilates of ``ws``, one per trace factor of the cycle type."""
    factors = []
    for j, aj in enumerate(a.exps, start=1):
        factors.extend([adams(ws, j)] * aj)
    return factors


def moment_weight_system(rs, lam, a, b=CycleType(())):
    """Weight system of prod_j Tr(g^j)^{a_j} * conj(Tr(g^j))^{b_j}."""
    ws = weight_system(rs, lam)
    factors = _power_factors(ws, a) + _power_factors(dual(ws), b)
    return product_all(factors, rs.rank)


def moment_sequence(rs, lam, a, b, ns, weights=None):
    """Haar integrals of P_{a n} * conj(P_{b n}) * chi_nu for each n in
    ``ns`` and each nu in ``weights``, from one Klimyk chain per side and
    simple factor.

    P_a = prod_j Tr(g^j)^{a_j} in the irreducible with highest weight
    ``lam``; ``weights`` defaults to the trivial weight alone.  On
    G = G_1 x ... x G_k the irreducible is the outer tensor product of the
    lam_k, so P_a and chi_nu are products over the factors and each
    integral is the product of the factor integrals at the projections
    nu_k of nu: every factor runs its own chains
    (:func:`rootsys.simple_factors`) for its distinct nu_k, and
    ``_SUPPORT_CAP`` bounds the pairs of each factor's steps.

    On one factor, with dec(P) the decomposition of P into irreducibles,
    each integral is the inner product
    sum_mu dec(P_{a n} (x) V_nu)[mu] * dec(P_{b n})[mu]:  one extra Klimyk
    step and a lookup per nu.  dec(P_{a n}) is dec(P_{a (n-1)}) extended by
    the |a| trace factors of P_a, so a strictly increasing schedule costs
    max(ns) * (|a| + |b|) chain steps per factor, gaps included;
    dec(P_{b n}) is dec(P_{a n}) when a == b.  Steps are numbered along
    each chain, whose factors come in rounds of P_a's factors, one round
    per unit of n.  For a cycle type with one part (a_j = 0 for all but one
    j) step k is the same step with the same state as in the one-element
    schedule ``ns = (n,)``; with two or more parts the order of the trace
    factors, and so the step at which a cap refuses, differs from that of
    ``a.scaled(n)`` (all Tr(g) factors first), while the integers agree.

    Yields, per n, a list of exact integers (one per nu) or the
    :class:`SupportCapExceeded` that refused the row; on a product group
    its message names the factor.  A refusal inside a chain refuses that
    row and every later one, with its own message (the a side's first, as
    a one-element schedule would raise it, and the b side is then no longer
    built; the other factors' chains are no longer extended); a refusal in
    a nu step refuses its own row only.  A row with no chain refusal takes
    the message of the first refusing factor in factor order.
    """
    ns = tuple(ns)
    lam = check_dominant_integral(rs, lam)
    nus = [check_dominant_integral(rs, nu)
           for nu in ([(0,) * rs.rank] if weights is None else weights)]
    live = []   # (datum, rows, index of each nu_k in the factor's list)
    for block, rs_k in rootsys.simple_factors(rs):
        part = slice(block.start, block.stop)
        projections = [nu[part] for nu in nus]
        distinct = list(dict.fromkeys(projections))
        rows = _chain_rows(rs_k, lam[part], a, b, ns, distinct)
        live.append((rs_k, rows, [distinct.index(p) for p in projections]))
    for _ in ns:
        row, refusal = [1] * len(nus), None
        for rs_k, rows, index in live:
            terms, chain = next(rows)
            if isinstance(terms, SupportCapExceeded):
                if refusal is None or chain:
                    refusal = terms if rs_k is rs else SupportCapExceeded(
                        f"{rs_k.describe()} factor: {terms}")
                if chain:   # it answers every later row
                    live = [(rs_k, rows, index)]
                    break
            elif refusal is None:
                row = [r * terms[i] for r, i in zip(row, index)]
        yield row if refusal is None else refusal


def _chain_rows(rs, lam, a, b, ns, weights):
    """:func:`moment_sequence` on the datum ``rs`` taken whole, for
    dominant integral ``weights``.  Yields per n the row (or its refusal)
    and whether a chain refused it, which answers every later row too."""
    zero = (0,) * rs.rank
    ws = weight_system(rs, lam)
    sides = [_power_factors(ws, a)]
    if b != a:
        sides.append(_power_factors(ws, b))
    decs = [{zero: 1} for _ in sides]   # dec(P^done), or its refusal
    prev = -1
    for n in ns:
        if n <= prev:
            raise ValueError(
                f"schedule must be strictly increasing and >= 0: {ns}")
        done, prev = max(prev, 0), n
        for i, factors in enumerate(sides):
            if isinstance(decs[0], SupportCapExceeded):
                break   # its refusal answers every later row: stop building
            if isinstance(decs[i], SupportCapExceeded):
                continue
            try:
                for step, x in enumerate(factors * (n - done),
                                         start=done * len(factors) + 1):
                    decs[i] = klimyk_step(rs, decs[i], x.entries, step)
            except SupportCapExceeded as exc:
                decs[i] = exc
        refusal = next((d for d in decs if isinstance(d, SupportCapExceeded)),
                       None)
        if refusal is not None:
            yield refusal, True
            continue
        dec_a, dec_b = decs[0], decs[-1]
        out = []
        for nu in weights:
            left = dec_a
            if nu != zero:
                try:
                    left = klimyk_step(rs, dec_a,
                                       weight_system(rs, nu).entries,
                                       step=n * a.size + 1)
                except SupportCapExceeded as exc:
                    out = exc
                    break
            if len(left) > len(dec_b):
                left, right = dec_b, left
            else:
                right = dec_b
            out.append(sum(c * right.get(mu, 0) for mu, c in left.items()))
        yield out, False


def exact_moment(rs, lam, a, b=CycleType(())):
    """Haar integral of P_a * conj(P_b), P_a = prod_j Tr(g^j)^{a_j} in the
    irreducible with highest weight ``lam``, as an exact integer: the
    one-element schedule ``ns = (1,)`` of :func:`moment_sequence`, with its
    refusal raised.  With a = (n) and b empty it is the dimension of the
    invariant subspace of the n-th tensor power of V_lam."""
    (row,) = moment_sequence(rs, lam, a, b, (1,))
    if isinstance(row, SupportCapExceeded):
        raise row
    return row[0]
