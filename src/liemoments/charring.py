"""Exact character-ring route to moments of traces.

A product of traces  prod_j Tr(rho(g^j))^{a_j} * prod_j conj(Tr(rho(g^j)))^{b_j}
is the character of a (virtual) representation built from Adams operations,
duals and tensor products; its Haar integral is the multiplicity of the
trivial representation.  The exact engine never builds that weight system:
it applies one Klimyk step per trace factor to a state of highest weights
with signed multiplicities (:func:`klimyk_step`), and pairs two such
decompositions for the two-sided moment (:func:`moment_sequence`, which
extends one chain per side across a whole N schedule, on each simple
factor of a product group separately; each row reads the chains at
prefixes, a class-function term's step that is a chain's next step
included); a one-N value is the one-element schedule
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


def klimyk_step(rs, state, x, step=1, memo=None):
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

    ``memo`` is a chain's :class:`_Memo` for ``x`` (:func:`_chain_rows`):
    the transition dec(V_mu (x) X) of such a mu, found once, is read from
    it at every later step with the same X.  Without one nothing is
    stored.
    """
    pairs = len(state) * len(x)
    if pairs > _SUPPORT_CAP:
        raise SupportCapExceeded(
            f"Klimyk step {step}: state of {len(state)} highest weights "
            f"times {len(x)} weights is {pairs} pairs, over support_cap "
            f"{_SUPPORT_CAP}")
    memo = _Memo(x, [0], {}) if memo is None else memo
    terms, depth, canon = memo.terms, memo.depth, memo.canon
    reflect = rootsys.dominant_representative
    out = {}
    get = out.get
    for mu, c in state.items():
        if min(mu) >= depth:
            for w, m in terms:
                hw = tuple(map(add, mu, w))
                out[hw] = get(hw, 0) + c * m
            continue
        moves = memo.get(mu)
        if moves is None:
            found = {}
            shifted_mu = tuple(m + 1 for m in mu)
            for w, m in terms:
                s = tuple(map(add, shifted_mu, w))
                if min(s) > 0:
                    hw = tuple(map(add, mu, w))
                elif 0 in s:
                    continue
                else:
                    dom, sign = reflect(rs, s)
                    if 0 in dom:
                        continue
                    hw, m = tuple(d - 1 for d in dom), sign * m
                found[hw] = found.get(hw, 0) + m
            moves = tuple(t for hw, v in found.items() if v
                          for t in (canon.setdefault(hw, hw), v))
            if len(moves) <= 2 * memo.room[0]:
                memo[mu] = moves
                memo.room[0] -= len(moves) // 2
        flat = iter(moves)
        for hw, v in zip(flat, flat):
            out[hw] = get(hw, 0) + c * v
    return {hw: v for hw, v in out.items() if v}


class _Memo(dict):
    """One chain's wall-adjacent transitions for the character X with
    weights ``x``, whose terms and depth it takes once: each highest weight
    mu with min(mu) below the depth maps to dec(V_mu (x) X) as a flat
    tuple (hw_1, m_1, hw_2, m_2, ...).  The chain's memos share
    ``room``, a one-element list of how many more (hw, m) pairs they may
    store (``_SUPPORT_CAP`` in all; later transitions are not stored), and
    ``canon``, which keeps one tuple per stored highest weight."""

    def __init__(self, x, room, canon, seed=()):
        super().__init__(seed)
        self.terms = list(x.items())
        self.depth = max((max(map(neg, w)) for w in x), default=0)
        self.room, self.canon = room, canon


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
    dec(P_{b n}) is dec(P_{a n}) when a == b.  Each side is one chain,
    its factors in rounds, and row n reads the a chain at prefix n |a|
    and the b chain at n |b|.  When nu is lam on the factor and
    a_1 >= 1, the step dec(P_{a n}) (x) V_nu is step n |a| + 1 of the a
    chain, from the same state with the same memo: the row reads the a
    chain at n |a| + 1 and the next row extends it from there, so the
    step is taken once, and a refused one is the chain's state.  The
    factor's steps share one memo per character X (lam's Adams factor of
    each degree, each nu): a highest weight below X's depth is reflected
    against X only the first time it appears (:func:`klimyk_step`), and
    the memos of V_lam and V_nu start with dec(V_0 (x) V_kappa) =
    {kappa: 1}, so step 1 from the trivial state reflects nothing.  The
    memos hold at most
    ``_SUPPORT_CAP`` pairs per factor (past that, transitions are found
    again and not stored) and last as long as the call.  Steps are
    numbered along each chain, whose factors come in rounds of P_a's
    factors, one round per unit of n, so step k is the same step with the
    same state as in the one-element schedule ``ns = (n,)``, which every
    one-N route call is.  Only :func:`exact_moment` on ``a.scaled(n)``
    takes all Tr(g) factors first, and so can refuse at another step, with
    the same integers.

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
    room, canon, memos = [_SUPPORT_CAP], {}, {}

    def memo(key, x):
        """The memo of V_key for a highest weight ``key``, seeded with
        dec(V_0 (x) V_key) = {key: 1}, or of the virtual psi^key(V_lam)."""
        if key not in memos:
            seed = {}
            if isinstance(key, tuple) and room[0]:
                seed, room[0] = {zero: (key, 1)}, room[0] - 1
            memos[key] = _Memo(x, room, canon, seed)
        return memos[key]

    def side(t):
        """The chain of P_t: its factors in round order, the steps taken
        and its state (dec(P) of the factors stepped, or the
        :class:`SupportCapExceeded` that stopped it)."""
        factors = []
        for j, aj in enumerate(t.exps, start=1):
            x = adams(ws, j).entries
            factors += [(x, memo(lam if j == 1 else j, x))] * aj
        return [factors, 0, {zero: 1}]

    def at(chain, k):
        """``chain``'s state after its first k steps, for k at least the
        steps taken: extends it a factor at a time, round after round; a
        refused step is its state from then on."""
        factors, done, state = chain
        while done < k and not isinstance(state, SupportCapExceeded):
            x, x_memo = factors[done % len(factors)]
            done += 1
            try:
                state = klimyk_step(rs, state, x, done, x_memo)
            except SupportCapExceeded as exc:
                state = exc
        chain[1:] = done, state
        return state

    chain_a = side(a)
    chain_b = chain_a if b == a else side(b)
    # an f-term whose memo is that of the a chain's next factor (nu = lam,
    # a_1 >= 1) reads the a chain one step on, and the next row goes on
    # from there; any other term is a one-step chain from dec(P_{a n})
    lead = chain_a[0][0][1] if chain_a[0] else None
    prev = -1
    for n in ns:
        if n <= prev:
            raise ValueError(
                f"schedule must be strictly increasing and >= 0: {ns}")
        prev = n
        dec_a = at(chain_a, n * a.size)
        # a refused a side answers every later row: b is not built further
        dec_b = (dec_a if isinstance(dec_a, SupportCapExceeded)
                 else at(chain_b, n * b.size))
        if isinstance(dec_b, SupportCapExceeded):
            yield dec_b, True
            continue
        out = []
        for nu in weights:
            left = dec_a
            if nu != zero:
                x = weight_system(rs, nu).entries
                x_memo = memo(nu, x)
                left = at(chain_a if x_memo is lead
                          else [[(x, x_memo)], n * a.size, dec_a],
                          n * a.size + 1)
                if isinstance(left, SupportCapExceeded):
                    out = left
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
