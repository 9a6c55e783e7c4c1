"""Property tests of the Klimyk engine against an independent oracle.

``oracles.convolution_moment`` convolves full weight systems taken from the
Weyl character formula and reads off the trivial multiplicity by an
alternating sum over the orbit of rho; the engine tracks highest weights
with Freudenthal multiplicities.  The two routes share only root data.
One Klimyk step is also checked against ``oracles.klimyk_step_reference``,
which reflects every pair: it shares the reflection with the engine, so it
checks the step's short cuts.  The leading terms of the asymptotic route
are checked against the conjugation identity the exact route satisfies.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments import charring
from liemoments.asymptotics import (ClassFunction, leading_term_I,
                                    leading_term_K)
from liemoments.charring import (CycleType, SupportCapExceeded, adams, dual,
                                 exact_moment, klimyk_step, moment_sequence)
from liemoments.repweights import weight_system
from liemoments.rootsys import (build_root_system, dominant_representative,
                                simple_factors)

import oracles

GROUPS = {spec: build_root_system(spec)
          for spec in ("A1", "A2", "B2", "G2", "A1xA1")}
# Trace factors on both sides after scaling by N (n = 1 is always allowed);
# bounds the oracle's convolution cost.
MAX_FACTORS = 6


def small_weights(rank, top=1):
    return st.tuples(*[st.integers(0, top)] * rank)


def cycle_types(max_len=2, max_exp=2):
    return st.lists(st.integers(0, max_exp), min_size=0,
                    max_size=max_len).map(tuple)


@st.composite
def moment_cases(draw):
    spec = draw(st.sampled_from(sorted(GROUPS)))
    rs = GROUPS[spec]
    lam = draw(small_weights(rs.rank))
    a = CycleType(draw(cycle_types()))
    b = CycleType(draw(cycle_types()))
    n = draw(st.integers(1, max(1, min(4, MAX_FACTORS
                                       // max(1, a.size + b.size)))))
    terms = draw(st.lists(st.tuples(small_weights(rs.rank),
                                    st.integers(-3, 3)),
                          min_size=1, max_size=2))
    return rs, lam, a.scaled(n), b.scaled(n), terms


@settings(max_examples=100)
@given(moment_cases())
def test_engine_matches_convolution_oracle(case):
    rs, lam, a, b, terms = case
    (mults,) = moment_sequence(rs, lam, a, b, (1,), [nu for nu, _ in terms])
    got = sum(c * m for (_, c), m in zip(terms, mults))
    assert got == oracles.convolution_moment(rs, lam, a.exps, b.exps, terms)


@settings(max_examples=30)
@given(lam1=small_weights(1, top=2), lam2=small_weights(2),
       a=cycle_types(), b=cycle_types(), n=st.integers(1, 3))
def test_moment_factors_over_product_group(lam1, lam2, a, b, n):
    a, b = CycleType(a).scaled(n), CycleType(b).scaled(n)
    whole = exact_moment(build_root_system("A1xA2"), lam1 + lam2, a, b)
    assert whole == (exact_moment(build_root_system("A1"), lam1, a, b)
                     * exact_moment(build_root_system("A2"), lam2, a, b))


@st.composite
def sequence_cases(draw):
    """A moment with a whole schedule: gapped, possibly starting at 0, with
    ``b == a`` (one shared chain) about half the time."""
    spec = draw(st.sampled_from(sorted(GROUPS)))
    rs = GROUPS[spec]
    lam = draw(small_weights(rs.rank))
    a = CycleType(draw(cycle_types()))
    b = a if draw(st.booleans()) else CycleType(draw(cycle_types()))
    top = max(1, MAX_FACTORS // max(1, a.size + b.size))
    ns = tuple(sorted(draw(st.sets(st.integers(0, top), min_size=1,
                                   max_size=3))))
    weights = draw(st.lists(small_weights(rs.rank), min_size=1, max_size=2))
    return rs, lam, a, b, ns, weights


@settings(max_examples=60)
@given(sequence_cases())
@example((GROUPS["A1"], (1,), CycleType((1,)), CycleType(()), (2, 3, 7),
          [(0,), (2,)]))
@example((GROUPS["G2"], (1, 0), CycleType((1,)), CycleType((1,)), (1, 3),
          [(0, 0), (1, 0)]))
def test_moment_sequence_matches_oracle_at_every_n(case):
    rs, lam, a, b, ns, weights = case
    rows = list(moment_sequence(rs, lam, a, b, ns, weights))
    assert len(rows) == len(ns)
    for n, mults in zip(ns, rows):
        assert mults == [oracles.convolution_moment(
            rs, lam, a.scaled(n).exps, b.scaled(n).exps, [(nu, 1)])
            for nu in weights]


SWAP_GROUPS = {spec: build_root_system(spec)
               for spec in ("A2", "B2", "G2", "A1xA2")}


def star(rs, mu):
    """mu* = dom(-mu), the highest weight of the dual irreducible."""
    return dominant_representative(rs, tuple(-c for c in mu))[0]


@st.composite
def swap_cases(draw):
    spec = draw(st.sampled_from(sorted(SWAP_GROUPS)))
    rs = SWAP_GROUPS[spec]
    lam = draw(small_weights(rs.rank))
    a = CycleType(draw(cycle_types()))
    b = CycleType(draw(cycle_types()))
    n = draw(st.integers(1, max(1, min(3, MAX_FACTORS
                                       // max(1, a.size + b.size)))))
    nus = draw(st.lists(small_weights(rs.rank, top=2), min_size=1,
                        max_size=3))
    return rs, lam, a.scaled(n), b.scaled(n), nus


@settings(max_examples=60)
@given(swap_cases())
@example((SWAP_GROUPS["A2"], (0, 1), CycleType((1,)), CycleType((0, 1)),
          [(1, 2), (2, 1), (2, 0)]))
@example((SWAP_GROUPS["A1xA2"], (0, 0, 1), CycleType((2,)), CycleType((1,)),
          [(0, 0, 2), (0, 2, 0)]))
def test_swapping_a_and_b_is_conjugation(case):
    # K(lam; a, b; nu) is real, so it equals its conjugate K(lam; b, a; nu*);
    # the trace of lam* is the conjugate trace of lam, so it also equals
    # K(lam*; b, a; nu)
    rs, lam, a, b, nus = case
    (want,) = moment_sequence(rs, lam, a, b, (1,), nus)
    (swapped,) = moment_sequence(rs, lam, b, a, (1,),
                                 [star(rs, nu) for nu in nus])
    (conjugated,) = moment_sequence(rs, star(rs, lam), b, a, (1,), nus)
    assert swapped == want
    assert conjugated == want


# The leading terms need root data alone, so A3, D5 and E6, whose duality
# lam -> lam* is not the identity, join at no weight-system cost.
ASYM_GROUPS = {**SWAP_GROUPS, **{spec: build_root_system(spec)
                                 for spec in ("A3", "D5", "E6")}}


@st.composite
def asymptotic_swap_cases(draw):
    """A regular lam, one-sided powers a of gcd 1, two-sided powers b of
    a's weight, a small f and an index N."""
    rs = ASYM_GROUPS[draw(st.sampled_from(sorted(ASYM_GROUPS)))]
    lam = tuple(c + 1 for c in draw(small_weights(rs.rank)))
    a = CycleType((draw(st.integers(1, 2)), draw(st.integers(0, 2))))
    twos = draw(st.integers(0, a.weight // 2))
    b = CycleType((a.weight - 2 * twos, twos))
    terms = draw(st.lists(st.tuples(
        small_weights(rs.rank, top=2),
        st.integers(-3, 3) | st.sampled_from([0.5, -1.25])),
        min_size=1, max_size=3))
    return rs, lam, a, b, terms, draw(st.integers(1, 12))


@settings(max_examples=60)
@given(asymptotic_swap_cases())
@example((ASYM_GROUPS["A2"], (1, 2), CycleType((1, 1)), CycleType((3,)),
          [((1, 2), 2), ((2, 1), 0.5), ((0, 0), -1)], 5))
@example((ASYM_GROUPS["E6"], (1, 1, 2, 1, 1, 1), CycleType((1,)),
          CycleType((1,)),
          [((1, 0, 0, 0, 0, 0), 3), ((0, 0, 0, 0, 0, 0), 1)], 3))
def test_leading_terms_are_conjugation_invariant(case):
    # the asymptotic twin of test_swapping_a_and_b_is_conjugation: with
    # k_a = k_b, K(lam; a, b; f) = K(lam; b, a; f*) = K(lam*; b, a; f),
    # and one-sided, I(lam*; a; f*) = I(lam; a; f), bit for bit
    rs, lam, a, b, terms, n = case
    f = ClassFunction(tuple(terms))
    f_star = ClassFunction(tuple((star(rs, nu), c) for nu, c in terms))
    want = leading_term_K(rs, lam, a, b, n, f=f).to_dict()
    assert leading_term_K(rs, lam, b, a, n, f=f_star).to_dict() == want
    assert leading_term_K(rs, star(rs, lam), b, a, n, f=f).to_dict() == want
    assert (leading_term_I(rs, star(rs, lam), a, n, f=f_star)
            == leading_term_I(rs, lam, a, n, f=f))


STEP_GROUPS = {spec: build_root_system(spec)
               for spec in ("A1", "A2", "A3", "B2", "C3", "G2", "A1xA2")}


@st.composite
def klimyk_cases(draw):
    """A group, a W-invariant character X (a weight system, an Adams dilate,
    a dual, negated or empty) and a state whose highest weights lie both
    above and below the depth of X."""
    rs = STEP_GROUPS[draw(st.sampled_from(sorted(STEP_GROUPS)))]
    ws = weight_system(rs, draw(small_weights(rs.rank)))
    kind = draw(st.sampled_from(["plain", "adams", "dual", "empty"]))
    if kind == "adams":
        ws = adams(ws, draw(st.integers(2, 3)))
    elif kind == "dual":
        ws = dual(ws)
    x = {} if kind == "empty" else dict(ws.entries)
    if draw(st.booleans()):
        x = {w: -m for w, m in x.items()}
    depth = max((max(-c for c in w) for w in x), default=0)
    state = draw(st.dictionaries(small_weights(rs.rank, top=depth + 2),
                                 st.integers(-3, 3), max_size=6))
    return rs, state, x


@settings(max_examples=150)
@given(klimyk_cases())
@example((STEP_GROUPS["A2"], {}, weight_system(STEP_GROUPS["A2"],
                                                (1, 1)).entries))
@example((STEP_GROUPS["B2"], {(0, 0): 2, (0, 3): -1, (3, 3): 1}, {}))
@example((STEP_GROUPS["G2"], {(0, 1): 1, (2, 2): -1, (4, 4): 3},
          dict(adams(weight_system(STEP_GROUPS["G2"], (1, 0)), 2).entries)))
def test_klimyk_step_matches_reflect_every_pair(case):
    rs, state, x = case
    assert klimyk_step(rs, state, x) == oracles.klimyk_step_reference(
        rs, state, x)


def reference_chain(rs, lam, a, b, n, weights):
    """The row of ``moment_sequence`` at n from steps that reflect every
    pair: dec(P_{a n}) and dec(P_{b n}) built factor by factor from the
    trivial state, one more step per nu, then the pairing."""
    ws = weight_system(rs, lam)
    decs = []
    for t in (a.scaled(n), b.scaled(n)):
        dec = {(0,) * rs.rank: 1}
        for j, aj in enumerate(t.exps, start=1):
            for _ in range(aj):
                dec = oracles.klimyk_step_reference(rs, dec,
                                                    adams(ws, j).entries)
        decs.append(dec)
    dec_a, dec_b = decs
    row = []
    for nu in weights:
        left = oracles.klimyk_step_reference(rs, dec_a,
                                             weight_system(rs, nu).entries)
        row.append(sum(c * dec_b.get(mu, 0) for mu, c in left.items()))
    return row


@st.composite
def chain_cases(draw):
    """A schedule on STEP_GROUPS: gapped, Adams degree 2 on either side,
    b == a about a third of the time, and nu = lam about half the time, so
    a nu step shares the memo of lam's degree-1 factor."""
    rs = STEP_GROUPS[draw(st.sampled_from(sorted(STEP_GROUPS)))]
    lam = draw(small_weights(rs.rank))
    a = CycleType(draw(cycle_types()))
    b = a if draw(st.integers(0, 2)) == 0 else CycleType(draw(cycle_types()))
    top = max(1, (MAX_FACTORS if rs.rank < 3 else 4)
              // max(1, a.size + b.size))
    ns = tuple(sorted(draw(st.sets(st.integers(0, top), min_size=1,
                                   max_size=3))))
    weights = draw(st.lists(small_weights(rs.rank), min_size=1, max_size=2))
    if draw(st.booleans()):
        weights.append(lam)
    return rs, lam, a, b, ns, weights


@settings(max_examples=60)
@given(chain_cases())
@example((STEP_GROUPS["A3"], (1, 0, 1), CycleType((1, 1)), CycleType((0, 1)),
          (1, 3), [(0, 0, 0), (1, 0, 1)]))
@example((STEP_GROUPS["C3"], (1, 0, 1), CycleType((1,)), CycleType((1,)),
          (0, 2, 4), [(1, 0, 1), (0, 1, 0)]))
@example((STEP_GROUPS["A1xA2"], (1, 1, 0), CycleType((0, 1)),
          CycleType((2,)), (1, 2), [(1, 1, 0), (0, 1, 1)]))
@example((STEP_GROUPS["G2"], (1, 1), CycleType((1,)), CycleType(()),
          (2, 5), [(1, 1), (0, 0)]))
def test_memoised_chain_matches_steps_that_reflect_every_pair(case):
    # the chain reads wall-adjacent transitions from its memo; the
    # reference reflects every pair of every step, and the convolution
    # oracle shares no step with either (taken where it is cheap)
    rs, lam, a, b, ns, weights = case
    rows = list(moment_sequence(rs, lam, a, b, ns, weights))
    for n, row in zip(ns, rows):
        assert row == reference_chain(rs, lam, a, b, n, weights)
        if rs.rank < 3 and n * (a.size + b.size) <= 4:
            assert row == [oracles.convolution_moment(
                rs, lam, a.scaled(n).exps, b.scaled(n).exps, [(nu, 1)])
                for nu in weights]


SHARE_GROUPS = {spec: build_root_system(spec)
                for spec in ("A1", "A2", "B2", "G2", "A3", "A1xA2")}


def one_part_types():
    """a_j copies of Tr(g^j) for one j: the types whose sweep steps are
    those of their one-N calls, refusals included."""
    return st.builds(lambda j, aj: CycleType((0,) * (j - 1) + (aj,)),
                     st.integers(1, 2), st.integers(1, 2))


@st.composite
def shared_step_cases(draw):
    """A gapped schedule whose f has a term equal to lam on some simple
    factor (so with a_1 >= 1 its step there is the chain's next one), and
    a support cap that may refuse part way."""
    rs = SHARE_GROUPS[draw(st.sampled_from(sorted(SHARE_GROUPS)))]
    lam = draw(small_weights(rs.rank))
    a = draw(one_part_types())
    b = draw(st.sampled_from(["same", "empty", "other"]))
    b = {"same": a, "empty": CycleType(())}.get(b) or draw(one_part_types())
    weights = draw(st.lists(small_weights(rs.rank), min_size=1, max_size=3))
    blocks = [block for block, _ in simple_factors(rs)]
    block = draw(st.sampled_from(blocks))
    i = draw(st.integers(0, len(weights) - 1))
    weights[i] = tuple(lam[p] if p in block else c
                       for p, c in enumerate(weights[i]))
    top = max(1, (MAX_FACTORS if rs.rank < 3 else 4)
              // (a.size + b.size))
    ns = tuple(sorted(draw(st.sets(st.integers(0, top + 1), min_size=1,
                                   max_size=4))))
    cap = draw(st.integers(1, 300) | st.just(charring._SUPPORT_CAP))
    return rs, lam, a, b, ns, list(dict.fromkeys(weights)), cap


def _text(row):
    return str(row) if isinstance(row, SupportCapExceeded) else row


@settings(max_examples=80, deadline=None)
@given(shared_step_cases())
# A2's adjoint: row 4's nu step (1,1), step 5 of the chain, refuses
@example((SHARE_GROUPS["A2"], (1, 1), CycleType((1,)), CycleType((1,)),
          (1, 2, 4, 5, 6), [(0, 0), (1, 1)], 60))
@example((SHARE_GROUPS["A2"], (1, 1), CycleType((1,)), CycleType((1,)),
          (1, 3, 4, 6), [(1, 1), (0, 0)], 60))
# row 2's nu step (1, 1) refuses before its step (1, 0), the chain's next
@example((SHARE_GROUPS["A2"], (1, 0), CycleType((1,)), CycleType((1,)),
          (1, 2, 3), [(1, 1), (1, 0)], 10))
# the A2 projection of (0, 1, 1) is lam's: the A2 chain shares its step,
# the A1 chain does not
@example((SHARE_GROUPS["A1xA2"], (1, 1, 1), CycleType((1,)), CycleType(()),
          (0, 2, 3, 5), [(0, 1, 1), (1, 0, 0)], 40))
def test_sweep_rows_share_steps_as_their_one_n_calls(case):
    # every row, integers or refusal text, is the one-element schedule of
    # its scaled types, whose chain shares no step with an f-term
    rs, lam, a, b, ns, weights, cap = case
    with mock.patch.object(charring, "_SUPPORT_CAP", cap):
        rows = list(moment_sequence(rs, lam, a, b, ns, weights))
        assert len(rows) == len(ns)
        for n, row in zip(ns, rows):
            (want,) = moment_sequence(rs, lam, a.scaled(n), b.scaled(n),
                                      (1,), weights)
            assert type(row) is type(want)
            assert _text(row) == _text(want)
