"""Property tests of the Klimyk engine against an independent oracle.

``oracles.convolution_moment`` convolves full weight systems taken from the
Weyl character formula and reads off the trivial multiplicity by an
alternating sum over the orbit of rho; the engine tracks highest weights
with Freudenthal multiplicities.  The two routes share only root data.
One Klimyk step is also checked against ``oracles.klimyk_step_reference``,
which reflects every pair: it shares the reflection with the engine, so it
checks the step's short cuts.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments.charring import (CycleType, adams, dual, exact_moment,
                                 klimyk_step, moment_sequence)
from liemoments.repweights import weight_system
from liemoments.rootsys import build_root_system, dominant_representative

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
