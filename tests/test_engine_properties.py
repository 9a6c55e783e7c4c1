"""Property tests of the Klimyk engine against an independent oracle.

``oracles.convolution_moment`` convolves full weight systems taken from the
Weyl character formula and reads off the trivial multiplicity by an
alternating sum over the orbit of rho; the engine tracks highest weights
with Freudenthal multiplicities.  The two routes share only root data.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments.charring import (CycleType, exact_moment, moment_sequence,
                                 moment_terms)
from liemoments.rootsys import build_root_system

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
    mults = moment_terms(rs, lam, a, b, [nu for nu, _ in terms])
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
