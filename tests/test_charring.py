import math

import numpy as np
import pytest

from liemoments import rootsys
from liemoments.charring import (CycleType, SupportCapExceeded, adams,
                                 canonical_permutation, decompose, dual,
                                 exact_moment, invariant_dimension,
                                 klimyk_step,
                                 permutation_trace_bruteforce, product,
                                 product_all, trivial_multiplicity)
from liemoments.repweights import weight_system
from liemoments.rootsys import ConfigurationError, build_root_system

import oracles


def test_cycle_type_basics():
    a = CycleType((2, 0, 1))
    assert a.size == 3
    assert a.weight == 5
    assert a.quad == 11
    assert a.gcd_support == 1
    assert a.support() == (1, 3)
    assert CycleType((2,)) == CycleType((2, 0, 0))
    assert CycleType((0, 2)).gcd_support == 2
    assert CycleType(()).gcd_support == 0
    assert CycleType((1, 1)).scaled(3) == CycleType((3, 3))
    assert CycleType.parse("0,1") == CycleType((0, 1))
    assert CycleType.parse("") == CycleType(())
    with pytest.raises(ConfigurationError):
        CycleType.parse("1,-2")
    with pytest.raises(ConfigurationError):
        CycleType((-1,))


def test_adams_a1_square():
    rs = build_root_system("A1")
    ws = weight_system(rs, (1,))
    sq = adams(ws, 2)
    assert sq.is_virtual
    assert sq.entries == {(2,): 1, (-2,): 1}
    # psi^2(std) = chi_{2w} - chi_0
    assert decompose(rs, sq) == {(2,): 1, (0,): -1}
    assert trivial_multiplicity(rs, sq) == -1


def test_dual_matches_conjugate_irrep():
    rs = build_root_system("A2")
    assert dual(weight_system(rs, (1, 0))).entries == \
        weight_system(rs, (0, 1)).entries
    # self-dual for A1
    rs1 = build_root_system("A1")
    ws = weight_system(rs1, (3,))
    assert dual(ws).entries == ws.entries


def test_product_clebsch_gordan():
    rs = build_root_system("A1")
    std = weight_system(rs, (1,))
    sq = product(std, std)
    assert sq.entries == {(2,): 1, (0,): 2, (-2,): 1}
    assert decompose(rs, sq) == {(2,): 1, (0,): 1}
    assert trivial_multiplicity(rs, sq) == 1


def test_product_cap():
    rs = build_root_system("A1")
    big = weight_system(rs, (300,))
    with pytest.raises(SupportCapExceeded):
        product(big, big, support_cap=100)


def test_klimyk_cap_refuses_before_the_step(monkeypatch):
    rs = build_root_system("A1")
    # states before each step of std^6: sizes 1, 1, 2, 2, 3, 3
    with pytest.raises(SupportCapExceeded,
                       match=r"Klimyk step 5: state of 3 highest weights "
                             r"times 2 weights is 6 pairs, over "
                             r"support_cap 5"):
        exact_moment(rs, (1,), CycleType((6,)), support_cap=5)
    assert exact_moment(rs, (1,), CycleType((6,)), support_cap=6) == 5

    def reflect(*args):
        raise AssertionError("the refused step did work")

    monkeypatch.setattr(rootsys, "dominant_representative", reflect)
    with pytest.raises(SupportCapExceeded, match="step 7: state of 2 "):
        klimyk_step(rs, {(0,): 1, (2,): 1}, weight_system(rs, (1,)).entries,
                    support_cap=3, step=7)


def test_product_all_empty_is_trivial():
    ws = product_all([], 2)
    assert ws.entries == {(0, 0): 1}


def test_decompose_matches_greedy_on_genuine_characters():
    rng = np.random.default_rng(20240813)
    for spec in ("A1", "A2", "B2"):
        rs = build_root_system(spec)
        for _ in range(6):
            lam = tuple(int(c) for c in rng.integers(0, 3, size=rs.rank))
            mu = tuple(int(c) for c in rng.integers(0, 3, size=rs.rank))
            ws = product(weight_system(rs, lam), weight_system(rs, mu))
            dec = decompose(rs, ws)
            assert dec == oracles.greedy_decompose(rs, ws)
            assert all(v > 0 for v in dec.values())


def test_greedy_rejects_virtual():
    rs = build_root_system("A1")
    virt = adams(weight_system(rs, (1,)), 2)
    with pytest.raises(ValueError):
        oracles.greedy_decompose(rs, virt)


def test_catalan_moments():
    rs = build_root_system("A1")
    for m in range(1, 8):
        assert exact_moment(rs, (1,), CycleType((2 * m,))) == \
            oracles.catalan(m)


def test_empty_type_gives_one():
    rs = build_root_system("A2")
    assert exact_moment(rs, (1, 1), CycleType(())) == 1


def test_two_sided_moment_catalan():
    rs = build_root_system("A1")
    for n in range(1, 7):
        assert exact_moment(rs, (1,), CycleType((n,)), CycleType((n,))) == \
            oracles.balanced_moment_fourier(n) == oracles.catalan(n)


def test_a2_moment_dimension_counts():
    # invariants of the k-th tensor power of the su(3) standard rep: zero off
    # multiples of 3, and counted by rectangular standard tableaux at k = 3m
    rs = build_root_system("A2")
    got = [exact_moment(rs, (1, 0), CycleType((k,))) for k in range(0, 10)]
    want = [oracles.syt_rectangular(3, k // 3) if k % 3 == 0 else 0
            for k in range(0, 10)]
    assert got == want
    assert want[3] == 1 and want[6] == 5 and want[9] == 42


def test_invariant_dimension_matches_moment():
    for spec, lam in [("A1", (1,)), ("A1", (2,)), ("A2", (1, 0)),
                      ("A2", (1, 1)), ("B2", (0, 1))]:
        rs = build_root_system(spec)
        for n in range(0, 7):
            assert invariant_dimension(rs, lam, n) == \
                exact_moment(rs, lam, CycleType((n,)))


def test_invariant_dimension_riordan():
    rs = build_root_system("A1")
    got = [invariant_dimension(rs, (2,), n) for n in range(10)]
    assert got == [1, 0, 1, 1, 3, 6, 15, 36, 91, 232]
    assert got == [oracles.riordan(n) for n in range(10)]
    assert got == [oracles.su2_ladder_invariants(2, n) for n in range(10)]


def test_frobenius_schur_indicators():
    fs = CycleType((0, 1))
    assert exact_moment(build_root_system("A1"), (1,), fs) == -1
    assert exact_moment(build_root_system("A2"), (1, 0), fs) == 0
    # Spin(5) spinor is quaternionic, its vector representation is real
    assert exact_moment(build_root_system("B2"), (0, 1), fs) == -1
    assert exact_moment(build_root_system("B2"), (1, 0), fs) == 1


def test_odd_total_power_vanishes():
    rs = build_root_system("A1")
    for t in [(1,), (3,), (1, 1), (0, 0, 1), (1, 2)]:
        assert exact_moment(rs, (1,), CycleType(t)) == 0


def test_canonical_permutation_structure():
    perm = canonical_permutation(CycleType((1, 2)))
    assert sorted(perm) == list(range(5))
    assert perm[0] == 0                  # fixed point first
    assert perm[1] == 2 and perm[2] == 1  # then the 2-cycles
    assert perm[3] == 4 and perm[4] == 3


def test_permutation_trace_small_cases():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    tr = np.trace
    # identity permutation on 3 slots: Tr(B)^3
    got = permutation_trace_bruteforce(b.tolist(), CycleType((3,)))
    assert abs(got - tr(b) ** 3) < 1e-9 * max(1, abs(tr(b) ** 3))
    # a single 3-cycle: Tr(B^3)
    got = permutation_trace_bruteforce(b.tolist(), CycleType((0, 0, 1)))
    want = tr(b @ b @ b)
    assert abs(got - want) < 1e-9 * max(1, abs(want))
    # empty type: scalar 1
    assert permutation_trace_bruteforce(b.tolist(), CycleType(())) == 1


def test_permutation_trace_cap():
    b = [[1.0] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        permutation_trace_bruteforce(b, CycleType((9,)), cap=10 ** 4)
