import numpy as np
import pytest

from liemoments import charring, harness, rootsys
from liemoments.charring import (CycleType, SupportCapExceeded, adams, dual,
                                 exact_moment, klimyk_step, moment_sequence,
                                 product, product_all, trivial_multiplicity)
from liemoments.cli import main
from liemoments.repweights import weight_system
from liemoments.rootsys import ConfigurationError, build_root_system

import oracles
from oracles import canonical_permutation, permutation_trace_bruteforce


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
    assert sq.entries == {(2,): 1, (-2,): 1}
    # psi^2(std) = chi_{2w} - chi_0
    assert klimyk_step(rs, {(0,): 1}, sq.entries) == {(2,): 1, (0,): -1}
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
    assert klimyk_step(rs, {(0,): 1}, sq.entries) == {(2,): 1, (0,): 1}
    assert trivial_multiplicity(rs, sq) == 1


def test_product_cap(monkeypatch):
    rs = build_root_system("A1")
    big = weight_system(rs, (300,))
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 100)
    with pytest.raises(SupportCapExceeded):
        product(big, big)


def test_klimyk_cap_refuses_before_the_step(monkeypatch):
    rs = build_root_system("A1")
    # states before each step of std^6: sizes 1, 1, 2, 2, 3, 3
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 5)
    with pytest.raises(SupportCapExceeded,
                       match=r"Klimyk step 5: state of 3 highest weights "
                             r"times 2 weights is 6 pairs, over "
                             r"support_cap 5"):
        exact_moment(rs, (1,), CycleType((6,)))
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 6)
    assert exact_moment(rs, (1,), CycleType((6,))) == 5

    def reflect(*args):
        raise AssertionError("the refused step did work")

    monkeypatch.setattr(rootsys, "dominant_representative", reflect)
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 3)
    with pytest.raises(SupportCapExceeded, match="step 7: state of 2 "):
        klimyk_step(rs, {(0,): 1, (2,): 1}, weight_system(rs, (1,)).entries,
                    step=7)


def test_support_cap_is_read_at_call_time(monkeypatch, capsys):
    # the cap is a module constant read by each call, not a default bound
    # when the function was defined, so patching it reaches every layer
    assert charring._SUPPORT_CAP == 10 ** 7
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 3)
    rs = build_root_system("A1")
    std = weight_system(rs, (1,))
    note = ("Klimyk step 3: state of 2 highest weights times 2 weights is "
            "4 pairs, over support_cap 3")
    with pytest.raises(SupportCapExceeded) as step:
        klimyk_step(rs, {(0,): 1, (2,): 1}, std.entries, step=3)
    assert str(step.value) == note
    one = CycleType((1,))
    (row,) = moment_sequence(rs, (1,), one, one, (6,))
    assert isinstance(row, SupportCapExceeded) and str(row) == note
    with pytest.raises(SupportCapExceeded,
                       match=r"^convolution support may reach 4, cap is 3$"):
        product(std, std)
    assert main(["exact", "--group", "A1", "--lam", "1", "--a", "1", "--b",
                 "1", "--N", "6"]) == 1
    assert capsys.readouterr().err == f"error: {note}\n"


def test_klimyk_step_reflects_only_shifts_that_leave_the_chamber(
        monkeypatch):
    # a shift mu + rho + w with every coordinate positive is dominant and
    # one with a zero coordinate lies on a wall: only the rest, with a
    # negative and no zero coordinate, are reflected, once per pair
    rs = build_root_system("A2")
    x = weight_system(rs, (1, 1)).entries
    state = {(0, 0): 1}
    for _ in range(3):
        state = klimyk_step(rs, state, x)
    calls = []
    original = rootsys.dominant_representative

    def counted(rs, mu):
        calls.append(mu)
        return original(rs, mu)

    monkeypatch.setattr(rootsys, "dominant_representative", counted)
    got = klimyk_step(rs, state, x)
    shifts = [tuple(m + 1 + y for m, y in zip(mu, w))
              for mu in state for w in x]
    leaving = [s for s in shifts if min(s) < 0 and 0 not in s]
    assert sorted(calls) == sorted(leaving)
    assert 0 < len(calls) < len(shifts)
    assert got == oracles.klimyk_step_reference(rs, state, x)

    # the adjoint's depth is 2: no highest weight below it, no reflection
    calls.clear()
    high = {(2, 2): 1, (2, 5): -2, (3, 2): 4}
    assert klimyk_step(rs, high, x) == oracles.klimyk_step_reference(
        rs, high, x)
    assert calls == []


@pytest.mark.parametrize("group, lam, a, b, f", [
    ("A1", (1,), (1,), (1,), "0:1; 2:1"),
    ("A2", (1, 0), (1, 1), (0, 1), "1"),
    ("B2", (0, 1), (1,), (), "0,0:2; 1,0:1; 0,1:-1"),
])
def test_sweep_extends_one_chain(monkeypatch, group, lam, a, b, f):
    # a sweep over N = 1..m: |a| chain steps per unit of N, |b| more when
    # b != a, and one step per nontrivial class-function term per row
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return klimyk_step(*args, **kwargs)

    monkeypatch.setattr(charring, "klimyk_step", counted)
    m = 5
    rs = build_root_system(group)
    a, b = CycleType(a), CycleType(b)
    cfg = harness.ExperimentConfig(
        group=group, lam=lam, a=a, b=b, schedule=tuple(range(1, m + 1)),
        paths=("exact",), f=harness.parse_class_function(f, rs.rank))
    rows = harness.run_experiment(cfg).rows
    nontrivial = sum(any(nu) for nu, _ in cfg.f.terms)
    assert len(calls) == m * (a.size + (b.size if b != a else 0)
                              + nontrivial)
    for row in rows:
        assert row.notes == ()
        assert row.exact == harness.route_value("exact", rs, lam, a, b,
                                                row.n, cfg.f)


def test_chain_refusal_persists_to_later_rows(monkeypatch):
    rs = build_root_system("A1")
    one = CycleType((1,))
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 3)
    rows = list(moment_sequence(rs, (1,), one, one, (1, 2, 6, 7)))
    assert rows[:2] == [[1], [2]]
    note = ("Klimyk step 3: state of 2 highest weights times 2 weights is "
            "4 pairs, over support_cap 3")
    for n, refusal in zip((6, 7), rows[2:]):
        assert isinstance(refusal, SupportCapExceeded)
        assert str(refusal) == note
        with pytest.raises(SupportCapExceeded) as one_n:
            exact_moment(rs, (1,), one.scaled(n), one.scaled(n))
        assert str(one_n.value) == note


def test_a_side_refusal_takes_over_from_b_side(monkeypatch):
    # the conjugated side psi^2(std)^N is refused from N = 3 on; the plain
    # side std^N from N = 5 on, and then its refusal names the row, as a
    # one-N call (which builds the plain side first) reports it
    rs = build_root_system("A1")
    a, b = CycleType((1,)), CycleType((0, 1))
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 4)
    rows = [r if isinstance(r, list) else str(r) for r in
            moment_sequence(rs, (1,), a, b, range(1, 9))]
    b_note = ("Klimyk step 3: state of 3 highest weights times 2 weights is "
              "6 pairs, over support_cap 4")
    a_note = b_note.replace("step 3", "step 5")
    assert rows == [[0], [1]] + [b_note] * 2 + [a_note] * 4
    for n in (4, 5):
        with pytest.raises(SupportCapExceeded) as one_n:
            exact_moment(rs, (1,), a.scaled(n), b.scaled(n))
        assert str(one_n.value) == rows[n - 1]


def test_a_side_refusal_stops_the_b_side(monkeypatch):
    # psi^2(std)^N is refused from N = 3 on; once the a side is refused its
    # note answers every later row, so std^N is not built any further
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return klimyk_step(*args, **kwargs)

    monkeypatch.setattr(charring, "klimyk_step", counted)
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 4)
    rs = build_root_system("A1")
    a, b = CycleType((0, 1)), CycleType((1,))
    rows = [r if isinstance(r, list) else str(r) for r in
            moment_sequence(rs, (1,), a, b, range(1, 9))]
    note = ("Klimyk step 3: state of 3 highest weights times 2 weights is "
            "6 pairs, over support_cap 4")
    assert rows == [[0], [1]] + [note] * 6
    assert len(calls) == 2 + 2 + 1

def test_moment_sequence_rejects_unordered_schedule():
    rs = build_root_system("A1")
    one = CycleType((1,))
    for ns in ((2, 2), (3, 1), (-1, 2)):
        with pytest.raises(ValueError, match="strictly increasing"):
            list(moment_sequence(rs, (1,), one, one, ns))


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
            dec = klimyk_step(rs, {(0,) * rs.rank: 1}, ws.entries)
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


def test_invariant_dimension_riordan():
    rs = build_root_system("A1")
    got = [exact_moment(rs, (2,), CycleType((n,))) for n in range(10)]
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
