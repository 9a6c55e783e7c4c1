import math
import runpy
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liemoments import charring, harness, rootsys
from liemoments.charring import (CycleType, SupportCapExceeded, adams, dual,
                                 exact_moment, klimyk_step, moment_sequence,
                                 product, product_all, trivial_multiplicity)
from liemoments.cli import main
from liemoments.repweights import WeightSystem, weight_system, weyl_dimension
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


def test_product_cancels_signed_multiplicities():
    # (e^1 - e^-1)(e^1 + e^-1) = e^2 - e^-2 on A1: the two e^0 pairs cancel
    # and leave no zero entry
    odd = WeightSystem({(1,): 1, (-1,): -1})
    even = WeightSystem({(1,): 1, (-1,): 1})
    assert product(odd, even).entries == {(2,): 1, (-2,): -1}
    assert product(even, odd).entries == {(2,): 1, (-2,): -1}


def test_adams_refuses_degree_zero():
    ws = weight_system(build_root_system("A1"), (1,))
    with pytest.raises(ValueError,
                       match="^Adams degree must be >= 1, got 0$"):
        adams(ws, 0)


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


def _step_keys(monkeypatch):
    """Patch ``charring.klimyk_step`` to log each call's character (as its
    sorted weights), state and memo, and ``rootsys.dominant_representative``
    to log each reflection with the character of its step."""
    steps, reflections = [], []
    reflect = rootsys.dominant_representative

    def logged_step(rs, state, x, *args, **kwargs):
        steps.append((tuple(sorted(x.items())), dict(state),
                      kwargs.get("memo", args[1] if len(args) > 1 else None)))
        return klimyk_step(rs, state, x, *args, **kwargs)

    def logged_reflect(rs, s):
        reflections.append((steps[-1][0], s))
        return reflect(rs, s)

    monkeypatch.setattr(charring, "klimyk_step", logged_step)
    monkeypatch.setattr(rootsys, "dominant_representative", logged_reflect)
    return steps, reflections


def test_chain_reflects_each_wall_adjacent_pair_once(monkeypatch):
    # every step of a chain and its nu steps (here nu = lam, the same
    # character) read a wall-adjacent mu's transition from the chain's
    # memo once it is known: a pair (X, mu, w) is reflected at most once
    steps, reflections = _step_keys(monkeypatch)
    rs = build_root_system("A2")
    one = CycleType((1,))
    rows = list(moment_sequence(rs, (1, 1), one, one, range(1, 7),
                                [(1, 1)]))
    assert rows == [[oracles.convolution_moment(rs, (1, 1), (n,), (n,),
                                                [((1, 1), 1)])]
                    for n in range(1, 7)]
    leaving = set()
    for key, state, _ in steps:
        depth = max(max(-c for c in w) for w, _ in key)
        for mu in state:
            for w, _ in key:
                s = tuple(m + 1 + c for m, c in zip(mu, w))
                if min(mu) < depth and min(s) < 0 and 0 not in s:
                    leaving.add((key, mu, w))
    most = Counter((key, tuple(m + 1 + c for m, c in zip(mu, w)))
                   for key, mu, w in leaving)
    assert reflections and Counter(reflections) <= most
    assert len({key for key, _, _ in steps}) == 1


def test_seeded_first_step_makes_no_reflection(monkeypatch):
    # dec(V_0 (x) V_lam) = {lam: 1} seeds the memo of lam's degree-1
    # factor, so step 1 finds {lam: 1} without reflecting any of the
    # 15,145 weights of F4's V_rho; psi^2(V_lam) is virtual and not seeded
    steps, reflections = _step_keys(monkeypatch)
    rs = build_root_system("F4")
    lam = (1, 1, 1, 1)
    assert list(moment_sequence(rs, lam, CycleType((1,)), CycleType(()),
                                (1,))) == [[0]]
    assert [dict(state) for _, state, _ in steps] == [{(0, 0, 0, 0): 1}]
    assert reflections == []
    rs = build_root_system("A2")
    (row,) = moment_sequence(rs, (1, 0), CycleType((0, 1)), CycleType(()),
                             (1,))
    assert row == [oracles.convolution_moment(rs, (1, 0), (0, 1), (),
                                              [((0, 0), 1)])]
    assert reflections


def test_chain_memo_stores_at_most_the_support_cap(monkeypatch):
    # the chain's memos share _SUPPORT_CAP: past it a transition is found
    # again at each step instead of stored, and the integers do not move
    rs = build_root_system("A2")
    a, b, ns = CycleType((1,)), CycleType((0, 1)), range(1, 8)
    weights = [(0, 0), (1, 1)]
    want = list(moment_sequence(rs, (1, 0), a, b, ns, weights))
    stored = []
    for cap in (10 ** 7, 60):
        monkeypatch.setattr(charring, "_SUPPORT_CAP", cap)
        steps, _ = _step_keys(monkeypatch)
        assert list(moment_sequence(rs, (1, 0), a, b, ns, weights)) == want
        memos = {id(memo): memo for _, _, memo in steps}
        assert len(memos) == 3      # V_lam, psi^2(V_lam) and V_nu
        stored.append(sum(len(moves) // 2 for memo in memos.values()
                          for moves in memo.values()))
        # no step comes near the lower budget: only the memo is bounded
        assert max(len(state) * len(key) for key, state, _ in steps) <= 56
        monkeypatch.undo()
    assert stored[1] <= 60 < stored[0]


def test_exact_chain_integers_are_pinned():
    # data/exact_chains.py writes the rows of a few chains (A3, G2, B3
    # rho-like weights, Adams degree 2 with nu terms, two budgets that
    # refuse part way); a change of the chain's arithmetic shows as a
    # changed byte
    script = runpy.run_path(str(Path(__file__).parent / "data"
                                / "exact_chains.py"))
    assert script["text"]() == script["PATH"].read_text()


@pytest.mark.parametrize("group, lam, a, b, f", [
    ("A1", (1,), (1,), (1,), "0:1; 2:1"),
    ("A2", (1, 0), (1, 1), (0, 1), "1"),
    ("B2", (0, 1), (1,), (), "0,0:2; 1,0:1; 0,1:-1"),
])
def test_sweep_extends_one_chain(monkeypatch, group, lam, a, b, f):
    # a sweep over N = 1..m: |a| chain steps per unit of N, |b| more when
    # b != a, and one step per nontrivial class-function term per row; a
    # term chi_lam, when a_1 >= 1, takes the chain's next step, so every row
    # but the last shares it with the row after
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
    shared = (a.exps[:1] > (0,)
              and any(nu == lam for nu, _ in cfg.f.terms))
    assert len(calls) == m * (a.size + (b.size if b != a else 0)
                              + nontrivial) - (m - 1) * shared
    for row in rows:
        assert row.notes == ()
        assert row.exact == harness.route_value("exact", rs, lam, a, b,
                                                row.n, cfg.f)


def _exact_column(rs, lam, a, f, ns):
    """The exact column of a sweep over ``ns`` with b = a: per row its
    integer or its notes."""
    cfg = harness.ExperimentConfig(group=rs.describe(), lam=lam, a=a, b=a,
                                   schedule=ns, f=f, paths=("exact",))
    return [row.exact if row.exact is not None else row.notes
            for row in harness.run_experiment(cfg).rows]


def _one_n_calls(rs, lam, a, f, ns):
    """:func:`_exact_column` from one ``route_value`` call per row."""
    want = []
    for n in ns:
        try:
            want.append(harness.route_value("exact", rs, lam, a, a, n, f))
        except SupportCapExceeded as exc:
            want.append((f"exact skipped: {exc}",))
    return want


@pytest.mark.parametrize("first", [True, False])
def test_nu_step_of_lam_is_the_chains_next_step(monkeypatch, first):
    # the f-term chi_(1,1) on dec(P_{a n}) is step n + 1 of the chain, with
    # V_lam's memo: the sweep takes it once, as the nu step of row n and
    # the chain's step of row n + 1, wherever the term stands in f
    rs, lam, ns = build_root_system("A2"), (1, 1), tuple(range(1, 7))
    terms = [((1, 1), 3.0), ((0, 0), 2.0)]
    f = harness.ClassFunction(tuple(terms if first else terms[::-1]))
    steps = []

    def counted(*args, **kwargs):
        steps.append(kwargs.get("step", args[3] if len(args) > 3 else 1))
        return klimyk_step(*args, **kwargs)

    for a, want_steps in ((CycleType((1,)), [1, 2, 3, 4, 5, 6, 7]),
                          # a psi^2 chain never meets V_lam's memo
                          (CycleType((0, 1)), [1, 2, 2, 3, 3, 4, 4, 5, 5,
                                               6, 6, 7])):
        with monkeypatch.context() as patch:
            patch.setattr(charring, "klimyk_step", counted)
            got = _exact_column(rs, lam, a, f, ns)
        assert steps == want_steps
        assert got == _one_n_calls(rs, lam, a, f, ns)
        assert all(isinstance(v, int) for v in got)
        steps.clear()


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("cap", [10, 40, 60, 100, 130])
def test_shared_step_refuses_as_both_of_its_calls(monkeypatch, first, cap):
    # the state before step k + 1 is dec(P_k), of 1, 1, 5, 8, 13, 18
    # highest weights, times 7 weights of V_(1,1): a cap refuses the shared
    # step first as row k's nu step (a refusal of row k alone) and then as
    # the chain's step (a refusal of every later row), with one message
    rs, lam, a, ns = build_root_system("A2"), (1, 1), CycleType((1,)), \
        tuple(range(1, 7))
    terms = [((1, 1), 3.0), ((0, 0), 2.0)]
    f = harness.ClassFunction(tuple(terms if first else terms[::-1]))
    monkeypatch.setattr(charring, "_SUPPORT_CAP", cap)
    got = _exact_column(rs, lam, a, f, ns)
    assert got == _one_n_calls(rs, lam, a, f, ns)
    notes = [row for row in got if isinstance(row, tuple)]
    assert notes and len(set(notes)) == 1


@pytest.mark.parametrize("first", [True, False])
def test_refused_shared_step_is_taken_once(monkeypatch, first):
    # at cap 40 the shared step 4 (8 highest weights times 7 weights)
    # refuses as row 3's nu step; the refusal is then the chain's state, so
    # rows 4..6 read it without taking step 4 again
    rs, lam, a, ns = build_root_system("A2"), (1, 1), CycleType((1,)), \
        tuple(range(1, 7))
    terms = [((1, 1), 3.0), ((0, 0), 2.0)]
    f = harness.ClassFunction(tuple(terms if first else terms[::-1]))
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 40)
    want = _one_n_calls(rs, lam, a, f, ns)
    steps = []

    def counted(*args, **kwargs):
        steps.append(kwargs.get("step", args[3] if len(args) > 3 else 1))
        return klimyk_step(*args, **kwargs)

    monkeypatch.setattr(charring, "klimyk_step", counted)
    got = _exact_column(rs, lam, a, f, ns)
    assert steps == [1, 2, 3, 4]
    assert got == want
    note = ("exact skipped: Klimyk step 4: state of 8 highest weights times "
            "7 weights is 56 pairs, over support_cap 40",)
    assert got[:2] == [8, 112] and got[2:] == [note] * 4


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


def _adams_degree(j):
    """The cycle type e_j: one trace of g^j."""
    return CycleType((0,) * (j - 1) + (1,))


@pytest.mark.parametrize("a", [(1,), (0, 1), (1, 1), (0, 0, 1)])
def test_stable_range_moments_are_diaconis_shahshahani(a):
    # SU(8)'s standard representation, a = b, every N with
    # N sum_j j a_j <= 8: K_N = prod_j j^{a_j N} (a_j N)!
    rs = build_root_system("A7")
    ns = range(1, 8 // sum(j * aj for j, aj in enumerate(a, 1)) + 1)
    rows = moment_sequence(rs, (1,) + (0,) * 6, CycleType(a), CycleType(a),
                           ns)
    assert list(rows) == [[oracles.diaconis_shahshahani(8, a, size)]
                          for size in ns]


@pytest.mark.parametrize("n, j, top", [(2, 2, 40), (3, 3, 12), (2, 3, 20),
                                       (4, 4, 6)])
def test_high_power_moments_are_rains_multinomial_sums(n, j, top):
    # SU(n)'s standard representation with a = b = e_j, j >= n: pure Adams
    # degree rows, sum over k_1 + ... + k_n = N of (N! / prod k_i!)^2
    rs = build_root_system(f"A{n - 1}")
    ns = range(1, top + 1)
    rows = moment_sequence(rs, (1,) + (0,) * (n - 2), _adams_degree(j),
                           _adams_degree(j), ns)
    assert list(rows) == [[oracles.rains_moment(n, j, size)] for size in ns]


@pytest.mark.parametrize("n, top", [(2, 60), (3, 40), (4, 30)])
def test_standard_k_n_counts_permutations_with_bounded_lis(n, top):
    # K_N of SU(n)'s standard representation (lam = omega_1, a = b = (1))
    # counts the permutations of N with no increasing subsequence longer
    # than n: sum of (f^mu)^2 over the partitions mu of N with at most n
    # rows, from hook lengths (Robinson-Schensted)
    rs = build_root_system(f"A{n - 1}")
    lam = (1,) + (0,) * (n - 2)
    ns = range(1, top + 1)
    rows = moment_sequence(rs, lam, CycleType((1,)), CycleType((1,)), ns)
    assert [row for row in rows] == [[oracles.bounded_lis_count(n, size)]
                                     for size in ns]


@pytest.mark.parametrize("spec, lam, r", [("C3", (1, 0, 0), 3),
                                          ("C4", (1, 0, 0, 0), 4),
                                          ("B2", (0, 1), 2)])
def test_symplectic_standard_moments_count_crossing_free_matchings(spec,
                                                                   lam, r):
    # I_N of Sp(2r)'s standard representation (B2's spin representation
    # is C2's) counts the perfect matchings of [N] with no (r + 1)-crossing:
    # oscillating tableaux on partitions with at most r rows (Sundaram)
    rs = build_root_system(spec)
    ns = range(1, 15)
    rows = moment_sequence(rs, lam, CycleType((1,)), CycleType(()), ns)
    assert list(rows) == [[oracles.crossing_free_matchings(r, size)]
                          for size in ns]


def test_crossing_free_matchings_past_the_stable_range():
    # (N - 1)!! until N = 2r, then fewer: C3 and C4 at N = 8, 10, 12, 14
    assert [oracles.crossing_free_matchings(3, n) for n in (8, 10, 12, 14)] \
        == [104, 909, 9449, 112398]
    assert [oracles.crossing_free_matchings(4, n) for n in (8, 10, 12, 14)] \
        == [105, 944, 10340, 133055]


@pytest.mark.parametrize("spec, top, past", [("B3", 6, 1), ("B4", 8, 1),
                                             ("D4", 7, 106)])
def test_orthogonal_standard_moments_below_the_epsilon_bound(spec, top, past):
    # I_N of SO(m)'s standard representation is (N - 1)!! at even N and 0
    # at odd N (Brauer) while N < m; from N = m the epsilon tensor adds
    # invariants (B3 and B4 give 1 at N = 7 and 9, D4 gives 106 at N = 8)
    rs = build_root_system(spec)
    lam = (1,) + (0,) * (rs.rank - 1)
    ns = range(1, top + 2)
    rows = list(moment_sequence(rs, lam, CycleType((1,)), CycleType(()), ns))
    assert rows == [[math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0]
                    for n in range(1, top + 1)] + [[past]]


def _schur_invariants(rs, lam, n):
    """({mu: m_mu for every mu |- n}, I(1^n)), with n! m_mu the sum over
    the cycle types a of size n of chi^mu(a) I(a) n! / z_a, and I(a) the
    exact cycle-type moment, Tr(sigma | (V^{(x) n})^G) for sigma of type a.
    Each m_mu is a Fraction, so a remainder mod n! shows as a denominator."""
    moments = {a: exact_moment(rs, lam, CycleType(a))
               for a in oracles.all_cycle_types_with_weight(n)}
    fact = math.factorial(n)
    class_sizes = {a: fact // math.prod(j ** aj * math.factorial(aj)
                                        for j, aj in enumerate(a, start=1))
                   for a in moments}
    out = {}
    for mu in oracles.partitions(n, n):
        total = sum(oracles.sn_character(mu, a) * moments[a] * class_sizes[a]
                    for a in moments)
        out[mu] = Fraction(total, fact)
    return out, moments[(n,) + (0,) * (n - 1)]


@pytest.mark.parametrize("spec, lam, top", [
    ("A1", (1,), 8), ("A2", (1, 0), 6), ("B2", (1, 0), 6),
    ("G2", (1, 0), 6), ("A2", (1, 1), 5), ("B3", (1, 0, 0), 5),
    ("C3", (1, 0, 0), 5), ("A1xA2", (1, 1, 0), 5)])
def test_cycle_type_moments_give_integral_schur_functor_invariants(spec, lam,
                                                                    top):
    # the cycle-type moments of size n are the traces of S_n on the
    # invariants of V^{(x) n}, so pairing them with the character table
    # gives each multiplicity dim (S_mu V)^G: a nonnegative integer, and
    # summed with the degrees f^mu = chi^mu(1) they give back I(1^n)
    rs = build_root_system(spec)
    for n in range(1, top + 1):
        dims, ones = _schur_invariants(rs, lam, n)
        assert all(m.denominator == 1 and m >= 0 for m in dims.values()), n
        assert sum(oracles.standard_tableaux(mu) * m
                   for mu, m in dims.items()) == ones


@pytest.mark.parametrize("k, top", [(2, 8), (3, 6)])
def test_su_k_standard_invariants_are_k_row_rectangles(k, top):
    # Littlewood: S_mu C^k holds an SU(k) invariant exactly when mu is a
    # rectangle with k rows, and then exactly one
    rs = build_root_system(f"A{k - 1}")
    lam = (1,) + (0,) * (k - 2)
    for n in range(1, top + 1):
        dims, _ = _schur_invariants(rs, lam, n)
        assert dims == {mu: int(len(mu) == k and len(set(mu)) == 1)
                        for mu in dims}, n


def _columns(mu):
    """The column lengths of the Young diagram of ``mu``."""
    return [sum(1 for part in mu if part > i) for i in range(mu[0])]


@pytest.mark.parametrize("spec, lam, top", [
    ("A1", (1,), 8), ("B2", (0, 1), 6), ("C3", (1, 0, 0), 6)])
def test_sp_standard_invariants_have_even_columns(spec, lam, top):
    # Littlewood: S_mu C^2r holds an Sp(2r) invariant exactly when every
    # column of mu has even length and l(mu) <= 2r, and then exactly one
    # (B2's spin representation is Sp(4)'s standard one)
    rs = build_root_system(spec)
    dim = weyl_dimension(rs, lam)
    for n in range(1, top + 1):
        dims, _ = _schur_invariants(rs, lam, n)
        assert dims == {mu: int(len(mu) <= dim and
                                all(c % 2 == 0 for c in _columns(mu)))
                        for mu in dims}, n


@pytest.mark.parametrize("spec, lam, top", [
    ("A1", (2,), 6), ("B2", (1, 0), 7), ("B3", (1, 0, 0), 8),
    ("D4", (1, 0, 0, 0), 8)])
def test_so_standard_invariants_have_even_rows(spec, lam, top):
    # Littlewood: S_mu C^m holds one SO(m) invariant for each of: every
    # part of mu even with l(mu) <= m, and l(mu) = m with every part odd
    # (A1's adjoint representation is SO(3)'s standard one)
    rs = build_root_system(spec)
    m = weyl_dimension(rs, lam)
    for n in range(1, top + 1):
        dims, _ = _schur_invariants(rs, lam, n)
        assert dims == {mu: int(len(mu) <= m and
                                all(p % 2 == 0 for p in mu))
                        + int(len(mu) == m and all(p % 2 for p in mu))
                        for mu in dims}, n
