"""Product groups: the exact route and quadrature run once per simple factor.

For G = G_1 x ... x G_k every moment term is a product of factor
integrals.  The engines compute it that way; the oracles here never
factor: ``oracles.convolution_moment`` convolves the weight systems of the
whole product, and ``oracles.full_grid_quadrature`` sums its whole torus
grid.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments import charring, torusquad
from liemoments.asymptotics import ClassFunction
from liemoments.charring import CycleType, exact_moment, moment_sequence
from liemoments.cli import main
from liemoments.harness import ExperimentConfig, run_experiment
from liemoments.rootsys import build_root_system
from liemoments.torusquad import _alcove_factor, default_grid, quad_K_N

import oracles

PRODUCTS = {spec: build_root_system(spec)
            for spec in ("A1xA1", "A1xA2", "A1xG2", "A1xA1xA1")}
# Bound on the trace factors on both sides after scaling by N, which sets
# the oracle's convolution cost on the whole product.
MAX_FACTORS = 4
# Bound on (a.weight + b.weight) * N, which sets the full grid's size.
MAX_DEGREE = {2: 4, 3: 3}


def small_weights(rank, top=1):
    return st.tuples(*[st.integers(0, top)] * rank)


def cycle_types(max_len=2, max_exp=2):
    return st.lists(st.integers(0, max_exp), min_size=0,
                    max_size=max_len).map(tuple)


@st.composite
def sequence_cases(draw):
    """A product-group moment over a gapped schedule, with ``b == a``
    about half the time and up to two class-function weights."""
    rs = PRODUCTS[draw(st.sampled_from(sorted(PRODUCTS)))]
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
@example((PRODUCTS["A1xA2"], (1, 1, 0), CycleType((1,)), CycleType((0, 1)),
          (0, 1, 2), [(1, 0, 1), (0, 0, 0)]))
@example((PRODUCTS["A1xG2"], (1, 1, 0), CycleType((1,)), CycleType((1,)),
          (1, 3), [(1, 1, 0), (1, 0, 1)]))
@example((PRODUCTS["A1xA1xA1"], (1, 1, 1), CycleType((2,)), CycleType((2,)),
          (1, 2), [(0, 1, 1), (1, 1, 1)]))
def test_factored_sequence_matches_whole_group_oracle(case):
    rs, lam, a, b, ns, weights = case
    rows = list(moment_sequence(rs, lam, a, b, ns, weights))
    assert len(rows) == len(ns)
    for n, mults in zip(ns, rows):
        assert mults == [oracles.convolution_moment(
            rs, lam, a.scaled(n).exps, b.scaled(n).exps, [(nu, 1)])
            for nu in weights]


@st.composite
def quad_cases(draw):
    rs = PRODUCTS[draw(st.sampled_from(sorted(PRODUCTS)))]
    lam = draw(small_weights(rs.rank))
    cap = MAX_DEGREE[rs.rank]
    a = CycleType(draw(cycle_types()))
    b = CycleType(draw(cycle_types()))
    degree = a.weight + b.weight
    if degree > cap:
        a, b = CycleType((1,)), CycleType(())
        degree = 1
    n = draw(st.integers(1, max(1, cap // max(1, degree))))
    terms = draw(st.lists(st.tuples(small_weights(rs.rank),
                                    st.integers(-3, 3).map(float)),
                          min_size=1, max_size=2))
    return rs, lam, a, b, n, tuple(terms)


@settings(max_examples=40)
@given(quad_cases())
@example((PRODUCTS["A1xA2"], (1, 1, 1), CycleType((1,)), CycleType((1,)), 2,
          (((1, 1, 1), 2.0), ((0, 0, 0), -1.0))))
def test_factored_quadrature_matches_full_grid_oracle(case):
    rs, lam, a, b, n, terms = case
    f = ClassFunction(terms)
    sizes = default_grid(rs, lam, a, b, n, f).sizes
    want, scale = oracles.full_grid_quadrature(rs, lam, a.exps, b.exps, n,
                                               terms, sizes)
    got = quad_K_N(rs, lam, a, b, n, f=f)
    # the tolerance of test_alcove_sum_matches_full_grid_oracle
    assert abs(got - want.real) <= 1e-11 * max(abs(want), scale, 1.0)


def _record_steps(monkeypatch):
    """Patch ``charring.klimyk_step`` to log the datum of every call."""
    calls = []
    original = charring.klimyk_step

    def recording(rs, *args, **kwargs):
        calls.append(rs.describe())
        return original(rs, *args, **kwargs)

    monkeypatch.setattr(charring, "klimyk_step", recording)
    return calls


def test_product_sweep_steps_only_one_factor_data(monkeypatch):
    calls = _record_steps(monkeypatch)
    cfg = ExperimentConfig(
        group="A1xA2", lam=(1, 1, 1), a=CycleType((1,)), b=CycleType((1,)),
        schedule=tuple(range(1, 7)),
        f=ClassFunction((((0, 0, 0), 2.0), ((0, 1, 1), 3.0))),
        paths=("exact",))
    rows = run_experiment(cfg).rows
    assert all(r.exact is not None for r in rows)
    # one chain step per factor and unit of N, plus the (1, 1) nu step of
    # the A2 factor per row (the A1 projection of both f-terms is 0)
    assert calls.count("A1") == 6
    assert calls.count("A2") == 12
    assert len(calls) == 18


def test_product_quadrature_evaluates_one_factor_alcove_at_a_time(
        monkeypatch):
    rs = build_root_system("A1xA1xA1")
    a = CycleType((1,))
    points = []
    original = torusquad.character_at

    def recording(ws, k, m):
        points.append(len(k))
        return original(ws, k, m)

    monkeypatch.setattr(torusquad, "character_at", recording)
    value = quad_K_N(rs, (1, 1, 1), a, a, 60)
    sizes = default_grid(rs, (1, 1, 1), a, a, 60).sizes
    largest = max(len(_alcove_factor(build_root_system("A1"), m))
                  for m in sizes)
    assert points and max(points) == largest
    # the whole alcove would hold largest ** 3 points
    assert sum(points) < largest ** 2
    assert abs(value - exact_moment(rs, (1, 1, 1), a.scaled(60),
                                    a.scaled(60))) <= 1e-12 * value


@pytest.mark.parametrize("spec, steps", [
    # A2 refuses step 3 (N = 3) before the A1 chain takes its step 3
    ("A2xA1", ["A2", "A1", "A2", "A1", "A2"]),
    # the A1 chain takes step 3, then A2 refuses it
    ("A1xA2", ["A1", "A2", "A1", "A2", "A1", "A2"]),
])
def test_chain_refusal_in_one_factor_stops_the_others(monkeypatch, spec,
                                                      steps):
    calls = _record_steps(monkeypatch)
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 20)
    rs = build_root_system(spec)
    a = CycleType((1,))
    rows = list(moment_sequence(rs, (1, 1, 1), a, a, range(1, 7)))
    assert rows[:2] == [[1], [16]]
    message = ("A2 factor: Klimyk step 3: state of 5 highest weights times "
               "7 weights is 35 pairs, over support_cap 20")
    assert [str(r) for r in rows[2:]] == [message] * 4
    # no factor takes a step after the refusal, the refusing one included
    assert calls == steps


def test_chain_refusal_message_answers_its_row_over_an_earlier_nu_step(
        monkeypatch):
    # at N = 3 the A1 nu step (2 highest weights times 11 weights) and
    # the A2 chain (step 3) both refuse; the chain's message answers that
    # row and every later one
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 20)
    rs = build_root_system("A1xA2")
    a = CycleType((1,))
    rows = list(moment_sequence(rs, (1, 1, 1), a, a, (1, 3, 4),
                                weights=[(0, 0, 0), (10, 0, 0)]))
    assert rows[0] == [1, 0]
    message = ("A2 factor: Klimyk step 3: state of 5 highest weights times "
               "7 weights is 35 pairs, over support_cap 20")
    assert [str(r) for r in rows[1:]] == [message] * 2


def test_product_chain_refusal_names_factor_in_sweep_notes(monkeypatch):
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 20)
    cfg = ExperimentConfig(group="A1xA2", lam=(1, 1, 1), a=CycleType((1,)),
                           b=CycleType((1,)), schedule=(1, 2, 4, 6),
                           paths=("exact",))
    rows = run_experiment(cfg).rows
    assert [r.exact for r in rows] == [1, 16, None, None]
    note = ("exact skipped: A2 factor: Klimyk step 3: state of 5 highest "
            "weights times 7 weights is 35 pairs, over support_cap 20")
    assert [r.notes for r in rows[2:]] == [(note,), (note,)]


def test_support_cap_bounds_each_factor_step(monkeypatch):
    # the A1 chains of K_16 hold at most 9 highest weights, 18 pairs per
    # step; the whole-group state would hold 9 ** 3 of them
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 100)
    rs = build_root_system("A1xA1xA1")
    a = CycleType((16,))
    assert exact_moment(rs, (1, 1, 1), a, a) == 35357670 ** 3


def test_cli_exact_on_a1_cubed(capsys):
    assert main(["exact", "--group", "A1xA1xA1", "--lam", "1,1,1", "--a",
                 "1", "--b", "1", "--N", "16"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "44202915427981062663000" == str(35357670 ** 3)


def test_cli_quad_on_a1_cubed_answers_at_60_and_refuses_at_100(capsys):
    args = ["quad", "--group", "A1xA1xA1", "--lam", "1,1,1", "--a", "1",
            "--b", "1", "--N"]
    assert main(args + ["60"]) == 0
    got = float(capsys.readouterr().out)
    want = exact_moment(build_root_system("A1xA1xA1"), (1, 1, 1),
                        CycleType((60,)), CycleType((60,)))
    assert abs(got - want) <= 1e-12 * want
    # the point budget still counts the whole torus grid
    assert main(args + ["100"]) == 1
    assert capsys.readouterr().err == \
        "error: grid has 8365427 points, budget is 4000000\n"
