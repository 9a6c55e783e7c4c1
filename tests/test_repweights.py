import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liemoments import asymptotics, repweights, rootsys
from liemoments.exactla import mat_vec
from liemoments.rootsys import ConfigurationError, build_root_system
from liemoments.repweights import (a_lambda, check_dominant_integral,
                                   is_regular, weight_system, weyl_dimension)

import oracles
from oracles import reflect_covector, reflect_weight


def test_weyl_dimension_known_values():
    a1 = build_root_system("A1")
    assert [weyl_dimension(a1, (m,)) for m in range(6)] == [1, 2, 3, 4, 5, 6]
    a2 = build_root_system("A2")
    assert weyl_dimension(a2, (1, 0)) == 3
    assert weyl_dimension(a2, (0, 1)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (2, 2)) == 27
    b2 = build_root_system("B2")
    assert weyl_dimension(b2, (1, 0)) == 5
    assert weyl_dimension(b2, (0, 1)) == 4
    assert weyl_dimension(b2, (1, 1)) == 16
    g2 = build_root_system("G2")
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14
    assert weyl_dimension(build_root_system("A1xA1"), (2, 3)) == 12


def test_weyl_dimension_of_the_zero_weight_takes_no_product(monkeypatch):
    # the trivial term of a class function has dimension 1: no product
    # over F4's 24 positive coroots, but the weight is still checked
    rs = build_root_system("F4")

    def refuse(rs):
        raise AssertionError("the coroot product was taken")

    monkeypatch.setattr(repweights, "_weyl_denominator", refuse)
    assert weyl_dimension(rs, (0, 0, 0, 0)) == 1
    with pytest.raises(ConfigurationError):
        weyl_dimension(rs, (0, 0, 0))


def test_built_weight_system_is_already_normal():
    # _freudenthal wraps its table without the public constructor's copy,
    # so the table itself must be what that copy would make
    ws = weight_system(build_root_system("B3"), (1, 0, 1))
    assert all(type(w) is tuple and all(type(c) is int for c in w)
               and type(m) is int and m > 0 for w, m in ws.entries.items())
    assert repweights.WeightSystem(ws.entries) == ws


def test_rejects_non_dominant():
    rs = build_root_system("A2")
    with pytest.raises(ConfigurationError):
        weyl_dimension(rs, (-1, 0))
    with pytest.raises(ConfigurationError):
        weight_system(rs, (1,))


def test_dominant_integral_check_takes_integral_non_ints_as_ints():
    rs = build_root_system("A2")
    lam = check_dominant_integral(rs, (2.0, Fraction(3)))
    assert lam == (2, 3) and all(type(c) is int for c in lam)
    with pytest.raises(ConfigurationError,
                       match="^highest weight must be dominant integral, "
                             "got \\(1.5, 0\\)$"):
        check_dominant_integral(rs, (1.5, 0))


def test_weight_system_a1():
    rs = build_root_system("A1")
    assert weight_system(rs, (3,)).entries == {(3,): 1, (1,): 1,
                                               (-1,): 1, (-3,): 1}


def test_weight_system_a2_adjoint():
    rs = build_root_system("A2")
    ws = weight_system(rs, (1, 1))
    assert ws.entries[(0, 0)] == 2
    roots = set(rs.positive_roots)
    for w, m in ws.entries.items():
        if w != (0, 0):
            assert m == 1
            assert w in roots or tuple(-c for c in w) in roots
    assert ws.dimension() == 8


def test_weight_system_matches_weyl_formula():
    cases = [("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)),
             ("B2", (0, 2)), ("G2", (1, 0)), ("A1xA1", (1, 2))]
    for spec, lam in cases:
        rs = build_root_system(spec)
        assert weight_system(rs, lam).entries == \
            oracles.weyl_formula_multiplicities(rs, lam)


FREUDENTHAL_GROUPS = {spec: build_root_system(spec)
                      for spec in ("A1", "A2", "A3", "B2", "B3", "C3", "G2",
                                   "D4", "A1xG2")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FREUDENTHAL_GROUPS)), st.data())
def test_weight_system_matches_weyl_formula_oracle(spec, data):
    # integer Freudenthal over the orbit table == Weyl character formula;
    # the dimension cap keeps the Laurent division of the oracle fast
    rs = FREUDENTHAL_GROUPS[spec]
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rs.rank))
    assume(weyl_dimension(rs, lam) <= 600)
    assert weight_system(rs, lam).entries == \
        oracles.weyl_formula_multiplicities(rs, lam)


TABLE_ORDER_GROUPS = {spec: build_root_system(spec)
                      for spec in ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "D4", "G2", "F4", "A1xA2", "G2xA1")}


@st.composite
def table_order_case(draw):
    rs = TABLE_ORDER_GROUPS[draw(st.sampled_from(sorted(TABLE_ORDER_GROUPS)))]
    top = 3 - rs.rank // 2  # small weights, so that the oracle stays fast
    return rs, draw(st.tuples(*[st.integers(0, top)] * rs.rank))


@settings(max_examples=40, deadline=None)
@given(table_order_case())
@example((TABLE_ORDER_GROUPS["F4"], (0, 0, 0, 2)))  # replays one walk
@example((TABLE_ORDER_GROUPS["G2xA1"], (1, 1, 2)))
def test_weight_table_order_matches_orbit_walks(case):
    # the table replays one orbit walk per zero set; its keys, values and
    # their order must be those of walking every dominant weight's orbit,
    # since characters sum the weights in table order
    rs, lam = case
    assume(weyl_dimension(rs, lam) <= 600)
    assert list(weight_system(rs, lam).entries.items()) == \
        oracles.weight_table_by_levels(rs, lam)


def test_weight_system_reflects_no_term(monkeypatch):
    # each term mu + k alpha is one lookup in the table of expanded orbits,
    # never a reflection to the dominant chamber
    def refuse(*args, **kwargs):
        raise AssertionError("Freudenthal reflected a term")

    repweights._freudenthal.cache_clear()
    monkeypatch.setattr(rootsys, "dominant_representative", refuse)
    rs = build_root_system("B3")
    ws = weight_system(rs, rs.rho)
    assert ws.dimension() == weyl_dimension(rs, rs.rho) == 512
    assert ws.entries == oracles.weyl_formula_multiplicities(rs, rs.rho)


def test_weight_sums_random():
    rng = np.random.default_rng(20240812)
    specs = ["A1", "A2", "B2"]
    for _ in range(30):
        rs = build_root_system(specs[int(rng.integers(len(specs)))])
        lam = tuple(int(c) for c in rng.integers(0, 5, size=rs.rank))
        if weyl_dimension(rs, lam) > 10 ** 4:
            continue
        ws = weight_system(rs, lam)
        assert ws.dimension() == weyl_dimension(rs, lam)
        for i in range(rs.rank):
            assert sum(m * w[i] for w, m in ws.entries.items()) == 0


def test_weight_system_cached():
    rs = build_root_system("A2")
    assert weight_system(rs, (2, 1)) is weight_system(rs, (2, 1))


def test_a_lambda_small_cases():
    a1 = build_root_system("A1")
    assert a_lambda(a1, (1,)).matrix == ((Fraction(1),),)
    assert a_lambda(a1, (2,)).matrix == ((Fraction(8, 3),),)
    a2 = build_root_system("A2")
    m = a_lambda(a2, (1, 0)).matrix
    assert m == ((Fraction(2, 3), Fraction(-1, 3)),
                 (Fraction(-1, 3), Fraction(2, 3)))


ORACLE_GROUPS = {spec: build_root_system(spec)
                 for spec in ("A1", "A2", "A3", "B2", "B3", "C3", "G2",
                              "A1xA1", "A1xG2")}


@st.composite
def group_and_weight(draw):
    rs = ORACLE_GROUPS[draw(st.sampled_from(sorted(ORACLE_GROUPS)))]
    return rs, draw(st.tuples(*[st.integers(0, 2)] * rs.rank))


@settings(max_examples=60)
@given(group_and_weight())
def test_a_lambda_matches_weight_sum_oracle(case):
    # closed form from the Casimir identity == the sum over the weights
    rs, lam = case
    assert a_lambda(rs, lam).matrix == \
        oracles.weight_sum_second_moment(rs, lam)


def test_a_lambda_positive_definite_and_symmetric():
    rng = np.random.default_rng(5)
    for spec in ("A2", "B2", "A1xA1"):
        rs = build_root_system(spec)
        for _ in range(5):
            lam = tuple(int(c) for c in rng.integers(1, 4, size=rs.rank))
            sm = a_lambda(rs, lam)
            assert sm.matrix == tuple(tuple(row[i] for row in sm.matrix)
                                      for i in range(rs.rank))
            assert sm.det > 0


def test_a_lambda_weyl_equivariance():
    # the moment matrix intertwines the covector action with the weight
    # action: A(s_i x) = s_i(A x)
    rng = np.random.default_rng(11)
    for spec, lam in [("A2", (1, 1)), ("B2", (1, 2)), ("G2", (1, 1))]:
        rs = build_root_system(spec)
        sm = a_lambda(rs, lam)
        for _ in range(5):
            x = tuple(Fraction(int(c), 5)
                      for c in rng.integers(-9, 10, size=rs.rank))
            for i in range(rs.rank):
                lhs = mat_vec(sm.matrix, reflect_covector(rs, x, i))
                rhs = reflect_weight(rs, mat_vec(sm.matrix, x), i)
                assert tuple(lhs) == tuple(rhs)


# every supported spec family at each rank, and the product groups
ALL_SPECS = ([f"A{n}" for n in range(1, 9)]
             + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(3, 9)]
             + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2", "A1xA2", "A2xB2", "G2xA1",
                "A1xA1xA1", "E8xE8"])


@st.composite
def spec_and_weight(draw, top=2):
    rs = build_root_system(draw(st.sampled_from(ALL_SPECS)))
    return rs, draw(st.tuples(*[st.integers(0, top)] * rs.rank))


@settings(max_examples=150, deadline=None)
@given(spec_and_weight(top=4))
@example((build_root_system("E8xE8"), (4, 0, 1, 2, 3, 0, 4, 1) * 2))
@example((build_root_system("A1xA1xA1"), (0, 4, 0)))
def test_weyl_dimension_matches_the_coroot_product(case):
    # the coroot recurrence against <lam + rho, a^v> / <rho, a^v> taken
    # coroot by coroot in Fractions, on every type and rank the parser
    # accepts and on products
    rs, lam = case
    assert weyl_dimension(rs, lam) == oracles.weyl_dimension_product(rs, lam)


def test_weyl_dimension_of_e8_rho():
    # dim V_rho = 2^|Phi+|: its character is prod (e^{a/2} + e^{-a/2})
    rs = build_root_system("E8")
    assert weyl_dimension(rs, rs.rho) == 2 ** 120


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_coroot_steps_list_each_positive_coroot_once(spec):
    # replaying the memoised steps from the zero covector gives every
    # positive coroot once; a simple coroot comes from slot 0, and every
    # other one from a positive coroot one simple coroot below it
    rs = build_root_system(spec)
    covectors = [(0,) * rs.rank]
    for parent, i in repweights._coroot_steps(rs):
        assert 0 <= parent < len(covectors)
        below = covectors[parent]
        covectors.append(below[:i] + (below[i] + 1,) + below[i + 1:])
        assert (parent == 0) == (sum(covectors[-1]) == 1)
    assert sorted(covectors[1:]) == sorted(rs.positive_coroots)
    assert repweights._coroot_steps(rs) is repweights._coroot_steps(rs)


def test_coroot_steps_refuse_a_coroot_with_no_parent():
    # (2, 1) on A2 is no positive coroot plus a simple coroot
    rs = build_root_system("A2")
    corrupted = dataclasses.replace(
        rs, positive_coroots=rs.positive_coroots[:2] + ((2, 1),))
    with pytest.raises(RuntimeError,
                       match="^positive coroot \\(2, 1\\) is no positive "
                             "coroot plus a simple coroot: corrupted root "
                             "tables$"):
        weyl_dimension(corrupted, (1, 0))
    assert weyl_dimension(rs, (1, 0)) == 3


@settings(max_examples=80, deadline=None)
@given(spec_and_weight())
@example((build_root_system("A1xA2"), (1, 0, 0)))
@example((build_root_system("E8xE8"), (0,) * 8 + (1,) * 8))
@example((build_root_system("F4"), (0, 0, 0, 0)))
@example((build_root_system("D5"), (1, 0, 0, 0, 0)))
def test_one_elimination_matches_row_exchange_oracles(case):
    # the Cartan inverse and rho_vee come from exactla.eliminate, and
    # A_lam's det from a closed form in root data; the oracles eliminate
    # with row exchanges.  A_lam is singular when lam vanishes on a simple
    # factor.
    rs, lam = case
    transpose = [[rs.cartan[j][i] for j in range(rs.rank)]
                 for i in range(rs.rank)]
    assert rs.cartan_inv == oracles.inv_fraction(rs.cartan)
    rho_covector = tuple(sum(col) for col in zip(*rs.cartan_inv))
    assert rho_covector == oracles.solve_fraction(transpose, rs.rho)
    sm = a_lambda(rs, lam)
    assert sm.det == oracles.det_fraction(sm.matrix)


SIMPLE_SPECS = [spec for spec in ALL_SPECS if "x" not in spec]


def _check_closed_forms(rs, lam):
    """SecondMoment's closed forms against the row-exchange oracles on its
    own matrix; the peak data too where lam is regular."""
    sm = a_lambda(rs, lam)
    det = oracles.det_fraction(sm.matrix)
    assert sm.det == det
    assert sm.definite == (det != 0)
    if not det:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            sm.kappa_rho
        return
    x = oracles.solve_fraction(sm.matrix, rs.rho)
    assert sm.kappa_rho == rootsys.kappa(rs, x)
    if is_regular(rs, lam):
        peak = asymptotics.peak_data(rs, lam)
        assert (peak.kappa_term, peak.det_a) == (rootsys.kappa(rs, x), det)


@pytest.mark.parametrize("spec", SIMPLE_SPECS)
def test_closed_forms_match_elimination_oracles_at_rho(spec):
    rs = build_root_system(spec)
    _check_closed_forms(rs, rs.rho)


@st.composite
def product_and_weight(draw):
    """A product of one to three simple factors of total rank <= 8, and a
    weight with coordinates in [0, 2]."""
    factors, rank = [], 0
    while len(factors) < 3 and (not factors or draw(st.booleans())):
        fits = [s for s in SIMPLE_SPECS if int(s[1:]) <= 8 - rank]
        if not fits:
            break
        factors.append(draw(st.sampled_from(fits)))
        rank += int(factors[-1][1:])
    rs = build_root_system("x".join(factors))
    return rs, draw(st.tuples(*[st.integers(0, 2)] * rs.rank))


@settings(max_examples=80, deadline=None)
@given(product_and_weight())
# not regular, nonzero on every factor: still positive definite
@example((build_root_system("A1xA2"), (1, 0, 1)))
@example((build_root_system("G2xB3"), (0, 1, 2, 0, 0)))
@example((build_root_system("E7"), (0, 0, 0, 0, 0, 0, 1)))
# vanishing on a factor: det 0, "matrix is singular"
@example((build_root_system("A1xA2"), (0, 1, 1)))
@example((build_root_system("A2xD4xA1"), (1, 1, 0, 0, 0, 0, 2)))
def test_closed_forms_match_elimination_oracles_on_products(case):
    rs, lam = case
    _check_closed_forms(rs, lam)
    nonzero = all(any(lam[i] for i in block)
                  for block, _ in rootsys.simple_factors(rs))
    assert a_lambda(rs, lam).definite == nonzero


def test_definiteness_check_catches_a_negative_cartan_minor():
    # with cartan = ((2, -3), (-3, 2)) the second leading minor of A_lam is
    # negative: the exact definiteness check refuses the corrupted table
    rs = build_root_system("A2")
    corrupted = dataclasses.replace(rs, cartan=((2, -3), (-3, 2)))
    with pytest.raises(RuntimeError,
                       match="^second-moment matrix for \\(1, 1\\) not "
                             "positive definite: corrupted root tables$"):
        a_lambda(corrupted, (1, 1))
    assert a_lambda(rs, (1, 1)).det > 0


def test_is_regular():
    rs = build_root_system("A2")
    assert is_regular(rs, (1, 1))
    assert not is_regular(rs, (1, 0))
    assert not is_regular(rs, (0, 0))


def test_cache_does_not_serve_a_corrupted_copy():
    # root systems hash by identity, so a dataclasses.replace'd copy with a
    # wrong root coordinate misses the weight-system cache warmed by the
    # real datum and runs into Freudenthal's integrality check
    rs = build_root_system("A2")
    assert weight_system(rs, (1, 1)).dimension() == 8
    corrupted = dataclasses.replace(
        rs, positive_rootcoords=rs.positive_rootcoords[:2] + ((2, 1),))
    with pytest.raises(RuntimeError,
                       match="Freudenthal multiplicity of \\(0, 0\\) in "
                             "\\(1, 1\\) is 4/3"):
        weight_system(corrupted, (1, 1))
    assert build_root_system("A2") is rs
    assert weight_system(rs, (1, 1)).dimension() == 8


@pytest.mark.parametrize("scale", [Fraction(1, 2), -1])
def test_root_coordinates_refuse_a_corrupted_inverse(scale):
    # (1, 1) - (0, 0) = alpha_1 + alpha_2 comes out as (1/2, 1/2) or
    # (-1, -1) from a scaled inverse Cartan matrix
    rs = build_root_system("A2")
    corrupted = dataclasses.replace(rs, cartan_inv=tuple(
        tuple(scale * x for x in row) for row in rs.cartan_inv))
    with pytest.raises(RuntimeError,
                       match="^\\(1, 1\\) - \\(0, 0\\) is not a nonnegative "
                             "root combination: corrupted root tables$"):
        weight_system(corrupted, (1, 1))


# Corrupted root data that each exact cross-check must catch: a wrong
# coroot makes the Weyl dimension of (1, 0) come out as 18/4, and a wrong
# root coordinate makes Freudenthal's multiplicity of 0 in the adjoint 4/3.
_CORRUPTED = """
import dataclasses, sys
from liemoments import repweights, rootsys
rs = rootsys.build_root_system("A2")
checks = {
    "coroot": lambda: repweights.weyl_dimension(dataclasses.replace(
        rs, positive_coroots=((1, 1),) + rs.positive_coroots[1:]), (1, 0)),
    "freudenthal": lambda: repweights.weight_system(dataclasses.replace(
        rs, positive_rootcoords=rs.positive_rootcoords[:2] + ((2, 1),)),
        (1, 1)),
}
try:
    checks[sys.argv[1]]()
except RuntimeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("check, message", [
    ("coroot", "Weyl dimension of (1, 0) is 18/4, not a positive integer"),
    ("freudenthal", "Freudenthal multiplicity of (0, 0) in (1, 1) is 4/3"),
])
def test_cross_checks_survive_python_O(check, message):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED, check],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout
