import dataclasses
import itertools
import math
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemoments import rootsys
from liemoments.rootsys import (ConfigurationError, build_root_system,
                                dominant_orbit, dominant_representative,
                                kappa, order_mod_root_lattice, pairing,
                                parse_group, simple_factors)

import oracles
from oracles import reflect_covector, reflect_weight

ALL_SIMPLE = ([f"A{n}" for n in range(1, 9)]
              + [f"B{n}" for n in range(2, 9)]
              + [f"C{n}" for n in range(3, 9)]
              + [f"D{n}" for n in range(4, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])


def test_parse_group():
    assert parse_group("a2") == (("A", 2),)
    assert parse_group("A1xA1") == (("A", 1), ("A", 1))
    assert parse_group("A2,B3") == (("A", 2), ("B", 3))
    for bad in ("", "H4", "A0", "C2", "D3", "E5", "B", "2A", "A1yB2"):
        with pytest.raises(ConfigurationError):
            parse_group(bad)


def test_dimension_table_consistency():
    # the builder itself raises if closure and dim table disagree; run all
    for spec in ALL_SIMPLE:
        rs = build_root_system(spec)
        assert 2 * rs.num_positive_roots + rs.rank == rs.dim_group


def test_known_counts():
    rs = build_root_system("A2")
    assert rs.num_positive_roots == 3
    assert rs.weyl_order == 6
    assert build_root_system("B2").num_positive_roots == 4
    assert build_root_system("G2").num_positive_roots == 6
    assert build_root_system("E8").num_positive_roots == 120
    assert build_root_system("F4").num_positive_roots == 24


def test_simple_root_coordinates_are_cartan_columns():
    rs = build_root_system("B2")
    assert rs.simple_roots[0] == (2, -2)
    assert rs.simple_roots[1] == (-1, 2)
    # highest short root e1 and highest root e1+e2 in these coordinates
    assert (1, 0) in rs.positive_roots
    assert (0, 2) in rs.positive_roots


def test_coroots_pair_correctly():
    for spec in ("A3", "B3", "C3", "G2", "F4"):
        rs = build_root_system(spec)
        for alpha, cr in zip(rs.positive_roots, rs.positive_coroots):
            assert pairing(alpha, cr) == 2
            # rho pairs to the height of the coroot
            assert pairing(rs.rho, cr) == sum(cr)


def test_product_group_blocks():
    rs = build_root_system("A1xA1")
    assert rs.rank == 2
    assert rs.dim_group == 6
    assert rs.weyl_order == 4
    assert set(rs.positive_roots) == {(2, 0), (0, 2)}
    assert rs.center.order == 4


def test_simple_factors_split_along_the_blocks():
    rs = build_root_system("G2xA1xA2")
    parts = list(simple_factors(rs))
    assert [tuple(block) for block, _ in parts] == [(0, 1), (2,), (3, 4)]
    assert [f.describe() for _, f in parts] == ["G2", "A1", "A2"]
    assert parts[1][1] is build_root_system("A1")
    for block, factor in parts:
        assert factor.cartan == tuple(tuple(rs.cartan[i][j] for j in block)
                                      for i in block)
    simple = build_root_system("B3")
    assert [(tuple(b), f) for b, f in simple_factors(simple)] == \
        [((0, 1, 2), simple)]
    assert simple_factors(simple)[0][1] is simple


def test_simple_factors_are_memoised_per_datum():
    # one split per datum; a dataclasses.replace'd copy is a datum of its
    # own, whose split names the copy
    rs = build_root_system("G2xA1xA2")
    assert simple_factors(rs) is simple_factors(rs)
    simple = build_root_system("B3")
    copy = dataclasses.replace(simple)
    assert simple_factors(copy) is not simple_factors(simple)
    assert simple_factors(copy)[0][1] is copy


def _rho_covector(rs):
    """Pairs to 1 with every simple root: the column sums of C^{-1}."""
    return tuple(sum(col) for col in zip(*rs.cartan_inv))


def _orbit(rs, mu):
    """Weyl orbit of any weight, as a set: walked from its dominant
    conjugate by the package's one orbit walker."""
    return set(dominant_orbit(rs, dominant_representative(rs, mu)[0]))


def test_kappa_at_rho_covector():
    # for A2 the pairing of rho-covector with each positive root is the
    # height, so kappa = 1 * 1 * 2
    rs = build_root_system("A2")
    assert kappa(rs, _rho_covector(rs)) == 2
    rs = build_root_system("A1")
    assert kappa(rs, _rho_covector(rs)) == 1


def test_kappa_antiinvariance():
    rng = np.random.default_rng(42)
    for spec in ("A2", "B2", "G2", "A1xA1"):
        rs = build_root_system(spec)
        for _ in range(10):
            x = tuple(Fraction(int(rng.integers(-9, 10)), 7)
                      for _ in range(rs.rank))
            k = kappa(rs, x)
            for i in range(rs.rank):
                assert kappa(rs, reflect_covector(rs, x, i)) == -k


def test_reflections_preserve_pairing():
    rng = np.random.default_rng(3)
    rs = build_root_system("B3")
    for _ in range(10):
        mu = tuple(int(c) for c in rng.integers(-4, 5, size=3))
        x = tuple(Fraction(int(c), 3) for c in rng.integers(-6, 7, size=3))
        for i in range(3):
            assert pairing(reflect_weight(rs, mu, i),
                           reflect_covector(rs, x, i)) == pairing(mu, x)


def test_weyl_orbit_sizes():
    rs = build_root_system("A2")
    assert len(_orbit(rs, (1, 1))) == 6       # regular: free orbit
    assert len(_orbit(rs, (1, 0))) == 3       # stabilized by one wall
    assert len(_orbit(rs, (0, 0))) == 1
    rs = build_root_system("B2")
    assert len(_orbit(rs, (1, 1))) == 8


@pytest.mark.parametrize("spec, mu", [
    ("A2", (-3, 1)), ("B3", (2, -1, 3)), ("C3", (0, -2, 1)),
    ("G2", (-1, 2)), ("F4", (1, -1, 0, 2)), ("A1xG2", (-2, 0, 1))])
def test_weyl_orbit_walks_down_from_the_dominant_conjugate(spec, mu):
    rs = build_root_system(spec)
    dom, _ = dominant_representative(rs, mu)
    orbit = _orbit(rs, mu)
    assert orbit == _orbit(rs, dom)
    assert mu in orbit
    for w in orbit:
        for i in range(rs.rank):
            assert reflect_weight(rs, w, i) in orbit
    regular = _orbit(rs, tuple(abs(c) + 1 for c in dom))
    assert len(regular) == rs.weyl_order


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2", "F4",
                                  "A1xG2"])
def test_orbit_walk_replays_on_its_zero_set(spec):
    # the steps of one walk depend on the weight only through its zero set,
    # so replaying them on any dominant weight with that zero set is the
    # walk of that weight, point for point
    rs = build_root_system(spec)
    for zeros in itertools.product((True, False), repeat=rs.rank):
        first = tuple(0 if z else 1 for z in zeros)
        orbit, steps = rootsys._walk_orbit(rs, first)
        assert len(steps) == len(orbit) - 1
        assert rs.weyl_order % len(orbit) == 0
        free = rs.rank - sum(zeros)
        for values in itertools.product((1, 2, 5), repeat=free):
            it = iter(values)
            mu = tuple(0 if z else next(it) for z in zeros)
            assert rootsys._replay_orbit(rs, steps, mu) == \
                dominant_orbit(rs, mu)
        if not any(zeros):
            # a regular orbit is free; its generations are lengths, so
            # (-1)^generation is the sign of the element reaching each point
            generation = [0]
            for step in steps:
                generation.append(generation[step // rs.rank] + 1)
            assert len(orbit) == rs.weyl_order
            for w, g in zip(orbit, generation):
                assert dominant_representative(rs, w) == (first, (-1) ** g)


def test_dominant_representative():
    rs = build_root_system("A2")
    for mu in _orbit(rs, (2, 1)):
        dom, sign = dominant_representative(rs, mu)
        assert dom == (2, 1)
        assert sign in (-1, 1)
    # signs multiply to the alternating character: sum over a free orbit of
    # sign * w(mu) recovers the antisymmetrized orbit, so the identity
    # element must get +1
    assert dominant_representative(rs, (2, 1)) == ((2, 1), 1)
    # a single reflection flips the sign
    assert dominant_representative(rs, reflect_weight(rs, (2, 1), 0))[1] == -1


def test_center_orders_table():
    expected = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}.get,
                "F": lambda n: 1, "G": lambda n: 1}
    for spec in ALL_SIMPLE:
        rs = build_root_system(spec)
        letter, n = rs.factors[0]
        assert rs.center.order == expected[letter](n), spec


def test_center_elements_pair_integrally_with_roots():
    for spec in ("A1", "A2", "A3", "B2", "C3", "D4", "G2"):
        rs = build_root_system(spec)
        fg = rs.center
        assert len(set(fg.elements)) == fg.order
        assert fg.elements[0] == (Fraction(0),) * rs.rank
        for psi in fg.elements:
            assert all(0 <= x < 1 for x in psi)
            for alpha in rs.positive_roots:
                assert pairing(alpha, psi).denominator == 1


# the products whose `liemoments info` is pinned, and a few more
_CENTER_PRODUCTS = [spec for spec in runpy.run_path(
    str(Path(__file__).parent / "data" / "info.py"))["GROUPS"]
    if "x" in spec] + ["A3xA5", "A1xA1xA2", "D4xD4", "A2xE6"]


@pytest.mark.parametrize("spec", ALL_SIMPLE + _CENTER_PRODUCTS)
def test_special_nodes_give_the_smith_form_center(spec):
    # 0 and the coweights of the nodes with mark 1 in the highest root, per
    # simple factor, are the Smith form's center as a set
    rs = build_root_system(spec)
    center = oracles.special_node_center(rs)
    assert len(center) == rs.center.order
    assert set(center) == set(rs.center.elements)


# One generator per cyclic factor of the center of each simple type, by
# Bourbaki node number; E8, F4 and G2 have none.
_CENTER_GENERATORS = {"A": lambda n: [n], "B": lambda n: [1],
                      "C": lambda n: [n],
                      "D": lambda n: [n - 1] if n % 2 else [1, n],
                      "E": {6: [1], 7: [7], 8: []}.get,
                      "F": lambda n: [], "G": lambda n: []}


@pytest.mark.parametrize("spec", ALL_SIMPLE)
def test_center_generator_multiples_are_the_smith_form_order(spec):
    # the multiples c_1 g_1 + ... mod 1 of the generators' coweights, the c
    # in itertools.product order, are the Smith form's elements in its own
    # order (D_2k included): a center built from the special nodes would
    # keep every simple type's `liemoments info` bytes
    rs = build_root_system(spec)
    ((letter, n),) = rs.factors
    gens = [rs.cartan_inv[j - 1] for j in _CENTER_GENERATORS[letter](n)]
    orders = [math.lcm(*(x.denominator for x in g)) for g in gens]
    multiples = [
        tuple(sum((c * g[i] for c, g in zip(cs, gens)), Fraction(0)) % 1
              for i in range(rs.rank))
        for cs in itertools.product(*map(range, orders))]
    assert multiples == list(rs.center.elements)


def test_a1_center_representative():
    rs = build_root_system("A1")
    assert set(rs.center.elements) == {(Fraction(0),), (Fraction(1, 2),)}
    assert pairing((1,), (Fraction(1, 2),)) == Fraction(1, 2)


def test_coroot_grid_basis_is_cross_checked_against_the_center(monkeypatch):
    rs = build_root_system("D4")
    h, u = rs.coroot_grid_basis
    assert rootsys._coroot_grid_basis(rs.cartan, rs.center) == (h, u)
    # a Hermite diagonal that disagrees with the Smith form is refused
    doubled = tuple(tuple(2 * x for x in row) for row in h)
    monkeypatch.setattr(rootsys, "hermite_normal_form",
                        lambda mat: (doubled, u))
    with pytest.raises(RuntimeError, match="center order"):
        rootsys._coroot_grid_basis(rs.cartan, rs.center)
    # so is a transform that does not map the Cartan matrix to H
    swapped = (u[1], u[0]) + u[2:]
    monkeypatch.setattr(rootsys, "hermite_normal_form",
                        lambda mat: (h, swapped))
    with pytest.raises(RuntimeError, match="does not map"):
        rootsys._coroot_grid_basis(rs.cartan, rs.center)


def test_root_lattice_membership():
    rs = build_root_system("A1")
    assert order_mod_root_lattice(rs, (2,)) == 1
    assert order_mod_root_lattice(rs, (1,)) == 2
    rs = build_root_system("A2")
    assert order_mod_root_lattice(rs, (1, 0)) == 3
    assert order_mod_root_lattice(rs, (1, 1)) == 1


@pytest.mark.parametrize("spec", ALL_SIMPLE + [
    "A1xA1", "A1xA2", "A2xA2", "A3xA1", "D4xA1", "B3xD4"])
def test_root_lattice_class_is_the_action_of_the_center(spec):
    # mu lies in the root lattice exactly when every central element pairs
    # integrally with it; and two weights share a class exactly when the
    # center acts on them alike (their pairings agree mod 1), so the class
    # is the central character, read in integers
    rs = build_root_system(spec)
    seen = {}
    for mu in itertools.chain(itertools.product((0, 1), repeat=rs.rank),
                              rs.simple_roots, [(-1,) + (0,) * (rs.rank - 1)]):
        cls = rootsys.root_lattice_class(rs, mu)
        phases = tuple(pairing(mu, psi) % 1 for psi in rs.center.elements)
        assert (not any(cls)) == (not any(phases)), mu
        assert seen.setdefault(cls, phases) == phases, mu
    # every central character shows up on the 0/1 weights
    assert len(seen) == rs.center.order


@settings(max_examples=200)
@given(spec=st.sampled_from(ALL_SIMPLE + ["A1xA2", "B3xD4", "A3xE6"]),
       data=st.data())
def test_order_mod_root_lattice_matches_fraction_oracle(spec, data):
    # the integer path D / gcd(D, D C^-1 mu) against the lcm of the
    # denominators of the Fraction root coordinates, on signed weights
    rs = build_root_system(spec)
    mu = data.draw(st.tuples(*[st.integers(-12, 12)] * rs.rank))
    assert order_mod_root_lattice(rs, mu) == \
        oracles.order_mod_root_lattice(rs, mu)


def test_root_datum_is_memoised_but_specs_are_always_parsed():
    assert build_root_system("A2xB2") is build_root_system("a2, b2")
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            build_root_system("A2xQ1")
        with pytest.raises(ConfigurationError):
            build_root_system("C2")


def test_root_datum_is_one_elimination(monkeypatch):
    # the Cartan inverse, rho_vee and the det cross-check of the center
    # share one exactla.eliminate per datum
    calls = []
    real = rootsys.eliminate

    def counted(mat, columns=()):
        calls.append(tuple(map(tuple, mat)))
        return real(mat, columns)

    monkeypatch.setattr(rootsys, "eliminate", counted)
    for spec in ("E8", "A2xB2", "G2xA1"):
        calls.clear()
        rs = rootsys._root_system.__wrapped__(parse_group(spec))
        assert calls == [rs.cartan]
    # a Cartan matrix without positive leading minors is refused
    monkeypatch.setattr(rootsys, "eliminate", lambda mat, columns=(): None)
    with pytest.raises(RuntimeError, match="corrupted root tables"):
        rootsys._root_system.__wrapped__(parse_group("B3"))


@pytest.mark.parametrize("spec", [
    *(f"{letter}{n}" for letter, (lo, hi) in rootsys._RANK_RANGE.items()
      for n in range(lo, hi + 1)),
    "A1xA2", "G2xB3"])
def test_cartan_inverse_is_the_row_exchange_inverse(spec):
    # exact equality with an elimination that exchanges rows and divides
    # in Fractions, on every supported simple type and two products
    rs = build_root_system(spec)
    assert rs.cartan_inv == oracles.inv_fraction(rs.cartan)
