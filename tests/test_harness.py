import functools
import json
import math
from pathlib import Path

import pytest

from liemoments import asymptotics, harness
from liemoments.charring import CycleType, SupportCapExceeded
from liemoments.cli import main
from liemoments.harness import (ConvergenceReport, ExperimentConfig,
                                check_hypotheses, fit_error_exponent,
                                parse_class_function, parse_schedule,
                                parse_weight, run_experiment, write_report)
from liemoments.rootsys import ConfigurationError, build_root_system

import oracles

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------- parsers

def test_parse_weight():
    assert parse_weight("1,1") == (1, 1)
    assert parse_weight(" 2 , 0 ", rank=2) == (2, 0)
    with pytest.raises(ConfigurationError):
        parse_weight("1,x")
    with pytest.raises(ConfigurationError):
        parse_weight("1,2,3", rank=2)


def test_parse_schedule():
    assert parse_schedule("1,2,4") == (1, 2, 4)
    assert parse_schedule("2:8:2") == (2, 4, 6, 8)
    assert parse_schedule("3:5") == (3, 4, 5)
    assert parse_schedule("2:160:2")[-1] == 160
    with pytest.raises(ConfigurationError):
        parse_schedule("5:1")
    with pytest.raises(ConfigurationError):
        parse_schedule("1:9:0")
    with pytest.raises(ConfigurationError):
        parse_schedule("1:2:3:4")


def test_parse_class_function():
    one = parse_class_function("1", 2)
    assert one.is_trivial_one()
    f = parse_class_function("2:1.5", 1)
    assert f.terms == (((2,), 1.5),)
    g = parse_class_function("1,0:2; 0,1:-1", 2)
    assert g.terms == (((1, 0), 2.0), ((0, 1), -1.0))
    with pytest.raises(ConfigurationError):
        parse_class_function("1,2", 2)       # missing coefficient
    with pytest.raises(ConfigurationError):
        parse_class_function(";;", 2)


# ----------------------------------------------------------- configuration

def _cfg(**kw):
    base = dict(group="A1", lam=(1,), a=CycleType((1,)),
                schedule=(1, 2, 3, 4))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _cfg(schedule=())
    with pytest.raises(ConfigurationError):
        _cfg(schedule=(4, 2))
    with pytest.raises(ConfigurationError):
        _cfg(schedule=(0, 1))
    with pytest.raises(ConfigurationError):
        _cfg(paths=("exact", "nonsense"))
    with pytest.raises(ConfigurationError):
        _cfg(fmt="xml")


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# one-sided convergence study\n"
        "group = A1\n"
        "lambda = 1\n"
        "a = 1\n"
        "N = 2:8:2   # inclusive range\n"
        "paths = exact, asymptotic\n"
        "format = csv\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.group == "A1"
    assert cfg.lam == (1,)
    assert cfg.a == CycleType((1,))
    assert cfg.b == CycleType(())
    assert cfg.schedule == (2, 4, 6, 8)
    assert cfg.paths == ("exact", "asymptotic")
    assert cfg.fmt == "csv"
    assert cfg.f.is_trivial_one()
    bad = tmp_path / "bad.cfg"
    bad.write_text("group A1\n")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(bad)


def test_config_echo_round_trip():
    cfg = _cfg()
    echo = _cfg().echo()
    assert echo == cfg.echo()
    assert echo["group"] == "A1"
    assert echo["N"] == [1, 2, 3, 4]


# ------------------------------------------------------------- hypotheses

def test_check_hypotheses_basic():
    rs = build_root_system("A1")
    v = check_hypotheses(rs, (1,), CycleType((1,)))
    assert v.regular
    assert v.gcd_one_sided == 1
    assert v.k_a == 1 and v.k_b == 0
    assert not v.balanced
    assert v.vanishing_period == 2
    assert v.ok_one_sided
    assert not v.ok_two_sided          # unbalanced powers
    assert v.one_sided_nonzero(2)
    assert not v.one_sided_nonzero(3)


def test_check_hypotheses_never_raises():
    rs = build_root_system("A1")
    v = check_hypotheses(rs, (0,), CycleType((0, 1)))
    assert not v.regular
    assert v.gcd_one_sided == 2
    assert not v.ok_one_sided
    assert len(v.problems_one_sided) == 2
    d = v.to_dict()
    assert d["regular"] is False
    assert d["problems_one_sided"]


def test_check_hypotheses_balanced():
    rs = build_root_system("A2")
    v = check_hypotheses(rs, (1, 1), CycleType((1,)), CycleType((1,)))
    assert v.balanced and v.ok_two_sided
    assert v.vanishing_period == 1     # (1,1) lies in the root lattice
    w = check_hypotheses(rs, (2, 1), CycleType((1,)), CycleType((1,)))
    assert w.ok_two_sided
    assert w.vanishing_period == 3     # (2,1) generates the order-3 quotient
    assert w.one_sided_nonzero(6)
    assert not w.one_sided_nonzero(4)


# ------------------------------------------------------------ experiments

def test_run_experiment_one_sided():
    cfg = _cfg(schedule=(1, 2, 3, 4, 6, 8, 12, 16))
    report = run_experiment(cfg)
    by_n = {r.n: r for r in report.rows}
    for n in (2, 4, 6, 8, 12, 16):
        assert by_n[n].exact == oracles.catalan(n // 2)
        assert by_n[n].quad == pytest.approx(by_n[n].exact, rel=1e-10)
        assert by_n[n].ratio == pytest.approx(1.0, abs=5 / math.sqrt(n))
    for n in (1, 3):
        assert by_n[n].exact == 0
        assert by_n[n].estimate.value == 0.0
        assert any("both zero" in note for note in by_n[n].notes)
    assert report.fitted_exponent is not None
    assert report.fitted_exponent <= -0.5


def test_run_experiment_two_sided():
    cfg = _cfg(a=CycleType((1,)), b=CycleType((1,)), schedule=(1, 2, 3, 4, 5),
               paths=("exact", "asymptotic"))
    report = run_experiment(cfg)
    for row in report.rows:
        assert row.exact == oracles.catalan(row.n)
        assert row.quad is None
        assert row.ratio == pytest.approx(1.0, abs=3 / row.n)


def test_report_serialization_deterministic():
    cfg = _cfg(schedule=(2, 4, 6))
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json() == r2.to_json()
    assert "timings" not in r1.to_json()
    withtimes = r1.to_json(include_timings=True)
    assert "timings" in withtimes
    data = json.loads(r1.to_json())
    assert data["config"]["group"] == "A1"
    assert len(data["rows"]) == 3
    assert data["rows"][0]["N"] == 2


def test_report_csv_shape():
    cfg = _cfg(schedule=(2, 4), fmt="csv")
    report = run_experiment(cfg)
    text = report.render(fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "N,exact,quad,estimate,ratio,abs_error,notes"
    assert len(lines) == 3
    assert lines[1].startswith("2,1,")


def test_write_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    cfg = _cfg(schedule=(2, 4), out=str(out))
    report = run_experiment(cfg)
    text = write_report(report, cfg)
    assert out.read_text() == text
    # the fit needs two usable points in the upper half of the schedule,
    # and this schedule only has one there
    assert json.loads(text)["fitted_exponent"] is None


def test_fit_error_exponent():
    ns = [2, 4, 8, 16, 32, 64]
    errs = [3.0 / n for n in ns]
    slope = fit_error_exponent(ns, errs)
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert fit_error_exponent([2], [0.5]) is None
    assert fit_error_exponent([], []) is None
    # zero and missing errors are skipped
    assert fit_error_exponent([2, 4, 8, 16], [None, 0.0, 0.5, 0.25]) == \
        pytest.approx(-1.0, abs=1e-9)


def test_skip_notes_on_unusable_rows():
    # non-regular weight: the asymptotic path is skipped with a note, the
    # exact path still runs
    cfg = ExperimentConfig(group="A1", lam=(0,), a=CycleType((1,)),
                           schedule=(2, 4), paths=("exact", "asymptotic"))
    report = run_experiment(cfg)
    for row in report.rows:
        assert row.exact == 1          # trivial representation
        assert row.estimate is None
        assert any("asymptotic skipped" in note for note in row.notes)


# -------------------------------------------------------------------- CLI

def _field(out, name):
    for line in out.splitlines():
        if line.startswith(name + " "):
            return line[len(name):].strip()
    raise AssertionError(f"no field {name!r} in output:\n{out}")


def test_cli_info(capsys):
    assert main(["info", "A2"]) == 0
    out = capsys.readouterr().out
    assert _field(out, "rank") == "2"
    assert _field(out, "weyl order") == "6"
    assert _field(out, "center order") == "3"


def test_cli_weights(capsys):
    assert main(["weights", "A1", "3"]) == 0
    out = capsys.readouterr().out
    assert _field(out, "dim") == "4"
    assert _field(out, "regular") == "True"


def test_cli_weights_limit(capsys):
    # 0 lists every weight; a negative limit is a usage error, not a
    # silent truncation
    assert main(["weights", "A1", "3", "--limit", "0"]) == 0
    out = capsys.readouterr().out
    assert "first" not in out and out.count(" x1") == 4
    assert main(["weights", "A1", "3", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "first 2 weights" in out and out.count(" x1") == 2
    assert main(["weights", "A1", "3", "--limit", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--limit must be >= 0" in captured.err


def test_cli_weights_singular_moment_matrix(capsys):
    # lam vanishes on the A2 factor: A_lam is singular and its det is 0
    assert main(["weights", "A1xA2", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "\ndet              0\n" in out
    assert _field(out, "regular") == "False"


def test_cli_exact(capsys):
    args = ["exact", "--group", "A1", "--lam", "1", "--a", "1", "--N", "4"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_quad(capsys):
    args = ["quad", "--group", "A1", "--lam", "1", "--a", "1", "--N", "4"]
    assert main(args) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0,
                                                                   rel=1e-10)


def test_cli_asym(capsys):
    args = ["asym", "--group", "A1", "--lam", "1", "--a", "1", "--N", "100"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    want = 4 * 2 ** 100 / (math.sqrt(2 * math.pi) * 100 ** 1.5)
    assert data["value"] == pytest.approx(want, rel=1e-12)


def test_cli_converge(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("group = A1\nlambda = 1\na = 1\nb = 1\nN = 1:5\n"
                       "paths = exact, asymptotic\n")
    assert main(["converge", str(cfgfile)]) == 0
    data = json.loads(capsys.readouterr().out)
    exacts = [row["exact"] for row in data["rows"]]
    assert exacts == [oracles.catalan(n) for n in (1, 2, 3, 4, 5)]

    out = tmp_path / "r.csv"
    assert main(["converge", str(cfgfile), "--out", str(out),
                 "--format", "csv"]) == 0
    assert out.read_text().startswith("N,exact,")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_converge_output_is_byte_identical_to_seed(tmp_path, capsys,
                                                       fmt):
    # converge_seed.* were rendered by the convolution-based exact route
    cfg = str(DATA / "converge.cfg")
    want = (DATA / f"converge_seed.{fmt}").read_bytes()
    flags = [] if fmt == "json" else ["--format", fmt]
    assert main(["converge", cfg] + flags) == 0
    assert capsys.readouterr().out.encode() == want
    out = tmp_path / f"report.{fmt}"
    assert main(["converge", cfg, "--out", str(out)] + flags) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == want


def test_support_cap_refusal_becomes_row_note(monkeypatch):
    monkeypatch.setattr(harness, "_exact_values",
                        functools.partial(harness._exact_values,
                                          support_cap=3))
    cfg = ExperimentConfig(group="A1", lam=(1,), a=CycleType((1,)),
                           b=CycleType((1,)), schedule=(1, 6),
                           paths=("exact",))
    first, second = run_experiment(cfg).rows
    assert first.exact == 1 and first.notes == ()
    assert second.exact is None
    assert second.notes == (
        "exact skipped: Klimyk step 3: state of 2 highest weights times 2 "
        "weights is 4 pairs, over support_cap 3",)


def test_cli_quad_grid_with_wrong_axis_count_exits_2(capsys):
    for group, lam, grid, rank in (("A2", "1,0", "64", 2),
                                   ("A1", "1", "64,64", 1)):
        args = ["quad", "--group", group, "--lam", lam, "--a", "1",
                "--N", "2", "--grid", grid]
        assert main(args) == 2
        assert f"expected {rank}" in capsys.readouterr().err


def test_cli_quad_unequal_sizes_within_one_factor(capsys):
    # B2 spin, K_2: bandwidth (8, 8), default grid (9, 9); the fixed grid
    # has two different sizes on the axes of one simple factor
    args = ["quad", "--group", "B2", "--lam", "0,1", "--a", "1", "--b", "1",
            "--N", "2"]
    assert main(args) == 0
    default = float(capsys.readouterr().out)
    assert main(args + ["--grid", "14,12"]) == 0
    fixed = float(capsys.readouterr().out)
    assert fixed == pytest.approx(default, rel=1e-12)
    assert main(["exact"] + args[1:]) == 0
    assert fixed == pytest.approx(int(capsys.readouterr().out), rel=1e-12)


def test_converge_grid_with_wrong_axis_count_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("group = A2\nlambda = 1,0\na = 1\nN = 1:2\n"
                       "paths = quad\ngrid = 64\n")
    assert main(["converge", str(cfgfile)]) == 2
    assert "expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, shown", [
    ("N", "1,x", "1,x"),
    ("N", "1:x:2", "1:x:2"),
    ("f", "2:abc", "abc"),
    ("grid", "64,y", "64,y"),
    ("format", "xml", "xml"),
])
def test_converge_malformed_numbers_exit_2(tmp_path, capsys, key, value,
                                           shown):
    lines = {"group": "A1", "lambda": "1", "a": "1", "N": "1:3",
             "paths": "exact", key: value}
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert main(["converge", str(cfgfile)]) == 2
    assert repr(shown) in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
def test_non_finite_class_function_coefficient_exits_2(capsys, coeff):
    args = ["exact", "--group", "A2", "--lam", "1,1", "--a", "1", "--b", "1",
            "--N", "2", "--f", f"0,0:{coeff}"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad class-function coefficient "
                            f"{coeff!r} in '0,0:{coeff}'\n")


def test_cli_asym_e8_rho(capsys):
    args = ["asym", "--group", "E8", "--lam", "1,1,1,1,1,1,1,1", "--a", "1",
            "--N", "5"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 5


def _strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_cli_asym_past_the_float_range_prints_strict_json(capsys):
    # E8 rho, N = 100: the value overflows a float, its log does not
    args = ["asym", "--group", "E8", "--lam", "1,1,1,1,1,1,1,1", "--a", "1",
            "--N", "100"]
    assert main(args) == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["value"] is None
    assert data["log_abs_value"] == pytest.approx(7733.81388607627,
                                                  rel=1e-12)
    # a zero value keeps its 0.0, and its log (-inf) is written as null
    args = ["asym", "--group", "A1", "--lam", "1", "--a", "1", "--N", "3"]
    assert main(args) == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["value"] == 0.0 and data["log_abs_value"] is None


def test_cli_converge_past_the_float_range_prints_strict_json(tmp_path,
                                                             capsys):
    cfgfile = tmp_path / "e8.cfg"
    cfgfile.write_text("group = E8\nlambda = 1,1,1,1,1,1,1,1\na = 1\n"
                       "N = 40:60:10\npaths = asymptotic\n")
    assert main(["converge", str(cfgfile), "--format", "json"]) == 0
    rows = _strict_json(capsys.readouterr().out)["rows"]
    assert [r["N"] for r in rows] == [40, 50, 60]
    for row in rows:
        assert row["estimate"]["value"] is None
        assert math.isfinite(row["estimate"]["log_abs_value"])


@pytest.mark.parametrize("command", ["exact", "quad", "asym"])
def test_negative_power_index_exits_2_on_every_route(capsys, command):
    args = [command, "--group", "A1", "--lam", "1", "--a", "1", "--N", "-1"]
    assert main(args) == 2
    assert "power index N must be >= 0, got -1" in capsys.readouterr().err


def test_cli_error_codes(capsys):
    assert main(["info", "Z9"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["converge", "/nonexistent/exp.cfg"]) == 2
    capsys.readouterr()
    args = ["asym", "--group", "A1", "--lam", "0", "--a", "1", "--N", "4"]
    assert main(args) == 1
    assert "regular" in capsys.readouterr().err
    args = ["quad", "--group", "A1", "--lam", "1", "--a", "1", "--N", "1200"]
    assert main(args) == 1
    assert "budget" in capsys.readouterr().err


def test_cli_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("dimension formulas disagree")

    monkeypatch.setattr(harness, "route_value", broken)
    args = ["exact", "--group", "A1", "--lam", "1", "--a", "1"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == "internal error: dimension formulas disagree\n"

    def refused(*args, **kwargs):
        raise SupportCapExceeded("Klimyk step 1: over support_cap 0")

    monkeypatch.setattr(harness, "route_value", refused)
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: Klimyk step 1: over support_cap 0\n")


def test_cli_exact_applies_the_factors_of_the_scaled_type(monkeypatch,
                                                          capsys):
    # a = (1, 1) at N = 4 is Tr(g)^4 Tr(g^2)^4: the one-N route applies all
    # Tr(g) factors first, as moment_terms on a.scaled(N) does, so the
    # refusal names that order's step and state
    monkeypatch.setattr(harness, "_exact_values",
                        functools.partial(harness._exact_values,
                                          support_cap=6))
    args = ["exact", "--group", "A1", "--lam", "1", "--a", "1,1", "--b",
            "1,1", "--N", "4"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: Klimyk step 6: state of 4 highest weights times 2 weights "
        "is 8 pairs, over support_cap 6\n")


@pytest.mark.parametrize("a, builds", [((1,), 1), ((0, 1), 0)])
def test_sweep_builds_peak_data_once(monkeypatch, a, builds):
    # dim V, kappa(A^{-1} rho) and det A do not depend on N: each sweep
    # builds them once (none when the hypotheses fail and every row is
    # refused), and a second sweep builds them again
    calls = []
    real = asymptotics.a_lambda

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(asymptotics, "a_lambda", counted)
    cfg = ExperimentConfig(group="B2", lam=(1, 1), a=CycleType(a),
                           schedule=(1, 2, 5), paths=("asymptotic",))
    report = run_experiment(cfg)
    assert len(calls) == builds
    assert run_experiment(cfg).to_json() == report.to_json()
    assert len(calls) == 2 * builds
    rs = build_root_system("B2")
    one = harness.ClassFunction.one(rs.rank)
    for row in report.rows:
        if builds:
            assert row.estimate == harness.route_value(
                "asymptotic", rs, (1, 1), cfg.a, cfg.b, row.n, one)
        else:
            assert row.estimate is None
            assert row.notes[0].startswith("asymptotic skipped: ")


@pytest.mark.parametrize("b", [(), (1,)])
def test_sweep_evaluates_f_at_the_center_once(monkeypatch, b):
    # f at each central element does not depend on N: a sweep evaluates it
    # once per element, not once per row; a one-N call evaluates it itself
    calls = []
    real = asymptotics.ClassFunction.central_value

    def counted(self, rs, psi):
        calls.append(psi)
        return real(self, rs, psi)

    monkeypatch.setattr(asymptotics.ClassFunction, "central_value", counted)
    rs = build_root_system("A2")
    f = harness.ClassFunction((((0, 0), 2.0), ((1, 1), 3.0)))
    cfg = ExperimentConfig(group="A2", lam=(1, 1), a=CycleType((1,)),
                           b=CycleType(b), schedule=(1, 2, 3, 5), f=f,
                           paths=("asymptotic",))
    report = run_experiment(cfg)
    assert len(calls) == rs.center.order == 3
    for row in report.rows:
        assert row.estimate == harness.route_value(
            "asymptotic", rs, (1, 1), cfg.a, cfg.b, row.n, f)
    assert len(calls) == 3 + 3 * len(report.rows)
