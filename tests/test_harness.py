import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemoments import (asymptotics, charring, exactla, harness, repweights,
                        rootsys)
from liemoments.charring import CycleType, SupportCapExceeded
from liemoments.cli import main
from liemoments.harness import (ExperimentConfig, check_hypotheses,
                                fit_error_exponent, parse_class_function,
                                parse_schedule, parse_weight, run_experiment,
                                write_report)
from liemoments.rootsys import (ConfigurationError, build_root_system,
                                simple_factors)

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
    assert one == harness.ClassFunction.one(2)
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
    assert cfg.f == harness.ClassFunction.one(1)
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
    assert not v.problems_one_sided
    assert v.problems_two_sided        # unbalanced powers
    assert 2 % v.vanishing_period == 0
    assert 3 % v.vanishing_period != 0


def test_check_hypotheses_never_raises():
    rs = build_root_system("A1")
    v = check_hypotheses(rs, (0,), CycleType((0, 1)))
    assert not v.regular
    assert v.gcd_one_sided == 2
    assert v.problems_one_sided
    assert len(v.problems_one_sided) == 2
    d = v.to_dict()
    assert d["regular"] is False
    assert d["problems_one_sided"]


def test_check_hypotheses_balanced():
    rs = build_root_system("A2")
    v = check_hypotheses(rs, (1, 1), CycleType((1,)), CycleType((1,)))
    assert v.balanced and not v.problems_two_sided
    assert v.vanishing_period == 1     # (1,1) lies in the root lattice
    w = check_hypotheses(rs, (2, 1), CycleType((1,)), CycleType((1,)))
    assert not w.problems_two_sided
    assert w.vanishing_period == 3     # (2,1) generates the order-3 quotient
    assert 6 % w.vanishing_period == 0
    assert 4 % w.vanishing_period != 0


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


@pytest.mark.parametrize("group, lam, matrix, det", [
    ("F4", "1,1,1,1",
     "[['9/2', '-9/4', '0', '0'], ['-9/4', '9/2', '-9/2', '0'], "
     "['0', '-9/2', '9', '-9/2'], ['0', '0', '-9/2', '9']]", "6561/64"),
    ("A1xA2", "0,1,1",
     "[['0', '0', '0'], ['0', '3/2', '-3/4'], ['0', '-3/4', '3/2']]", "0"),
], ids=["F4-rho", "A1xA2-singular"])
def test_cli_weights_moment_matrix_and_det(capsys, group, lam, matrix, det):
    # A_lam and its det printed from the per-factor closed forms
    assert main(["weights", group, lam, "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert f"\nmoment matrix    {matrix}\ndet              {det}\n" in out


def test_cli_exact(capsys):
    args = ["exact", "--group", "A1", "--lam", "1", "--a", "1", "--N", "4"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_quad(capsys):
    args = ["quad", "--group", "A1", "--lam", "1", "--a", "1", "--N", "4"]
    assert main(args) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0,
                                                                   rel=1e-10)


def test_cli_quad_prints_the_readme_bits(capsys):
    # a one-N call sums on its own grid: the bits the README shows
    args = ["quad", "--group", "A2", "--lam", "1,0", "--a", "1", "--N", "3"]
    assert main(args) == 0
    assert capsys.readouterr().out == "0.9999999999999996\n"


def test_cli_quad_answers_a_zero_moment_with_a_large_integrand(capsys):
    # omega_2 is not in the root lattice and rho is, so the moment is 0;
    # the terms of the sum are far larger than 0, and the imaginary
    # residual's tolerance follows their scale, not the value's
    args = ["quad", "--group", "A2", "--lam", "1,1", "--a", "", "--b", "1",
            "--N", "11", "--f", "0,1:1"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert abs(float(captured.out)) <= 1e-9
    assert main(["exact"] + args[1:]) == 0
    assert capsys.readouterr().out == "0\n"


def test_cli_asym(capsys):
    args = ["asym", "--group", "A1", "--lam", "1", "--a", "1", "--N", "100"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    want = 4 * 2 ** 100 / (math.sqrt(2 * math.pi) * 100 ** 1.5)
    assert data["value"] == pytest.approx(want, rel=1e-12)


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# strings the writer's splicing must not be fooled by: quotes, escapes,
# raw newlines and NULs, the placeholder itself and a whole splice prefix
_AWKWARD = ("", "null", '"', "\\", "\n", "\x00", "\u00e9t\u00e9 \u65e5",
            '\n  "estimate": null', '"a": null,\n  ', "{}", "[\n]")
_TEXT = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=6))
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.sampled_from([2 ** 64, -2 ** 64 - 1, -0.0, 1e-300, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False))
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=25)


@given(_TREES)
@example({"estimate": None, "notes": ['\n  "estimate": null'],
          "rows": [{"estimate": {"N": 1}}, {}, []]})
@example([[[]], {"": {"null": [{}]}}, (), "\x00"])
@example([{0.5: [1], 2: {"a": [1]}, 2 ** 70: {}}, {None: {"b": [1]}},
          {False: [0], True: {"c": ()}}])
def test_json_writer_is_json_dumps(obj):
    assert harness._json_text(obj) == _dumps(obj)


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (object(), TypeError), ({1, 2}, TypeError), (1j, TypeError)])
@pytest.mark.parametrize("wrap", [
    lambda x: x, lambda x: [x], lambda x: {"a": 1, "b": x},
    lambda x: {"rows": [{"estimate": {"N": 1, "value": x}}]},
    lambda x: [[1, {"a": [2, x]}], "s"]])
def test_json_writer_refuses_what_json_dumps_refuses(bad, error, wrap):
    for write in (_dumps, harness._json_text):
        with pytest.raises(error):
            write(wrap(bad))


@pytest.mark.parametrize("args", [
    ["--group", "E8", "--lam", "1,1,1,1,1,1,1,1", "--a", "1", "--N", "100"],
    ["--group", "A2", "--lam", "1,1", "--a", "1", "--N", "6"]])
def test_cli_asym_prints_the_json_dumps_bytes(capsys, args):
    assert main(["asym"] + args) == 0
    out = capsys.readouterr().out
    rs = build_root_system(args[1])
    est = harness.route_value("asymptotic", rs, parse_weight(args[3]),
                              CycleType((1,)), CycleType(()), int(args[-1]),
                              parse_class_function("1", rs.rank))
    assert out == _dumps(est.to_dict()) + "\n"
    assert (json.loads(out)["value"] is None) == (args[1] == "E8")


def test_reports_never_take_the_python_json_encoder(monkeypatch, capsys):
    # json.dumps with indent runs json.encoder._make_iterencode, the pure
    # Python encoder; reports of every route and `liemoments asym` do not
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1]}, indent=2)
    for paths in ("exact", "quad", "asymptotic"):
        cfg = ExperimentConfig.from_mapping(
            {"group": "A1xA2", "lambda": "1,1,1", "a": "1", "b": "1",
             "n": "1,2", "f": "0,0,0:2; 0,1,1:3", "paths": paths})
        report = run_experiment(cfg)
        assert json.loads(report.to_json(include_timings=True))["rows"]
        assert report.render() == report.to_json()
    assert main(["asym", "--group", "A2", "--lam", "1,1", "--a", "1",
                 "--N", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 6


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
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 3)
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


@pytest.mark.parametrize("group, lam, grid", [("A1", "1", "0"),
                                              ("A1", "1", "-5"),
                                              ("A2", "1,0", "64,0")])
def test_cli_quad_non_positive_grid_size_exits_2(capsys, group, lam, grid):
    args = ["quad", "--group", group, "--lam", lam, "--a", "1", "--N", "2",
            f"--grid={grid}"]
    assert main(args) == 2
    assert capsys.readouterr().err == \
        f"error: grid {grid!r} has a size below 1\n"


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
    ("grid", "0", "0"),
    ("grid", "-5", "-5"),
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


@pytest.mark.parametrize("grid", [0, -5, "0"])
def test_config_mapping_refuses_a_grid_size_below_1(grid):
    # an integer 0 is a grid size, not a missing grid
    mapping = {"group": "A1", "lambda": "1", "a": "1", "N": "1:2",
               "paths": "quad", "grid": grid}
    with pytest.raises(ConfigurationError, match="has a size below 1"):
        ExperimentConfig.from_mapping(mapping)
    mapping["grid"] = None
    assert ExperimentConfig.from_mapping(mapping).grid_sizes is None


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
    # Tr(g) factors first, as exact_moment on a.scaled(N) does, so the
    # refusal names that order's step and state
    monkeypatch.setattr(charring, "_SUPPORT_CAP", 6)
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


@pytest.mark.parametrize("group, lam, a, b, terms, schedule", [
    # the asym-f4 and exact-product benchmark shapes
    ("F4", (1, 1, 1, 1), (1,), (), (((0, 0, 0, 0), 5.0),), range(1, 9)),
    ("A1xA2", (1, 1, 1), (1,), (1,),
     (((0, 0, 0), 2.0), ((0, 1, 1), 4.0)), range(1, 7)),
    # E8 rho: dim^N overflows from N = 9 and the prefactor from N = 46,
    # the branches of asymptotics._leading_core
    ("E8", (1,) * 8, (1,), (), (((0,) * 8, 1.0),), (9, 46, 10 ** 4)),
])
def test_sweep_rows_equal_one_n_calls(monkeypatch, group, lam, a, b, terms,
                                      schedule):
    # a sweep builds the peak data once, and each of its rows has the bits
    # of the one-N call, which builds its own
    calls = []
    real = asymptotics.a_lambda

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(asymptotics, "a_lambda", counted)
    rs = build_root_system(group)
    f = harness.ClassFunction(terms)
    cfg = ExperimentConfig(group=group, lam=lam, a=CycleType(a),
                           b=CycleType(b), schedule=tuple(schedule), f=f,
                           paths=("asymptotic",))
    report = run_experiment(cfg)
    assert len(calls) == 1
    assert [row.n for row in report.rows] == list(schedule)
    for row in report.rows:
        want = harness.route_value("asymptotic", rs, lam, cfg.a, cfg.b,
                                   row.n, f)
        assert repr(row.estimate) == repr(want)
    assert len(calls) == 1 + len(report.rows)


@pytest.mark.parametrize("b", [(), (1,)])
def test_sweep_evaluates_f_at_the_center_once(monkeypatch, b):
    # f at each central element does not depend on N: a sweep evaluates it
    # once per element, not once per row; a one-N call evaluates it itself
    calls = []
    real = asymptotics._central_values

    def counted(rs, f, center):
        calls.extend(center)
        return real(rs, f, center)

    monkeypatch.setattr(asymptotics, "_central_values", counted)
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


_SWEEP_GROUPS = ("A1", "A2", "A3", "B2", "C3", "G2", "F4", "A1xA2", "A1xA3")


def _asymptotic_config(group, lam, a, b, terms, schedule):
    return ExperimentConfig(group=group, lam=lam, a=CycleType(a),
                            b=CycleType(b), schedule=schedule,
                            f=harness.ClassFunction(terms),
                            paths=("asymptotic",))


@st.composite
def asymptotic_sweeps(draw):
    """An asymptotic sweep whose hypotheses hold: a regular lam, a with
    a_1 >= 1 (so gcd 1), b empty, equal to a, or one k_a-th power trace
    (so k_b = k_a), and f terms whose highest weights need not lie in the
    root lattice, so their central phases vary."""
    group = draw(st.sampled_from(_SWEEP_GROUPS))
    rank = build_root_system(group).rank
    lam = draw(st.tuples(*[st.integers(1, 3)] * rank))
    a = (draw(st.integers(1, 2)),) + tuple(
        draw(st.lists(st.integers(0, 2), max_size=2)))
    k_a = CycleType(a).weight
    b = draw(st.sampled_from([(), a, (0,) * (k_a - 1) + (1,)]))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * rank),
                  st.sampled_from([1.0, -2.0, 0.5, 3.0])),
        min_size=1, max_size=2, unique_by=lambda term: term[0]))
    schedule = draw(st.sets(st.integers(1, 12), min_size=1, max_size=4))
    return _asymptotic_config(group, lam, a, b, tuple(terms),
                              tuple(sorted(schedule)))


@settings(max_examples=60)
@given(asymptotic_sweeps())
# the phases of lam and of f's term (1, 0) at the center of A2 are cube
# roots of unity
@example(_asymptotic_config("A2", (1, 2), (1,), (), (((1, 0), 2.0),),
                            (1, 2, 3, 4)))
# E8 rho: dim^N overflows from N = 9 (the value comes from the logs) and
# (2 pi N)^{dim G / 2} sqrt(det A) from N = 46 (the log prefactor)
@example(_asymptotic_config("E8", (1,) * 8, (1,), (), (((0,) * 8, 1.0),),
                            (8, 9, 45, 46, 100)))
@example(_asymptotic_config("E8", (1,) * 8, (1,), (1,), (((0,) * 8, 1.0),),
                            (5, 9, 30, 46)))
def test_sweep_rows_have_the_bits_of_one_n_estimates(cfg):
    # a sweep derives the peak's floats once and reuses them on every row;
    # each row has the bits of the one-N estimate, which derives its own
    rs = build_root_system(cfg.group)
    report = run_experiment(cfg)
    assert [row.n for row in report.rows] == list(cfg.schedule)
    for row in report.rows:
        assert row.notes == ()
        want = harness.route_value("asymptotic", rs, cfg.lam, cfg.a, cfg.b,
                                   row.n, cfg.f)
        assert row.estimate.to_dict() == want.to_dict()
        assert repr(row.estimate) == repr(want)
        assert (row.estimate.log_abs_value().hex()
                == want.log_abs_value().hex())


def test_warm_sweep_eliminates_nothing_and_takes_logs_once(monkeypatch):
    # the Cartan minors are memoised per datum, and the peak's logs are
    # taken once per sweep, not per row: a warm F4 rho sweep (the asym-f4
    # benchmark shape, rendered) makes no elimination, and 16 rows take as
    # many logs of Fractions as 8
    def sweep(rows):
        cfg = _asymptotic_config("F4", (1,) * 4, (1,), (),
                                 (((0,) * 4, 5.0),), tuple(range(1, rows + 1)))
        return run_experiment(cfg).to_json()

    sweep(8)
    eliminations, logs = [], []
    eliminate, log_fraction = exactla.eliminate, asymptotics._log_fraction

    def counted_eliminate(mat, columns=()):
        eliminations.append(mat)
        return eliminate(mat, columns)

    def counted_log(fr):
        logs.append(fr)
        return log_fraction(fr)

    for module in (exactla, asymptotics, repweights, rootsys):
        monkeypatch.setattr(module, "eliminate", counted_eliminate)
    monkeypatch.setattr(asymptotics, "_log_fraction", counted_log)
    sweep(8)
    assert eliminations == []
    eight = len(logs)
    sweep(16)
    assert eliminations == []
    assert len(logs) == 2 * eight

def _count_quadrature_work(monkeypatch):
    """Record the grid size m of every alcove walk, and the grid size and
    point count of every character synthesis of quadrature."""
    from liemoments import torusquad
    walks, syntheses = [], []
    walk, synthesis = torusquad._alcove_factor, torusquad.character_at

    def counted_walk(rs, m):
        walks.append(m)
        return walk(rs, m)

    def counted_synthesis(ws, k, m):
        syntheses.append((m, len(k)))
        return synthesis(ws, k, m)

    monkeypatch.setattr(torusquad, "_alcove_factor", counted_walk)
    monkeypatch.setattr(torusquad, "character_at", counted_synthesis)
    return torusquad, walks, syntheses


def test_quad_sweep_shares_alcoves_across_bands_of_rows(monkeypatch):
    # the quad-rank3 benchmark sweep: one alcove walk at the largest size
    # serves the bands {14, 12}, {10, 8}, {6}, {4} and {2}; each band
    # synthesises chi once on its own grid (chi_0 = 1 is not synthesised)
    torusquad, walks, syntheses = _count_quadrature_work(monkeypatch)
    rs = build_root_system("A3")
    lam, a = (1, 0, 1), CycleType((1,))
    f = harness.ClassFunction((((0, 0, 0), 3.0),))
    cfg = ExperimentConfig(group="A3", lam=lam, a=a, b=a,
                           schedule=tuple(range(2, 15, 2)), f=f,
                           paths=("quad",))
    rows = run_experiment(cfg).rows
    # 42 is N = 14's default size
    assert walks == [42] and len(syntheses) == 5
    sizes = [m for m, _ in syntheses]
    assert sorted(sizes) == sorted(set(sizes))
    # each band synthesises on exactly the alcove of its own size
    for m, points in syntheses:
        assert points == len(oracles.alcove_by_filter(rs, m))
    for row in rows:
        own = torusquad.default_grid(rs, lam, a, a, row.n, f).sizes[0]
        # the row is summed on the smallest band grid above its own
        # certificate, with at most twice its own grid's torus points
        m = min(s for s in sizes if s >= own)
        assert m ** rs.rank <= 2 * own ** rs.rank
        want = harness.route_value("quad", rs, lam, a, a, row.n, f)
        assert row.quad == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("group, lam, terms, schedule, products, evals", [
    # quad-rank3: A3's positive roots and lambda's weights; five bands
    # synthesise chi
    ("A3", (1, 0, 1), (((0, 0, 0), 3.0),), range(2, 15, 2), 2, 5),
    # the quad route of exact-product: roots and weights on A1 and on A2;
    # the A2 projection (1, 1) of f is lambda's, so chi_nu reads lambda's
    # phases; four bands synthesise chi on A1, and chi and chi_nu on A2
    ("A1xA2", (1, 1, 1), (((0, 0, 0), 2.0), ((0, 1, 1), 5.0)), range(1, 7),
     4, 12),
])
def test_quad_sweep_forms_each_phase_matrix_once(monkeypatch, group, lam,
                                                 terms, schedule, products,
                                                 evals):
    # one integer phase product per vector set and simple factor, on the
    # whole walk; every band reads its prefix of it (when each band formed
    # its own, these sweeps made 10 and 20)
    torusquad, walks, syntheses = _count_quadrature_work(monkeypatch)
    formed, product = [], torusquad._phases
    monkeypatch.setattr(torusquad, "_phases", lambda k, v: formed.append(
        len(k)) or product(k, v))
    rs, a = build_root_system(group), CycleType((1,))
    cfg = ExperimentConfig(group=group, lam=lam, a=a, b=a,
                           schedule=tuple(schedule),
                           f=harness.ClassFunction(terms), paths=("quad",))
    run_experiment(cfg)
    assert len(formed) == products
    assert len(syntheses) == evals
    assert set(formed) == {len(oracles.alcove_by_filter(rs_k, m)) for
                           (_, rs_k), m in zip(simple_factors(rs), walks)}


def test_quad_sweep_on_a_caller_grid_walks_once_per_factor(monkeypatch):
    torusquad, walks, syntheses = _count_quadrature_work(monkeypatch)
    rs = build_root_system("A1xA2")
    lam, a = (1, 1, 1), CycleType((1,))
    f = harness.ClassFunction((((0, 0, 0), 2.0), ((0, 1, 1), 5.0)))
    sizes = torusquad.default_grid(rs, lam, a, a, 4, f).sizes
    cfg = ExperimentConfig(group="A1xA2", lam=lam, a=a, b=a,
                           schedule=(1, 2, 4), f=f, paths=("quad",),
                           grid_sizes=sizes)
    rows = run_experiment(cfg).rows
    assert walks == [sizes[0], sizes[1]]
    # per factor: chi, and chi_nu for each distinct nontrivial projection
    # of f (A1: none; A2: (1, 1))
    assert len(syntheses) == (1 + 0) + (1 + 1)
    for row in rows:
        assert row.quad == harness.route_value("quad", rs, lam, a, a, row.n,
                                               f, sizes)
