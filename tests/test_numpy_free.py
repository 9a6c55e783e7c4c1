"""Only quadrature needs numpy: the package imports, and the exact and
asymptotic routes run, in an interpreter that cannot import it."""

import contextlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import liemoments
from liemoments import torusquad
from liemoments.cli import main
from liemoments.harness import ExperimentConfig, run_experiment

COMMANDS = (
    ["info", "E8"],
    ["weights", "A2", "1,1"],
    ["exact", "--group", "A1xA2", "--lam", "1,1,1", "--a", "1", "--b", "1",
     "--N", "3", "--f", "0,0,0:2; 0,1,1:3"],
    ["asym", "--group", "F4", "--lam", "1,1,1,1", "--a", "1", "--N", "4"],
)
SWEEPS = (
    {"group": "A1xA2", "lambda": "1,1,1", "a": "1", "b": "1", "n": "1:4:1",
     "f": "0,0,0:2; 0,1,1:3", "paths": "exact"},
    {"group": "F4", "lambda": "1,1,1,1", "a": "1", "n": "1:8:1",
     "paths": "asymptotic"},
)

# Runs COMMANDS and SWEEPS (argv[2], argv[3]) and prints their outputs.
# With argv[1] == "block", every import of numpy raises ImportError.
_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from liemoments.cli import main
from liemoments.harness import ExperimentConfig, run_experiment
out = {"commands": [], "sweeps": []}
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out["commands"].append([code, buf.getvalue()])
for mapping in json.loads(sys.argv[3]):
    cfg = ExperimentConfig.from_mapping(mapping)
    out["sweeps"].append(run_experiment(cfg).to_json())
out["numpy_loaded"] = sys.modules.get("numpy") is not None
print(json.dumps(out))
"""


def _in_process():
    out = {"commands": [], "sweeps": []}
    for argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        out["commands"].append([code, buf.getvalue()])
    for mapping in SWEEPS:
        cfg = ExperimentConfig.from_mapping(mapping)
        out["sweeps"].append(run_experiment(cfg).to_json())
    return out


@pytest.mark.parametrize("mode", ["block", "fresh"])
def test_exact_and_asymptotic_routes_run_without_numpy(mode):
    src = str(Path(liemoments.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode, json.dumps(COMMANDS),
         json.dumps(SWEEPS)],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # a fresh interpreter that could load numpy does not
    assert got.pop("numpy_loaded") is False
    want = _in_process()
    assert [code for code, _ in got["commands"]] == [0] * len(COMMANDS)
    assert got == want


def test_quadrature_names_resolve_to_torusquad():
    assert liemoments.quad_K_N is torusquad.quad_K_N
    assert liemoments.GridError is torusquad.GridError
    assert set(liemoments._QUADRATURE_NAMES) <= set(dir(liemoments))
    # every lazy name is public and is torusquad's own attribute, so a name
    # left behind when torusquad drops it fails here
    for name in liemoments._QUADRATURE_NAMES:
        assert name in liemoments.__all__, name
        assert getattr(liemoments, name) is getattr(torusquad, name), name
    with pytest.raises(AttributeError, match="no attribute 'quad_X_N'"):
        liemoments.quad_X_N


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from liemoments import *", namespace)
    missing = [name for name in liemoments.__all__ if name not in namespace]
    assert not missing
    assert namespace["quad_sequence"] is torusquad.quad_sequence
    # and every public name the package binds, submodules aside, is listed
    bound = [name for name, value in vars(liemoments).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)]
    unlisted = sorted(set(bound) - set(liemoments.__all__))
    assert not unlisted, unlisted
