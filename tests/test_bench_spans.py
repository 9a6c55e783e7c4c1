"""The benchmark's tracer patches package functions by name; loading it
here makes a rename or deletion of any patched name fail the test suite,
not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from liemoments import (asymptotics, charring, harness, repweights, rootsys,
                        torusquad)
from liemoments.charring import CycleType

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
_MODULES = (asymptotics, charring, harness, repweights, rootsys, torusquad)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_attribute():
    before = {m.__name__: dict(vars(m)) for m in _MODULES}
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        patched = {(m.__name__, name) for m in _MODULES
                   for name, value in vars(m).items()
                   if value is not before[m.__name__].get(name)}
        assert ("liemoments.charring", "product") in patched
        assert ("liemoments.torusquad", "quad_I_N") in patched
        assert ("liemoments.harness", "leading_term_I") in patched
    finally:
        tracer.uninstall()
    for m in _MODULES:
        after = vars(m)
        assert after.keys() == before[m.__name__].keys()
        assert all(after[name] is value
                   for name, value in before[m.__name__].items()), m.__name__


def test_a_traced_one_sided_quadrature_call_is_one_quad_span():
    # quad_I_N and quad_K_N are both wrapped, so neither may call the
    # other: a nested span would count the call twice, and the inner
    # tracemalloc.stop() would leave the outer call's peak at 0
    rs = rootsys.build_root_system("A2")
    tracer = _load_spans().Tracer()
    tracer.track_memory = True
    tracer.install()
    try:
        value = torusquad.quad_I_N(rs, (1, 1), CycleType((1,)), 3,
                                   grid=torusquad.TorusGrid((20, 20)))
    finally:
        tracer.uninstall()
    counts = tracer.counts[None]
    assert [span[1] for span in tracer.spans].count("torusquad.quad") == 1
    assert counts["torusquad.quad.calls"] == 1
    assert counts["torusquad.peak_bytes_per_point"] > 0
    assert value == 2.0000000000000004
