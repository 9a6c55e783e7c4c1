"""Shared pytest wiring: one hypothesis profile for every property test,
and per-criterion verdict lines for the acceptance suite.  Every test in
test_acceptance.py contributes exactly one ``ACCEPTANCE <name>: PASS|FAIL``
line to the terminal summary."""

import pytest
from hypothesis import settings

# Examples are exact computations whose cost varies by orders of magnitude
# across groups, so no per-example deadline; a failure prints the
# @reproduce_failure blob that replays it.
settings.register_profile("liemoments", deadline=None, print_blob=True)
settings.load_profile("liemoments")

_ACCEPTANCE_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if "test_acceptance.py" not in str(item.fspath):
        return
    name = item.name
    if name.startswith("test_"):
        name = name[len("test_"):]
    if rep.when == "call":
        _ACCEPTANCE_RESULTS[name] = rep.passed
    elif rep.failed:  # setup/teardown error counts as a failure
        _ACCEPTANCE_RESULTS[name] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    for name, ok in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(
            f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
