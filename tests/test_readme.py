"""The README's examples, run as written.

The Python quick-start block is executed statement by statement: a code
line followed directly by a ``# value`` comment is an expression whose
``repr`` must be that value (text after two spaces is a gloss), and every
other statement is executed as it stands.  The command-line lines for
``liemoments exact`` and ``quad`` that end in ``# -> value`` are run
through ``cli.main`` and must print that value.  So a public name that
leaves the package, or a value that moves, fails here before it misleads a
reader.
"""

import pathlib
import re
import shlex

import pytest

from liemoments.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()


def _quick_start():
    block = re.search(r"## Quick start \(Python\)\n+```python\n(.*?)```",
                      README, re.S)
    assert block, "README has no Python quick-start block"
    return block.group(1).splitlines()


def _cli_examples():
    return re.findall(r"^liemoments ((?:exact|quad)\s.*?)\s+# -> (\S+)$",
                      README, re.M)


def test_quick_start_values_match_their_comments():
    namespace = {}
    code, checked = [], 0
    for line in _quick_start() + [""]:
        if line.startswith("#") and code:
            value = line[1:].strip().split("  ")[0]
            got = eval("\n".join(code), namespace)
            assert repr(got) == value, "\n".join(code)
            code, checked = [], checked + 1
        elif line.startswith("#") or not line.strip():
            if code:
                exec("\n".join(code), namespace)
            code = []
        else:
            code.append(line)
    assert checked >= 4


@pytest.mark.parametrize("args, value", _cli_examples())
def test_cli_example_prints_its_value(args, value, capsys):
    assert main(shlex.split(args)) == 0
    assert capsys.readouterr().out == value + "\n"


def test_readme_has_cli_examples_for_both_routes():
    assert {args.split()[0] for args, _ in _cli_examples()} == \
        {"exact", "quad"}
