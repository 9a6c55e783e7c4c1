"""Write info.txt: the output of ``liemoments info`` for every supported
simple type and a few products, each under a ``$ liemoments info GROUP``
line, so that a change to the printed root datum or to the order of the
center's elements shows as a changed byte.

    PYTHONPATH=src python tests/data/info.py

test_harness.py runs each command again and compares its section.
"""

import contextlib
import io
from pathlib import Path

from liemoments.cli import main

PATH = Path(__file__).with_suffix(".txt")
GROUPS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
          + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
          + ["E6", "E7", "E8", "F4", "G2"]
          + ["A1xA1", "A1xA2", "A2xA2", "A3xA1", "D4xA1"])
PROMPT = "$ liemoments info "


def output(group):
    """What ``liemoments info GROUP`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["info", group]) == 0
    return out.getvalue()


def sections(text):
    """{group: output} from the text of info.txt."""
    out = {}
    for block in text.split(PROMPT)[1:]:
        group, _, body = block.partition("\n")
        out[group] = body
    return out


def text():
    return "".join(f"{PROMPT}{group}\n{output(group)}" for group in GROUPS)


if __name__ == "__main__":
    PATH.write_text(text())
