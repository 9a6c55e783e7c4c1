"""Write exact_chains.json: the rows of a few exact Klimyk chains, each an
integer list or the text of its refusal, so that a change to the chain's
arithmetic shows as a changed byte.

    PYTHONPATH=src python tests/data/exact_chains.py

test_charring.py recomputes the rows and compares the bytes.
"""

import json
from pathlib import Path
from unittest import mock

from liemoments import charring
from liemoments.charring import CycleType, SupportCapExceeded, moment_sequence
from liemoments.rootsys import build_root_system

PATH = Path(__file__).with_suffix(".json")
ONE = CycleType((1,))


def _chain(name, spec, lam, a, b, ns, weights=None):
    rs = build_root_system(spec)
    rows = moment_sequence(rs, lam, a, b, ns, weights)
    return [[f"{name} N={n}",
             str(row) if isinstance(row, SupportCapExceeded) else row]
            for n, row in zip(ns, rows)]


def rows():
    out = _chain("A3 rho K", "A3", (1, 1, 1), ONE, ONE, range(1, 9))
    out += _chain("G2 rho K, f = chi(1,0) + chi(0,1)", "G2", (1, 1), ONE,
                  ONE, range(1, 13), [(1, 0), (0, 1)])
    out += _chain("B3 (1,0,1) K", "B3", (1, 0, 1), ONE, ONE, range(1, 7))
    out += _chain("A2 (2,1) Tr(g) Tr(g^2) conj Tr(g^2)", "A2", (2, 1),
                  CycleType((1, 1)), CycleType((0, 1)), (1, 2, 3, 5),
                  [(0, 0), (2, 1), (1, 0), (0, 1), (1, 1)])
    # budgets low enough that a nu step is refused on its own row, and
    # that the chain is refused part way, which answers every later row
    for cap in (1000, 100):
        with mock.patch.object(charring, "_SUPPORT_CAP", cap):
            out += _chain(f"A2 (1,1) K, cap {cap}", "A2", (1, 1), ONE, ONE,
                          (1, 2, 3, 5, 6, 8), [(0, 0), (3, 3)])
    return out


def text():
    return json.dumps(rows(), indent=1) + "\n"


if __name__ == "__main__":
    PATH.write_text(text())
