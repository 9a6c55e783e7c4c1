"""Write quad_bits.json: the repr of each quadrature value below, or the
text of its refusal, so that a change to the quadrature's arithmetic shows
as a changed byte.

    PYTHONPATH=src python tests/data/quad_bits.py

test_torusquad.py recomputes the rows and compares the bytes.
"""

import json
import math
from pathlib import Path
from unittest import mock

from liemoments import torusquad
from liemoments.asymptotics import ClassFunction
from liemoments.charring import CycleType
from liemoments.rootsys import build_root_system
from liemoments.torusquad import (GridError, TorusGrid, default_grid,
                                  quad_I_N, quad_K_N, quad_sequence)

PATH = Path(__file__).with_suffix(".json")
NONE, ONE, TWO = CycleType(()), CycleType((1,)), CycleType((0, 1))


def _text(value):
    return str(value) if isinstance(value, GridError) else repr(value)


def _one(call):
    try:
        return _text(call())
    except GridError as exc:
        return _text(exc)


def _sweep(name, spec, lam, a, b, ns, f=None, grid=None):
    rs = build_root_system(spec)
    values = quad_sequence(rs, lam, a, b, ns, f=f, grid=grid)
    return [[f"{name} N={n}", _text(v)] for n, v in zip(ns, values)]


def rows():
    a2, a3 = build_root_system("A2"), build_root_system("A3")
    a1 = build_root_system("A1")
    product = ClassFunction((((0, 0, 0), 2.0), ((0, 1, 1), 5.0)))
    sizes = default_grid(build_root_system("A1xA2"), (1, 1, 1), ONE, ONE,
                         4, product).sizes
    out = [["README A2 (1,0) I_3", _one(lambda: quad_I_N(a2, (1, 0), ONE,
                                                         3))]]
    out += _sweep("A3 (1,0,1) K, f = 3", "A3", (1, 0, 1), ONE, ONE,
                  range(2, 15, 2), ClassFunction((((0, 0, 0), 3.0),)))
    out += [[f"A3 (1,0,1) K one-N N={n}",
             _one(lambda: quad_K_N(a3, (1, 0, 1), ONE, ONE, n))]
            for n in (12, 10)]
    out += _sweep("A1xA2 (1,1,1) K, f = 2 + 5 chi(0,1,1)", "A1xA2",
                  (1, 1, 1), ONE, ONE, range(1, 7), product)
    out += _sweep(f"A1xA2 (1,1,1) K on {sizes}", "A1xA2", (1, 1, 1), ONE,
                  ONE, (1, 2, 4), product, TorusGrid(sizes))
    out += _sweep("G2xA1 (1,0,1) Tr(g^2) conj Tr(g)", "G2xA1", (1, 0, 1),
                  TWO, ONE, (1, 2, 3),
                  ClassFunction((((0, 0, 0), 1.0), ((1, 0, 1), -2.0))))
    out += _sweep("A2 (1,1) conj Tr(g), f = chi(0,1)", "A2", (1, 1), NONE,
                  ONE, (0, 1, 2, 7, 11), ClassFunction((((0, 1), 1.0),)))
    out += _sweep("F4 adjoint K", "F4", (1, 0, 0, 0), ONE, ONE, (1, 2))
    out += [["A2 (1,0) K_2 on (5, 5)",
             _one(lambda: quad_K_N(a2, (1, 0), ONE, ONE, 2,
                                   grid=TorusGrid((5, 5))))]]
    # a constant phase e^(i pi / 4) on every character leaves the
    # one-sided A1 integral of chi^2 with imaginary part 1
    phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    synthesis = torusquad.character_at
    with mock.patch.object(torusquad, "character_at",
                           lambda ws, k, m: synthesis(ws, k, m) * phase):
        out += [["A1 (1) I_2, phase e^(i pi/4)",
                 _one(lambda: quad_I_N(a1, (1,), ONE, 2))]]
    return out


def text():
    return json.dumps(rows(), indent=1) + "\n"


if __name__ == "__main__":
    PATH.write_text(text())
