"""Workload definitions and seeded config generation.

Each workload is one convergence sweep that puts most of its time in a
different module of ``liemoments``; ``BENCHMARK.json`` records why each
was chosen.  A seed draws only the integer coefficients of the
class-function terms: the highest weights, cycle types, schedule and routes
stay fixed, so every seed has the same cost class, and every value stays an
exact linear combination of per-term values frozen in ``frozen.json``.
The program sees only the generated config mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    group: str
    lam: str
    a: str
    b: str
    schedule: str
    paths: str
    terms: tuple        # highest weights of the class-function terms
    coeffs: tuple       # coefficient choices a seed draws from, per term
    kernel: str         # reference kernel in speed.py with similar work

    def mapping(self, seed, max_rows=None):
        """Config mapping for ``ExperimentConfig.from_mapping`` and the
        coefficients the seed drew (one per term)."""
        rng = random.Random(f"{self.name}:{seed}")
        coeffs = tuple(rng.choice(self.coeffs) for _ in self.terms)
        ns = schedule_values(self.schedule)
        if max_rows is not None:
            ns = ns[:max_rows]
        return {
            "group": self.group,
            "lambda": self.lam,
            "a": self.a,
            "b": self.b,
            "n": ",".join(str(n) for n in ns),
            "f": "; ".join(f"{t}:{c}" for t, c in zip(self.terms, coeffs)),
            "paths": self.paths,
        }, coeffs

    def set_up(self):
        """The set-up work: the root system and a weight system for every
        highest weight the sweep uses (lambda and the class-function
        terms).  Weight systems are the package's only cache, so sweeps
        after this are warm."""
        from liemoments import repweights, rootsys
        rs = rootsys.build_root_system(self.group)
        for weight in dict.fromkeys((self.lam,) + self.terms):
            repweights.weight_system(rs, tuple(int(c)
                                               for c in weight.split(",")))


def schedule_values(text):
    """Values of an inclusive ``start:stop:step`` range (the only schedule
    form the workloads use)."""
    start, stop, step = (int(x) for x in text.split(":"))
    return list(range(start, stop + 1, step))


# Coefficient 1 on a lone trivial term would make the class function the
# constant 1, which takes a different code path; single-term workloads draw
# from 2..9 so that every seed runs the same code.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="exact-product", group="A1xA2", lam="1,1,1", a="1", b="1",
        schedule="1:6:1", paths="exact,quad,asymptotic",
        terms=("0,0,0", "0,1,1"), coeffs=tuple(range(1, 6)),
        kernel="python"),
    Workload(
        name="quad-rank3", group="A3", lam="1,0,1", a="1", b="1",
        schedule="2:14:2", paths="quad",
        terms=("0,0,0",), coeffs=tuple(range(2, 10)), kernel="numpy"),
    Workload(
        name="asym-f4", group="F4", lam="1,1,1,1", a="1", b="",
        schedule="1:8:1", paths="asymptotic",
        terms=("0,0,0,0",), coeffs=tuple(range(2, 10)),
        kernel="python"),
)}
