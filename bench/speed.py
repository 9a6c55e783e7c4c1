"""Machine-speed sampling: timings in reference seconds.

On a shared machine the same sweep can take twice as long from one minute
to the next, and the machine switches between fast and slow states within
seconds, faster than a sweep lasts.  ``Sampler.measure`` therefore times a
small fixed kernel from a SIGALRM handler every ``INTERVAL_S`` while the
measured call runs, in the same process, so the samples see the states the
call sees.  The kernel never changes and shares no code with the package;
its work resembles the workload's: pure-Python dicts and Fractions
(``python``, like ``charring.product``, ``repweights.a_lambda`` and the
set-up) or a phase matrix and a Python complex sum (``numpy``, like
``torusquad``).

The call's wall time minus the handler's time, multiplied by
``REFERENCE_S[kind]`` over the mean kernel time, reads as seconds at the
speed where the kernel takes ``REFERENCE_S[kind]``.  On a 2-core Xeon
container the per-sweep spread (quartile distance over median) of this
figure was 3-4% where the wall time's was 10-15%.

This module imports numpy only when the ``numpy`` kernel first runs, so a
fresh interpreter can use the ``python`` kernel to time its own imports.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Kernel seconds in the machine's fast state (2-core Intel Xeon container,
# Python 3.11, numpy 2.4).
REFERENCE_S = {"python": 0.0012, "numpy": 0.0015}

_A = {(i % 13 - 6, i % 7 - 3, i % 5 - 2): i % 3 + 1 for i in range(91)}
_B = {(i % 11 - 5, i % 3 - 1, i % 9 - 4): i % 4 + 1 for i in range(60)}
_A_HEAD = list(_A.items())[:12]


def _python_kernel():
    out = {}
    for w1, m1 in _A_HEAD:
        for w2, m2 in _B.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            out[w] = out.get(w, 0) + m1 * m2
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 7)
    return len(out), total


@functools.cache
def _numpy_data():
    import numpy as np
    points = np.random.default_rng(0).random((200, 3))
    phases = np.array(list(_A), dtype=float)
    mults = np.array(list(_A.values()), dtype=float)
    return np, points, phases, mults


def _numpy_kernel():
    np, points, phases, mults = _numpy_data()
    values = np.exp(2j * np.pi * (points @ phases.T)) @ mults
    values = values ** 4 * np.conj(values) ** 2
    s = c = complex(0, 0)
    for v in values.tolist():
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class Sampler:
    """Measures calls in reference seconds; keeps every kernel time."""

    def __init__(self, kind):
        self.kind = kind
        self.kernel_s = []

    def sample(self, *_):
        """Time one kernel run now (also the SIGALRM handler)."""
        t0 = time.perf_counter()
        KERNELS[self.kind]()
        self.kernel_s.append(time.perf_counter() - t0)

    def measure(self, fn):
        """Call ``fn`` with the sampler running.

        Returns ``(result, reference_s, wall_s)``: ``wall_s`` excludes the
        handler's time.  One sample is taken just before and one just after
        the call, so that short calls get at least two.
        """
        self.sample()
        first = len(self.kernel_s)
        previous = signal.signal(signal.SIGALRM, self.sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        inside = self.kernel_s[first:]
        self.sample()
        wall -= sum(inside)
        kernel = statistics.mean(self.kernel_s[first - 1:])
        return result, wall * REFERENCE_S[self.kind] / kernel, wall

    def factor(self):
        """Reference seconds per wall second over every sample so far."""
        return REFERENCE_S[self.kind] / statistics.mean(self.kernel_s)
