"""In-memory spans and counts around the package's public functions.

``Tracer.install`` replaces module attributes of ``liemoments`` with
wrappers that record a span per call (name, start, end, parent, sweep) and
counts derived from arguments and return values; ``uninstall`` puts the
originals back, so untraced sweeps run the package unchanged.  Hot inner
helpers are not wrapped.  A function is patched under every module name its
callers look it up by, because ``from .x import f`` binds a second name.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []             # [id, name, parent, sweep, start, end]
        self.counts = defaultdict(lambda: defaultdict(int))  # per sweep
        self.sweep = None           # label of the sweep being recorded
        self.track_memory = False
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------
    def begin(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, parent, self.sweep,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[5] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, key, amount=1):
        self.counts[self.sweep][key] += amount

    def peak(self, key, value):
        counts = self.counts[self.sweep]
        counts[key] = max(counts[key], value)

    # -- patching --------------------------------------------------------
    def install(self):
        from liemoments import (asymptotics, charring, harness, repweights,
                                rootsys, torusquad)
        if self._saved:
            raise RuntimeError("tracer already installed")

        def patch(modules, attr, make):
            original = getattr(modules[0], attr)
            wrapper = functools.wraps(original)(make(original))
            for module in modules:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

        patch([charring], "moment_weight_system",
              self._spanned("charring.moment_weight_system"))
        patch([charring], "product",
              self._spanned("charring.product", _product_counts))
        patch([charring], "trivial_multiplicity",
              self._spanned("charring.trivial_multiplicity", _trivial_counts))
        patch([torusquad], "quad_I_N", self._quad)
        patch([torusquad], "quad_K_N", self._quad)
        patch([torusquad], "default_grid", self._grid)
        patch([repweights, asymptotics], "a_lambda",
              self._spanned("repweights.a_lambda", _a_lambda_counts))
        refusal = asymptotics.HypothesisError
        for attr in ("leading_term_I", "leading_term_K"):
            patch([harness], attr,
                  lambda fn: self._leading_term(fn, refusal))
        patch([repweights, charring, torusquad], "weight_system",
              self._spanned("repweights.weight_system",
                            _weight_system_counts))
        patch([rootsys], "build_root_system",
              self._spanned("rootsys.build_root_system"))
        patch([harness], "fit_error_exponent",
              self._spanned("harness.fit_error_exponent"))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers --------------------------------------------------------
    def _spanned(self, name, hook=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, out)
                return out
            return wrapper
        return make

    def _quad(self, fn):
        """Span per quadrature call; with ``track_memory`` set, also the
        tracemalloc peak of the call divided by its grid points."""
        def wrapper(*args, **kwargs):
            counts = self.counts[self.sweep]
            points_before = counts["torusquad.grid_points"]
            self.count("torusquad.quad.calls")
            grid = kwargs.get("grid")
            if grid is not None:
                self.count("torusquad.grid_points", grid.num_points)
            if self.track_memory:
                tracemalloc.start()
            try:
                with self.span("torusquad.quad"):
                    return fn(*args, **kwargs)
            finally:
                if self.track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    points = counts["torusquad.grid_points"] - points_before
                    if points:
                        self.peak("torusquad.peak_bytes_per_point",
                                  peak / points)
        return wrapper

    def _grid(self, fn):
        """``default_grid`` gets no span: only its point count matters."""
        def wrapper(*args, **kwargs):
            grid = fn(*args, **kwargs)
            self.count("torusquad.grid_points", grid.num_points)
            return grid
        return wrapper

    def _leading_term(self, fn, refusal):
        def wrapper(*args, **kwargs):
            self.count("asymptotics.leading_term.calls")
            with self.span("asymptotics.leading_term"):
                try:
                    return fn(*args, **kwargs)
                except refusal:
                    self.count("asymptotics.leading_term.refusals")
                    raise
        return wrapper

    # -- derived numbers -------------------------------------------------
    def self_times(self, sweep):
        """Summed self time per span name within one sweep: each span's
        duration minus the durations of its direct children."""
        durations = {}
        child_time = defaultdict(float)
        for sid, name, parent, sw, start, end in self.spans:
            if sw == sweep:
                durations[sid] = (name, end - start)
                if parent is not None:
                    child_time[parent] += end - start
        out = defaultdict(float)
        for sid, (name, d) in durations.items():
            out[name] += d - child_time[sid]
        return out

    def dump(self):
        """Spans and counts as plain data for the run record."""
        keys = ("id", "name", "parent", "sweep", "start", "end")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }


def _product_counts(tracer, args, out):
    a, b = args[0], args[1]
    tracer.count("charring.product.calls")
    tracer.count("charring.product.pairs", a.support_size * b.support_size)
    tracer.peak("charring.product.max_support", out.support_size)


def _trivial_counts(tracer, args, out):
    tracer.count("charring.trivial_multiplicity.weights",
                 args[1].support_size)


def _a_lambda_counts(tracer, args, out):
    tracer.count("repweights.a_lambda.calls")


def _weight_system_counts(tracer, args, out):
    tracer.count("repweights.weight_system.calls")
    tracer.count("repweights.weight_system.support", out.support_size)
