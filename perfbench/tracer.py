"""Spans and counters around the public functions of each tauspec layer.

The tracer is installed from outside the package: every ``tauspec``
module namespace that bound one of the traced functions gets the same
wrapper in its place (``tauspec.solver.product`` as well as
``tauspec.basis.product``), so calls between layers are seen as well as
calls from the benchmark.  Spans (name, start, end, parent) stay in
memory until :meth:`Tracer.summary` reduces them.

Only stdlib is imported here, so a process can load this module before
it times its own ``import tauspec``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Functions timed with a span, per layer (module).
SPANNED = {
    "cli": ("main",),
    "problem": ("parse_problem", "augment_variables", "initial_iterate", "linearize"),
    "solver": ("solve", "assemble", "solve_linear", "equation_defects",
               "residual_report"),
    "operators": ("integration_matrix", "differentiation_matrix",
                  "polynomial_multiplication_matrix", "volterra_operator",
                  "fredholm_operator", "series_antiderivative", "series_derivative",
                  "volterra_apply", "fredholm_apply"),
    "basis": ("product", "evaluate", "basis_row"),
}
# Called hundreds of thousands of times per solve: counted, never spanned.
COUNTED = {"basis": ("recurrence_coefficients",)}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns)
COUNT_NAMES = tuple(f"{layer}.{fn}" for layer, fns in COUNTED.items() for fn in fns)


def _tauspec_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tauspec" or name.startswith("tauspec."))]


class Tracer:
    """One traced stretch of work: install, run, uninstall, then summarize."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self.integration_keys: list = []
        self.row_lookups = 0
        self.row_hits = 0
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _tauspec_modules()
        for layer, fns in SPANNED.items():
            for fn in fns:
                self._replace(modules, layer, fn, self._spanned)
        for layer, fns in COUNTED.items():
            for fn in fns:
                self._replace(modules, layer, fn, self._counted)
        table = getattr(sys.modules.get("tauspec.basis"), "LinearizationTable", None)
        if table is not None and hasattr(table, "row"):
            self._patch(table, "row", self._row_lookup(table.row))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, modules, layer, fn, make) -> None:
        home = sys.modules.get(f"tauspec.{layer}")
        original = getattr(home, fn, None)
        if original is None:
            return
        wrapper = make(f"{layer}.{fn}", original)
        for module in modules:
            if vars(module).get(fn) is original:
                self._patch(module, fn, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = self.integration_keys if name == "operators.integration_matrix" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.append(_integration_key(*args, **kwargs))
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _row_lookup(self, row):
        tracer = self

        @functools.wraps(row)
        def traced_row(table, i, j):
            tracer.row_lookups += 1
            key = (i, j) if i <= j else (j, i)
            # a row already in the process-wide table was seen before
            if key in getattr(table, "_cache", ()):
                tracer.row_hits += 1
            return row(table, i, j)

        return traced_row

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-function self time and calls plus the lookup counters.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES + COUNT_NAMES, 0)
        for name, start, end, parent in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        for name, count in self.counts.items():
            calls[name] += count
        return {
            "self_s": self_s,
            "calls": calls,
            "row_lookups": self.row_lookups,
            "row_hits": self.row_hits,
            "integration_calls": len(self.integration_keys),
            "integration_distinct": len(set(self.integration_keys)),
        }


def _integration_key(basis, n, *_, **__):
    return (basis.family, basis.domain, int(n))


def combine(summaries: list) -> dict:
    """Sum the raw summaries of several traced stretches (one pass)."""
    out = {"self_s": dict.fromkeys(SPAN_NAMES, 0.0),
           "calls": dict.fromkeys(SPAN_NAMES + COUNT_NAMES, 0),
           "row_lookups": 0, "row_hits": 0,
           "integration_calls": 0, "integration_distinct": 0}
    for s in summaries:
        for name, value in s["self_s"].items():
            out["self_s"][name] += value
        for name, value in s["calls"].items():
            out["calls"][name] += value
        for key in ("row_lookups", "row_hits", "integration_calls", "integration_distinct"):
            out[key] += s[key]
    return out


def layer_metrics(raw: dict, sweeps: int) -> dict:
    """Per-layer metric values of one pass from its combined raw summary."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = raw["self_s"][name]
        out[f"{name}.calls"] = raw["calls"][name]
    for name in COUNT_NAMES:
        out[f"{name}.calls"] = raw["calls"][name]
    out["basis.linearization_row.calls"] = raw["row_lookups"]
    out["basis.linearization_row.hit_ratio"] = _ratio(raw["row_hits"], raw["row_lookups"])
    out["operators.integration_matrix.distinct_ratio"] = _ratio(
        raw["integration_distinct"], raw["integration_calls"])
    out["solver.sweeps"] = sweeps
    out["solver.equation_defects.per_sweep"] = _ratio(
        raw["calls"]["solver.equation_defects"], sweeps)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
