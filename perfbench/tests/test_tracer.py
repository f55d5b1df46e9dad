"""Tracing changes no result and accounts for no more time than was spent."""

import json
import sys
import time
from pathlib import Path

import numpy as np

import tauspec
import run
import tracer as tracing
import workloads


def _documents():
    doc, _ = workloads.manufactured_problem(np.random.default_rng(5), "LegendreP", 32)
    return [workloads.shipped_document("example1", 24),
            workloads.shipped_document("example2", 16), doc]


def _solve_all(docs):
    return [tauspec.solve(tauspec.parse_problem(d)) for d in docs]


def _bindings():
    modules = [m for name, m in sys.modules.items() if name.startswith("tauspec")]
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    out[("LinearizationTable", "row")] = tauspec.LinearizationTable.row
    return out


def test_traced_solutions_match_untraced_and_self_times_fit_in_wall_time():
    docs = _documents()
    plain = _solve_all(docs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = _solve_all(docs)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        assert a.spec.variables == b.spec.variables
        for v in a.spec.variables:
            assert a.series[v].coeffs.tobytes() == b.series[v].coeffs.tobytes()
    summary = tracer.summary()
    self_times = summary["self_s"].values()
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert min(self_times) >= -1e-9
    assert 0.0 < sum(self_times) <= roots + 1e-9
    assert roots <= wall
    assert summary["calls"]["solver.solve"] == len(docs)
    assert summary["calls"]["basis.recurrence_coefficients"] > 0
    assert summary["row_lookups"] >= summary["row_hits"] > 0


def test_wrappers_reach_every_namespace_and_uninstall_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tauspec.basis.product
        assert wrapped is not before[("tauspec.basis", "product")]
        assert tauspec.product is wrapped
        assert tauspec.solver.product is wrapped
        assert tauspec.operators.product is wrapped
        assert tauspec.problem.product is wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
