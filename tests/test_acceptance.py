"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion next to the measured numbers.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

import tauspec as ts
from tauspec.cli import main

import oracles


def builtin(name):
    path = resources.files("tauspec") / "problems" / f"{name}.json"
    return json.loads(path.read_text())


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_error_decay_table():
    """Documented error decay of the augmented scalar problem, under 10 s."""
    doc = builtin("example1")
    grid = np.linspace(0.0, 1.0, 501)
    exact = {"y": np.exp(-grid)}
    errs = {}
    t0 = time.perf_counter()
    for n in [5, 9, 17, 33, 65, 129]:
        sol = ts.solve(ts.parse_problem(doc, n=n))
        errs[n] = ts.error_vs_exact(sol, grid, exact)["y"]
    elapsed = time.perf_counter() - t0
    ok = (1.58e-5 <= errs[5] <= 1.58e-3
          and 1.28e-10 <= errs[9] <= 1.28e-8
          and all(errs[n] <= 1e-13 for n in [17, 33, 65, 129])
          and errs[129] <= 10.0 * max(errs[17], 1e-15)
          and elapsed < 10.0)
    report(1, ok, "errors " + " ".join(f"n={n}:{errs[n]:.2e}" for n in errs)
           + f", {elapsed:.1f} s")


def test_criterion_2_coupled_nonlinear_system():
    """The coupled system reaches its stated accuracy at each size."""
    doc = builtin("example2")
    grid = np.linspace(0.0, 1.0, 501)
    exact = {"y1": np.sinh(grid), "y2": np.cosh(grid)}

    sol25 = ts.solve(ts.parse_problem(doc, n=25))
    err25 = max(ts.error_vs_exact(sol25, grid, exact).values())
    sol10 = ts.solve(ts.parse_problem(doc, n=10))
    err10 = max(ts.error_vs_exact(sol10, grid, exact).values())
    sol20 = ts.solve(ts.parse_problem(doc, n=20))
    err20 = max(ts.error_vs_exact(sol20, grid, exact).values())
    ok = (err25 <= 1e-13 and len(sol25.newton) <= 8
          and np.isfinite(err10)
          and err20 <= 1e-12)
    report(2, ok, f"n=25:{err25:.2e} in {len(sol25.newton)} sweeps, "
           f"n=20:{err20:.2e}, n=10:{err10:.2e}")


def test_criterion_3_operator_matrices_match_exact_references():
    """Recurrence-built matrices equal their rational oracles, under 1 s.

    The basis-power round trip is held to 1e-12 in absolute terms at
    every size where float64 can express that (all sizes for the first
    kind family, the oracle size for Legendre) and to 1e-12 relative to
    the entry scale at size 30, where exactly computed conversion
    matrices rounded to float64 already miss an absolute 1e-12.
    """
    t0 = time.perf_counter()
    worst = 0.0
    for family in [ts.CHEBYSHEV, ts.LEGENDRE]:
        for domain in [(-1.0, 1.0), (0.0, 1.0)]:
            basis = ts.BasisSpec(family, domain)
            n = 12
            pairs = [
                (ts.multiplication_matrix(basis, n),
                 oracles.mult_oracle(family, domain, n)),
                (basis.c1 * ts.differentiation_matrix(basis, n),
                 oracles.deriv_oracle(family, domain, n)),
                (ts.integration_matrix(basis, n) / basis.c1,
                 oracles.integ_oracle(family, domain, n)),
            ]
            for got, want in pairs:
                diff = np.max(np.abs(got - np.array(oracles.as_floats(want))))
                worst = max(worst, diff)
    round_abs = 0.0
    round_rel = 0.0
    for family in [ts.CHEBYSHEV, ts.LEGENDRE]:
        basis = ts.BasisSpec(family)
        v12 = ts.basis_to_power_matrix(basis, 12)
        w12 = ts.power_to_basis_matrix(basis, 12)
        round_abs = max(round_abs, np.max(np.abs(w12 @ v12 - np.eye(12))))
        v30 = ts.basis_to_power_matrix(basis, 30)
        w30 = ts.power_to_basis_matrix(basis, 30)
        dev30 = np.max(np.abs(w30 @ v30 - np.eye(30)))
        if family == ts.CHEBYSHEV:
            round_abs = max(round_abs, dev30)
        round_rel = max(round_rel, dev30 / max(1.0, np.abs(v30).max()))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and round_abs <= 1e-12 and round_rel <= 1e-12
          and elapsed < 1.0)
    report(3, ok, f"oracles {worst:.2e}, round trip abs {round_abs:.2e} "
           f"rel {round_rel:.2e}, {elapsed:.2f} s")


def test_criterion_4_products_match_convolution_oracle():
    """200 random products agree with exact power-basis convolution."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(200):
        family = ts.CHEBYSHEV if k % 2 == 0 else ts.LEGENDRE
        basis = ts.BasisSpec(family, (0.0, 1.0))
        a = rng.standard_normal(rng.integers(1, 12))
        b = rng.standard_normal(rng.integers(1, 12))
        got = ts.product(ts.Series(basis, a), ts.Series(basis, b)).coeffs
        want = oracles.product_oracle(family, (0.0, 1.0), a, b)
        size = max(got.size, len(want))
        ga = np.zeros(size)
        ga[: got.size] = got
        wa = np.zeros(size)
        wa[: len(want)] = [float(c) for c in want]
        worst = max(worst, float(np.max(np.abs(ga - wa))))
    closed = 0.0
    table = ts.linearization_table(ts.CHEBYSHEV)
    for i in range(65):
        for j in range(65):
            want = np.zeros(i + j + 1)
            want[i + j] += 0.5
            want[abs(i - j)] += 0.5
            full = np.zeros(i + j + 1)
            idx, vals = table.row(i, j)
            full[idx] = vals
            closed = max(closed, float(np.max(np.abs(full - want))))
    ok = worst <= 1e-12 and closed == 0.0
    report(4, ok, f"random pairs {worst:.2e}, closed form {closed:.2e}")


def test_criterion_5_linear_problems_solve_exactly():
    """Linear benchmark problems hit machine-level accuracy."""
    grid = np.linspace(0.0, 1.0, 501)
    e1 = ts.error_vs_exact(ts.solve(ts.parse_problem(builtin("exp-ode"))),
                           grid, {"y": np.exp(grid)})["y"]
    e2 = ts.error_vs_exact(ts.solve(ts.parse_problem(builtin("volterra-exp"))),
                           grid, {"y": np.exp(grid)})["y"]
    fred = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y"},
                {"var": "y", "fredholm": {"kernel": [[0.0, 0.0], [0.0, 1.0]]}},
            ],
            "rhs": {"basis": "power", "coeffs": [1.0, -7.0 / 12.0, 1.0]}}],
        "conditions": [],
        "solve": {"n": 4},
    }
    e3 = ts.error_vs_exact(ts.solve(ts.parse_problem(fred)), grid,
                           {"y": grid ** 2 - grid + 1.0})["y"]
    ok = e1 <= 1e-14 and e2 <= 1e-13 and e3 <= 1e-13
    report(5, ok, f"first order {e1:.2e}, second kind {e2:.2e}, "
           f"manufactured {e3:.2e}")


def test_criterion_6_structural_identities():
    """Derivative undoes antiderivative; integrals vanish at the lower
    limit; conditions hold at solve accuracy."""
    w1 = 0.0
    for family in [ts.CHEBYSHEV, ts.LEGENDRE]:
        basis = ts.BasisSpec(family, (0.0, 1.0))
        n = 20
        d = basis.c1 * ts.differentiation_matrix(basis, n)
        o = ts.integration_matrix(basis, n) / basis.c1
        w1 = max(w1, np.max(np.abs((d @ o)[: n - 1, : n - 1] - np.eye(n - 1))))
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    kernel = ts.kernel_from_power(basis, [[1.0, 0.5], [0.25, 0.0]])
    op = ts.volterra_operator(ts.WorkingSize(basis, 12), kernel, 0.0)
    rng = np.random.default_rng(9)
    w2 = 0.0
    for _ in range(5):
        a = np.zeros(12)
        a[:6] = rng.standard_normal(6)
        w2 = max(w2, abs(ts.Series(basis, op @ a)(0.0)))
    sol = ts.solve(ts.parse_problem(builtin("example2")))
    w3 = max(sol.residual.condition_defect)
    ok = w1 <= 1e-12 and w2 <= 1e-12 and w3 <= 1e-12
    report(6, ok, f"calculus {w1:.2e}, lower limit {w2:.2e}, conditions {w3:.2e}")


def test_criterion_7_newton_iteration_shape():
    """Quadratic contraction for nonlinear, one sweep for linear."""
    sol = ts.solve(ts.parse_problem(builtin("example1"), n=33))
    ups = [s.update_norm for s in sol.newton]
    pairs = [(np.log(a), np.log(b)) for a, b in zip(ups, ups[1:])
             if 1e-13 < a < 1e-1 and 1e-13 < b < 1e-1]
    slope = float(np.polyfit([p[0] for p in pairs],
                             [p[1] for p in pairs], 1)[0]) if len(pairs) >= 2 else 0.0
    lin1 = len(ts.solve(ts.parse_problem(builtin("exp-ode"))).newton)
    lin2 = len(ts.solve(ts.parse_problem(builtin("volterra-exp"))).newton)
    ok = slope >= 1.8 and lin1 == 1 and lin2 == 1
    report(7, ok, f"slope {slope:.2f} over {len(pairs)} pairs, "
           f"linear sweeps {lin1} and {lin2}")


def test_criterion_8_bitwise_reproducible_output(tmp_path, capsys):
    """Same problem, same flags: identical solution files and eval bytes."""
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["solve", "example1", "--format", "json", "--out", str(f1)]) == 0
    assert main(["solve", "example1", "--format", "json", "--out", str(f2)]) == 0
    files_equal = f1.read_bytes() == f2.read_bytes()
    assert main(["eval", "example2", "--points", "0.1,0.5,0.9",
                 "--format", "csv"]) == 0
    run1 = capsys.readouterr().out
    assert main(["eval", "example2", "--points", "0.1,0.5,0.9",
                 "--format", "csv"]) == 0
    run2 = capsys.readouterr().out
    evals_equal = run1 == run2
    ok = files_equal and evals_equal
    report(8, ok, f"solution files identical: {files_equal}, "
           f"eval output identical: {evals_equal}")
