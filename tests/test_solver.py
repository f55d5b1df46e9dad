"""Assembly, the direct solve, Newton iteration, and residual reporting."""

import json
import warnings
import weakref
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

import tauspec as ts
from tauspec.problem import Kind

import references


def builtin(name):
    path = resources.files("tauspec") / "problems" / f"{name}.json"
    return json.loads(path.read_text())


def test_assemble_hand_checked_two_by_two():
    """y' - y = 0, y(0) = 1 at n = 2 on [0, 1], assembled by hand.

    The condition row holds the member values at 0, the single kept
    equation row couples the derivative and identity columns; solving
    gives 1 + 2x whose residual lives entirely in the dropped row.
    """
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [{"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0}],
            "rhs": 0.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": 2},
    }
    spec = ts.parse_problem(doc)
    system = ts.assemble(spec)
    npt.assert_allclose(system.matrix, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)
    npt.assert_allclose(system.rhs, [1.0, 0.0], atol=1e-14)
    assert system.row_map == [("condition", 0), ("equation", 0, 0)]
    assert system.col_of == {"y": slice(0, 2)}
    vec, _ = ts.solve_linear(system)
    npt.assert_allclose(vec, [2.0, 1.0], atol=1e-13)


@pytest.mark.parametrize("family", [ts.CHEBYSHEV, ts.LEGENDRE])
@pytest.mark.parametrize("n", [12, 70])
@pytest.mark.parametrize("coeff", [
    -1.0, 2.5, {"basis": "power", "coeffs": [0.5, -1.0, 0.25]}],
    ids=["negative-constant", "constant", "polynomial"])
def test_order_zero_coefficient_block_bytes_match_the_identity_product(coeff, n, family):
    """A coefficient times y, without an integral, assembles to (multiplier) @ I.

    The negative constant's multiplier holds -0.0 off its diagonal, which
    the product with the identity turns into +0.0.
    """
    doc = {
        "basis": {"family": family, "domain": [0.0, 2.0]},
        "variables": ["y"],
        "equations": [{"terms": [{"var": "y", "coeff": coeff}], "rhs": 1.0}],
        "conditions": [],
        "solve": {"n": n},
    }
    spec = ts.parse_problem(doc)
    store = ts.WorkingSize(spec.basis, n)
    outer = ts.polynomial_multiplication_matrix(store, spec.equations[0].terms[0].coeff)
    if coeff == -1.0:
        assert np.any(np.signbit(outer) & (outer == 0.0))
    want = outer @ np.eye(n)
    assert ts.assemble(spec, store).matrix.tobytes() == want.tobytes()


def test_assemble_rejects_products():
    doc = builtin("example1")
    spec = ts.parse_problem(doc)
    aug = ts.augment_variables(spec)
    with pytest.raises(ts.ValidationError, match="linearize"):
        ts.assemble(aug)


def test_assemble_block_layout():
    spec = ts.parse_problem(builtin("example2"))
    lin = ts.linearize(spec, ts.initial_iterate(spec))
    system = ts.assemble(lin)
    n = spec.settings.n
    assert system.matrix.shape == (2 * n, 2 * n)
    assert system.row_map[0] == ("condition", 0)
    assert system.row_map[1] == ("condition", 1)
    # each equation loses exactly its own condition row
    eq_rows = [r for r in system.row_map if r[0] == "equation"]
    assert len([r for r in eq_rows if r[1] == 0]) == n - 1
    assert len([r for r in eq_rows if r[1] == 1]) == n - 1


def test_assemble_rejects_oversized_coefficient():
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [{"var": "y", "coeff": {"basis": "orthogonal",
                                             "coeffs": [1.0] * 9}}],
            "rhs": 1.0}],
        "conditions": [],
        "solve": {"n": 4},
    }
    spec = ts.parse_problem(doc)
    with pytest.raises(ts.ValidationError, match="increase"):
        ts.assemble(spec)


def test_solve_linear_flags_singular_system():
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [{"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0}],
            "rhs": 0.0}],
        "conditions": [
            {"terms": [{"var": "y", "point": 0.0}], "value": 1.0},
            {"terms": [{"var": "y", "point": 0.0}], "value": 1.0},
        ],
        "solve": {"n": 4},
    }
    system = ts.assemble(ts.parse_problem(doc))
    with pytest.raises(ts.SingularSystemError, match="singular"):
        ts.solve_linear(system)


def test_solve_linear_rejects_a_non_finite_solution(monkeypatch):
    system = ts.assemble(ts.parse_problem(builtin("exp-ode")))
    monkeypatch.setattr(ts.solver._lapack, "dgetrs",
                        lambda lu, piv, b, **kwargs: (np.full_like(b, np.nan), 0))
    with pytest.raises(ts.SingularSystemError, match="non-finite"):
        ts.solve_linear(system)


def test_empty_system_has_an_empty_solution():
    x, diagnostics = ts.solve_linear(ts.TauSystem(np.zeros((0, 0)), np.zeros(0), [], {}))
    assert x.shape == (0,) and x.dtype == np.float64
    assert diagnostics == {"pivot_min": 0.0, "pivot_max": 0.0, "matrix_scale": 1.0}


def test_exponential_ode_to_machine_precision():
    spec = ts.parse_problem(builtin("exp-ode"))
    sol = ts.solve(spec)
    assert sol.converged
    assert len(sol.newton) == 1  # linear: exactly one sweep
    grid = np.linspace(0.0, 1.0, 501)
    err = ts.error_vs_exact(sol, grid, {"y": np.exp(grid)})["y"]
    assert err <= 1e-14


def test_volterra_second_kind_without_conditions():
    spec = ts.parse_problem(builtin("volterra-exp"))
    sol = ts.solve(spec)
    assert sol.converged and len(sol.newton) == 1
    grid = np.linspace(0.0, 1.0, 501)
    err = ts.error_vs_exact(sol, grid, {"y": np.exp(grid)})["y"]
    assert err <= 1e-13


def test_manufactured_fredholm_is_exact():
    """y + int_0^1 x t y dt = x^2 - 7x/12 + 1 has solution x^2 - x + 1."""
    doc = {
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
    sol = ts.solve(ts.parse_problem(doc))
    grid = np.linspace(0.0, 1.0, 101)
    err = ts.error_vs_exact(sol, grid, {"y": grid ** 2 - grid + 1.0})["y"]
    assert err <= 1e-13


def test_newton_quadratic_contraction():
    spec = ts.parse_problem(builtin("example1"), n=33)
    sol = ts.solve(spec)
    ups = [s.update_norm for s in sol.newton]
    pairs = [(np.log(a), np.log(b)) for a, b in zip(ups, ups[1:])
             if 1e-13 < a < 1e-1 and 1e-13 < b < 1e-1]
    assert len(pairs) >= 2
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope >= 1.8


def test_newton_runs_out_of_sweeps():
    spec = ts.parse_problem(builtin("example1"), max_iter=2)
    with pytest.warns(ts.ConvergenceWarning):
        sol = ts.solve(spec)
    assert not sol.converged
    assert len(sol.newton) == 2


def test_newton_with_damping_still_converges():
    doc = builtin("example1")
    doc["solve"]["damping"] = True
    sol = ts.solve(ts.parse_problem(doc))
    assert sol.converged
    grid = np.linspace(0.0, 1.0, 201)
    assert ts.error_vs_exact(sol, grid, {"y": np.exp(-grid)})["y"] <= 1e-13


@pytest.mark.parametrize("n", [24, 32])
def test_bare_product_with_an_antiderivative_factor(n):
    """y' - y * (antiderivative of y) = 0, y(0) = 1, with no enclosure.

    The frozen antiderivative has n + 1 coefficients; it used to become a
    coefficient polynomial too long for the working size at every n.
    """
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y", "deriv": 1},
                {"product": {"factors": [{"var": "y"}, {"var": "y", "order": -1}],
                             "weight": -1.0}}],
            "rhs": 0.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": n},
    }
    sol = ts.solve(ts.parse_problem(doc))
    assert sol.converged
    assert max(sol.residual.equation_max) <= 1e-13
    # checked again with numpy's own Chebyshev class; the antiderivative
    # is the one that vanishes at the midpoint of the interval
    y = np.polynomial.Chebyshev(sol["y"].coeffs, domain=[0.0, 1.0])
    big_y = y.integ(lbnd=0.5)
    grid = np.linspace(0.0, 1.0, 201)
    assert abs(y(0.0) - 1.0) <= 1e-13
    assert np.max(np.abs(y.deriv()(grid) - y(grid) * big_y(grid))) <= 1e-12


def test_solution_carries_augmented_variables():
    sol = ts.solve(ts.parse_problem(builtin("example1")))
    assert sol.spec.variables == ("y", "y2")
    grid = np.linspace(0.0, 1.0, 201)
    errs = ts.error_vs_exact(sol, grid, {"y": np.exp(-grid),
                                         "y2": np.exp(-2.0 * grid)})
    assert errs["y"] <= 1e-13
    assert errs["y2"] <= 1e-13
    assert sol["y"] is sol.series["y"]


def test_residual_report_structure():
    sol = ts.solve(ts.parse_problem(builtin("example2")))
    rep = sol.residual
    assert rep.grid.size == 257
    assert np.all(np.diff(rep.grid) > 0)
    assert rep.grid[0] == pytest.approx(0.0, abs=1e-15)
    assert rep.grid[-1] == pytest.approx(1.0, abs=1e-15)
    assert len(rep.equation_max) == 2
    assert max(rep.equation_max) <= 1e-12
    assert len(rep.condition_defect) == 2
    assert max(rep.condition_defect) <= 1e-12


@pytest.mark.parametrize("family", [ts.CHEBYSHEV, ts.LEGENDRE])
def test_residual_sampling_bytes_match_the_full_length_evaluation(family):
    """Sampling a defect only through its support gives the full sampling's bits.

    The defects have trailing zeros, signed zeros, no nonzero at all, or
    tiny entries, like the padded exact defects of the Volterra and
    Fredholm terms.
    """
    doc = builtin("volterra-exp")
    doc["basis"]["family"] = family
    spec = ts.parse_problem(doc)
    sol = ts.solve(spec)
    rng = np.random.default_rng(5)
    head = rng.standard_normal(9)
    signed = np.concatenate([head, -np.zeros(20)])
    signed[::4] = -0.0
    defects = [ts.Series(spec.basis, c) for c in (
        np.concatenate([head, np.zeros(30)]), signed, -np.zeros(12), np.zeros(1),
        1e-300 * np.concatenate([head, np.zeros(5)]), head)]
    defects += sol.residual.defect_series
    got = ts.residual_report(spec, sol.series, defects)
    want = references.residual_report(spec, sol.series, defects)
    assert np.array(got.equation_max).tobytes() == np.array(want.equation_max).tobytes()
    assert got.condition_defect == want.condition_defect


# One run per way solve can end: a linear solve, converged Newton, Newton
# with damping (it mixes candidates on example1), and Newton out of sweeps.
RUNS = {
    "linear": ("volterra-exp", {}),
    "newton": ("example2", {}),
    "damped": ("example1", {"damping": True}),
    "out-of-sweeps": ("example2", {"max_iter": 2}),
}


def _solve_run(label):
    name, settings = RUNS[label]
    doc = builtin(name)
    doc["solve"].update(settings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ts.ConvergenceWarning)
        return ts.solve(ts.parse_problem(doc))


@pytest.fixture
def judged(monkeypatch):
    """Every iterate solve passes to equation_defects, in call order."""
    calls = []
    original = ts.solver.equation_defects

    def counting(spec, iterate):
        calls.append(iterate)
        return original(spec, iterate)

    monkeypatch.setattr(ts.solver, "equation_defects", counting)
    return calls


def _same_iterate(judged_iterate, series):
    """The judged iterate holds the very Series objects the solution returns."""
    return (judged_iterate.keys() == series.keys()
            and all(judged_iterate[v] is series[v] for v in series))


@pytest.mark.parametrize("label, sweeps", [
    ("linear", 1), ("newton", 6), ("out-of-sweeps", 2)])
def test_one_exact_defect_per_candidate(judged, label, sweeps):
    sol = _solve_run(label)
    assert len(sol.newton) == sweeps
    assert len(judged) == sweeps
    assert _same_iterate(judged[-1], sol.series)


def test_damping_judges_each_mix_once(judged):
    sol = _solve_run("damped")
    assert sol.converged
    assert len(judged) > len(sol.newton)
    assert len({id(it) for it in judged}) == len(judged)
    assert any(_same_iterate(it, sol.series) for it in judged)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_solution_and_log_hold_plain_dicts(label):
    """The per-candidate factors and pair products do not outlive the solve."""
    sol = _solve_run(label)
    assert type(sol.series) is dict
    assert all(type(state.iterate) is dict for state in sol.newton)


# -- one freeze per candidate, one matrix per distinct term ------------------


@pytest.fixture
def full_products(monkeypatch):
    """Every product of two factors longer than one coefficient, in call order."""
    calls = []
    original = ts.basis.product

    def counting(p, q):
        if min(p.coeffs.size, q.coeffs.size) > 1:
            calls.append((p, q))
        return original(p, q)

    for module in (ts, ts.basis, ts.problem, ts.solver, ts.operators):
        if getattr(module, "product", None) is original:
            monkeypatch.setattr(module, "product", counting)
    return calls


@pytest.mark.parametrize("settings", [{}, {"damping": True}], ids=["plain", "damped"])
def test_one_full_product_per_candidate(judged, full_products, settings):
    """Augmented example1 multiplies y by y' once per candidate.

    Its chain rule holds both y'·y and y·y'; the exact defect and the next
    sweep's linearization all read the one pair product.  With damping,
    every mix is a candidate of its own.
    """
    doc = builtin("example1")
    doc["solve"].update(settings)
    sol = ts.solve(ts.parse_problem(doc))
    assert sol.converged
    assert len(judged) >= len(sol.newton) > 1
    assert len(full_products) == len(judged)


def test_each_distinct_volterra_block_is_built_once_per_assembly(monkeypatch):
    """One Volterra core per distinct kernel, order and lower limit.

    Terms that differ only in their coefficient share the core; only the
    multiplication by the coefficient is their own.
    """
    built = []
    original_operator = ts.operators.volterra_operator

    def counting_operator(*args, **kwargs):
        built.append(args)
        return original_operator(*args, **kwargs)

    seen = []
    original_assemble = ts.solver.assemble

    def counting_assemble(spec, *args):
        before = len(built)
        system = original_assemble(spec, *args)
        terms = [t for eq in spec.equations for t in eq.terms if t.enclosure is Kind.VOLTERRA]
        cores = {(t.factors[0][1], t.kernel.coeffs.shape, t.kernel.coeffs.tobytes(), t.lower)
                 for t in terms}
        blocks = {(t.factors[0][1], t.coeff, t.kernel.coeffs.tobytes(), t.lower) for t in terms}
        seen.append((len(built) - before, len(cores), len(blocks)))
        return system

    monkeypatch.setattr(ts.operators, "volterra_operator", counting_operator)
    monkeypatch.setattr(ts.solver, "assemble", counting_assemble)
    sol = ts.solve(ts.parse_problem(builtin("example2")))
    assert sol.converged
    assert len(seen) == len(sol.newton)
    assert all(calls == cores for calls, cores, _ in seen)
    # the -1 and +1 multiples of the kernel times y2 share one core
    assert all((cores, blocks) == (3, 4) for _, cores, blocks in seen)


def test_linearize_builds_each_frozen_kernel_once(monkeypatch):
    """example2's three products under the kernel [[1]] freeze y1 or y2 into it.

    Six linearized terms per sweep carry one of two distinct kernels, each
    built once and shared as one KernelPoly.
    """
    built = []
    original = ts.problem._kernel_times_t_poly

    def counting(kernel, phi, n):
        built.append(original(kernel, phi, n))
        return built[-1]

    monkeypatch.setattr(ts.problem, "_kernel_times_t_poly", counting)
    spec = ts.parse_problem(builtin("example2"))
    sol = ts.solve(spec)
    assert sol.converged
    assert len(built) == 2 * len(sol.newton)
    before = len(built)
    lin = ts.linearize(sol.spec, sol.series)
    frozen = [t.kernel for eq in lin.equations for t in eq.linear
              if t.kernel is not None and t.kernel.coeffs.shape[0] == 1]
    assert len(frozen) == 6
    assert {id(k) for k in frozen} == {id(k) for k in built[before:]}
    assert len(built) - before == 2


# -- one walk of the member matrices per solve -------------------------------


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_member_matrices_are_walked_once_per_solve(monkeypatch, name):
    """Every operator of every sweep reads the same P_j(J): one walk, n - 1 steps at most."""
    spec = ts.parse_problem(builtin(name))
    n = spec.settings.n
    steps = []
    original = ts.basis._j_minus_beta

    def counting(basis, width):
        step = original(basis, width)

        def counted(v, j):
            if v.shape == (n, n):
                steps.append(j)
            return step(v, j)

        return counted

    monkeypatch.setattr(ts.basis, "_j_minus_beta", counting)
    sol = ts.solve(spec)
    assert sol.converged and len(sol.newton) > 1
    assert 0 < len(steps) <= n - 1
    assert steps == list(range(len(steps)))


@pytest.mark.parametrize("label", sorted(RUNS))
def test_member_store_dies_with_the_solve(monkeypatch, label):
    stores = []
    original = ts.operators.WorkingSize

    def recording(basis, n):
        store = original(basis, n)
        stores.append((n, weakref.ref(store)))
        return store

    monkeypatch.setattr(ts.operators, "WorkingSize", recording)
    sol = _solve_run(label)
    # one store at the working size serves the solve; the starting iterate
    # may make its own at the number of conditions
    assert sol.newton and [size for size, _ in stores].count(sol.n) == 1
    # the solution is alive, the stores it was solved with are not
    assert all(ref() is None for _, ref in stores)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_each_calculus_power_is_made_once_per_solve(monkeypatch, name):
    """Every assembly of the solve reads its powers from the one store at n."""
    made = []
    original = ts.operators.WorkingSize.power

    def power(self, order):
        before = len(self._powers)
        out = original(self, order)
        made.extend([(self.n, order)] * (len(self._powers) - before))
        return out

    monkeypatch.setattr(ts.operators.WorkingSize, "power", power)
    sol = ts.solve(ts.parse_problem(builtin(name)))
    assert len(sol.newton) > 1
    at_n = [order for n, order in made if n == sol.n]
    assert at_n and len(at_n) == len(set(at_n))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_unit_coefficients_build_no_multiplication_matrix(monkeypatch, name):
    coeffs = []
    original = ts.operators.polynomial_multiplication_matrix

    def recording(store, c):
        coeffs.append(tuple(c))
        return original(store, c)

    monkeypatch.setattr(ts.operators, "polynomial_multiplication_matrix", recording)
    sol = ts.solve(ts.parse_problem(builtin(name)))
    assert sol.converged
    assert (1.0,) not in coeffs


def _riccati_spec():
    """y' = y^2, y(0) = 1 on [0, 2]: the solution 1 / (1 - x) blows up at x = 1."""
    return ts.parse_problem({
        "basis": {"family": "ChebyshevT", "domain": [0.0, 2.0]},
        "variables": ["y"],
        "equations": [{"terms": [
            {"var": "y", "deriv": 1},
            {"product": {"factors": [{"var": "y"}, {"var": "y"}], "weight": -1.0}}],
            "rhs": 0.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": 40},
    })


def test_a_singular_sweep_after_the_defect_grew_is_a_divergence():
    spec = _riccati_spec()
    with pytest.warns(ts.ConvergenceWarning, match=r"Newton diverged.*singular"):
        sol = ts.solve(spec)
    assert not sol.converged
    defects = [state.residual_norm for state in sol.newton]
    assert len(defects) >= 2 and defects[-1] > defects[-2]
    # the solution is the last candidate, with its own residual report
    assert sol.series["y"] is sol.newton[-1].iterate["y"]
    assert max(sol.residual.equation_max) > 1.0


@pytest.mark.parametrize("sweep, spec", [
    (1, _riccati_spec), (2, lambda: ts.parse_problem(builtin("example2"))),
    (3, lambda: ts.parse_problem(builtin("example2")))],
    ids=["riccati-sweep1", "example2-sweep2", "example2-sweep3"])
def test_a_singular_sweep_without_a_growing_defect_still_raises(monkeypatch, sweep, spec):
    """Sweep 1 has no defect before it, and example2's defect shrinks every sweep."""
    calls = []
    original = ts.solver.solve_linear

    def singular_at_sweep(system):
        calls.append(1)
        if len(calls) == sweep:
            raise ts.SingularSystemError("stub")
        return original(system)

    monkeypatch.setattr(ts.solver, "solve_linear", singular_at_sweep)
    with pytest.raises(ts.SingularSystemError, match="stub"):
        ts.solve(spec())


def _cube_doc(enclosed: bool) -> dict:
    """y' + y^3 = 0, y(0) = 1/2: a product of three factors, bare or under a kernel."""
    term = {"product": {"factors": [{"var": "y"}] * 3}}
    if enclosed:
        term["volterra"] = {"kernel": [[1.0, 0.5]], "lower": 0.0}
    return {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{"terms": [{"var": "y", "deriv": 1}, term], "rhs": 0.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 0.5}],
        "solve": {"n": 20},
    }


def _linear_kernels_doc() -> dict:
    """A linear second-order equation with polynomial coefficients and both kernels."""
    return {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.5]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y", "deriv": 2},
                {"var": "y", "deriv": 1, "coeff": {"basis": "power", "coeffs": [0.5, -1.0, 0.25]}},
                {"var": "y", "coeff": {"basis": "power", "coeffs": [1.0, 0.3, -0.2]}},
                {"var": "y", "volterra": {"kernel": [[0.2, -0.4, 0.1], [0.3, 0.2, 0.0], [-0.1, 0.0, 0.0]],
                                          "lower": 0.0}},
                {"var": "y", "fredholm": {"kernel": [[0.1, 0.2], [-0.3, 0.05]]}},
            ],
            "rhs": {"basis": "power", "coeffs": [1.0, 0.0, -2.0, 0.5]},
        }],
        "conditions": [
            {"terms": [{"var": "y", "point": 0.0}], "value": 1.0},
            {"terms": [{"var": "y", "point": 0.0, "deriv": 1}], "value": 0.0},
        ],
        "solve": {"n": 40},
    }


# Each run is solved in both families.
SHARING_RUNS = {
    "example1": lambda: builtin("example1"),
    "example2": lambda: builtin("example2"),
    "example2-n33": lambda: dict(builtin("example2"), solve={"n": 33}),
    "exp-ode": lambda: builtin("exp-ode"),
    "volterra-exp": lambda: builtin("volterra-exp"),
    "cube": lambda: _cube_doc(False),
    "cube-volterra": lambda: _cube_doc(True),
    "damped": lambda: dict(builtin("example1"), solve={"n": 17, "damping": True}),
    "linear-kernels": _linear_kernels_doc,
}


def _solution_bytes(sol) -> list:
    out = [sol.series[v].coeffs.tobytes() for v in sol.spec.variables]
    for state in sol.newton:
        out.append(np.array([state.iteration, state.update_norm, state.residual_norm]).tobytes())
        out.extend(state.iterate[v].coeffs.tobytes() for v in sol.spec.variables)
    out.extend(d.coeffs.tobytes() for d in sol.residual.defect_series)
    out.append(np.array(sol.residual.equation_max).tobytes())
    out.append(np.array(sol.residual.condition_defect).tobytes())
    return out


@pytest.mark.parametrize("family", [ts.CHEBYSHEV, ts.LEGENDRE])
@pytest.mark.parametrize("label", sorted(SHARING_RUNS))
def test_frozen_candidates_match_the_plain_sweep_byte_for_byte(monkeypatch, label, family):
    """Sharing factors, pairs, term matrices and member matrices changes no bit.

    The plain sweep recomputes every factor and product in the written
    order, builds one matrix per term occurrence, and walks the member
    matrices again for every operator.  It also evaluates every
    antiderivative and every defect over all its trailing zeros, so the
    residual report's ``equation_max`` is pinned too.
    """
    doc = SHARING_RUNS[label]()
    doc["basis"]["family"] = family

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ts.ConvergenceWarning)
            return ts.solve(ts.parse_problem(doc))

    shared = run()
    monkeypatch.setattr(ts.solver, "linearize", references.linearize)
    monkeypatch.setattr(ts.solver, "_apply_term_exact", references.apply_term_exact)
    monkeypatch.setattr(ts.solver, "assemble", references.assemble)
    monkeypatch.setattr(ts.operators, "volterra_apply", references.volterra_apply)
    monkeypatch.setattr(ts.operators, "fredholm_apply", references.fredholm_apply)
    monkeypatch.setattr(ts.solver, "residual_report", references.residual_report)
    plain = run()
    assert (len(shared.newton) == 1) if shared.spec.is_linear else (len(shared.newton) > 1)
    assert _solution_bytes(shared) == _solution_bytes(plain)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_report_carries_the_returned_iterates_defects(label):
    sol = _solve_run(label)
    fresh = ts.equation_defects(sol.spec, sol.series)
    report = sol.residual.defect_series
    assert [d.coeffs.tobytes() for d in report] == [d.coeffs.tobytes() for d in fresh]
    assert sol.newton[-1].residual_norm == max(float(np.max(np.abs(d.coeffs))) for d in fresh)


def test_defect_structure_of_direct_solve():
    """Kept coefficient rows of the defect vanish; the tail absorbs it."""
    spec = ts.parse_problem(builtin("exp-ode"))
    sol = ts.solve(spec)
    defect = ts.equation_defects(spec, sol.series)[0]
    n, nu = spec.settings.n, len(spec.conditions)
    assert np.max(np.abs(defect.coeffs[: n - nu])) <= 1e-13


def test_error_vs_exact_validation():
    sol = ts.solve(ts.parse_problem(builtin("exp-ode")))
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ts.ValidationError, match="unknown variable"):
        ts.error_vs_exact(sol, grid, {"z": np.zeros(11)})
    with pytest.raises(ts.ValidationError, match="shape"):
        ts.error_vs_exact(sol, grid, {"y": np.zeros(7)})
    ordered = ts.error_vs_exact(sol, grid, np.exp(grid)[None, :])
    assert ordered["y"] <= 1e-13


def test_convergence_study_records_failures():
    # after augmentation example1 carries two conditions, so n=1 is rejected;
    # a size over the cap is rejected before anything of that size is made
    spec = ts.parse_problem(builtin("example1"))
    exact = {"y": lambda x: np.exp(-x), "y2": lambda x: np.exp(-2.0 * x)}
    over = ts.problem.N_CAP + 1
    rows = ts.convergence_study(spec, [9, 5, 1, over, 5], exact=exact, grid_size=101)
    assert [r.n for r in rows] == [1, 5, 9, over]
    bad = rows[0]
    assert bad.failure is not None and np.isnan(bad.error)
    assert rows[-1].failure == f"solve.n: n must be positive and at most {over - 1}, got {over}"
    assert np.isnan(rows[-1].error) and rows[-1].iterations == 0
    good = rows[1:-1]
    assert all(r.failure is None for r in good)
    assert good[1].error < good[0].error
    assert all(r.iterations >= 1 for r in good)


@pytest.mark.parametrize("grid_size", [0, 1, -5, True, 2.5, "11"])
def test_convergence_study_rejects_a_bad_grid_size(monkeypatch, grid_size):
    monkeypatch.setattr(ts.solver, "solve", None)  # nothing is solved
    spec = ts.parse_problem(builtin("exp-ode"))
    with pytest.raises(ts.ValidationError, match=f"grid_size: .*{grid_size!r}"):
        ts.convergence_study(spec, [8], grid_size=grid_size)


@pytest.mark.parametrize("ns, bad", [
    ([True, 8.7], 0), ([8, 8.7], 1), ([8, "9"], 1), ([np.float64(4.5)], 0)])
def test_convergence_study_rejects_sizes_that_are_not_integers(monkeypatch, ns, bad):
    monkeypatch.setattr(ts.solver, "solve", None)  # nothing is solved
    spec = ts.parse_problem(builtin("exp-ode"))
    with pytest.raises(ts.ValidationError) as info:
        ts.convergence_study(spec, ns)
    assert str(info.value) == f"ns[{bad}]: must be an integer, got {ns[bad]!r}"


def test_convergence_study_takes_integral_floats():
    spec = ts.parse_problem(builtin("exp-ode"))
    rows = ts.convergence_study(spec, [8.0, np.int64(4), 8], grid_size=11.0)
    assert [r.n for r in rows] == [4, 8]
    assert all(type(r.n) is int and r.failure is None for r in rows)


def test_convergence_study_lets_programming_errors_through():
    """Only solver and input failures become a row's failure."""
    spec = ts.parse_problem(builtin("exp-ode"))

    def broken(x):
        return undefined_name * x  # noqa: F821

    with pytest.raises(NameError):
        ts.convergence_study(spec, [8], exact={"y": broken}, grid_size=11)


def test_convergence_study_warns_when_the_residual_grows_tenfold():
    """(x^2 + 0.01) y = 1 on [-1, 1]: the residual at n=5 is 20 times the one at n=4."""
    spec = ts.parse_problem({
        "basis": {"family": "ChebyshevT", "domain": [-1.0, 1.0]}, "variables": ["y"],
        "equations": [{"terms": [{"var": "y", "coeff": {"basis": "power",
                                                        "coeffs": [0.01, 0.0, 1.0]}}],
                       "rhs": 1.0}],
        "solve": {"n": 4}})
    with pytest.warns(ts.ConvergenceWarning, match=r"residual grew from .* \(n=4\) to .* \(n=5\)"):
        rows = ts.convergence_study(spec, [4, 5], grid_size=11)
    assert rows[1].residual > 10.0 * rows[0].residual > 0.0


def test_convergence_study_linear_single_sweep():
    spec = ts.parse_problem(builtin("exp-ode"))
    rows = ts.convergence_study(spec, [8, 16], exact={"y": np.exp},
                                grid_size=101)
    assert all(r.failure is None for r in rows)
    assert all(r.iterations == 1 for r in rows)
    assert rows[1].error < rows[0].error


def test_convergence_study_error_decreases_on_example1():
    spec = ts.parse_problem(builtin("example1"))
    exact = {"y": lambda x: np.exp(-x), "y2": lambda x: np.exp(-2.0 * x)}
    rows = ts.convergence_study(spec, [5, 9, 17], exact=exact, grid_size=201)
    errs = [r.error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-13
