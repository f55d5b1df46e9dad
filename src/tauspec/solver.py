"""Assembly of the square coefficient system and the solution drivers.

The discretization solves each equation exactly on a truncated
coefficient space: the first rows of every equation's coefficient
expansion are kept, rows displaced by the point conditions are dropped,
and the conditions take their place.  With n coefficients per unknown
and one condition row per condition, the system is square by
construction; the mismatch the dropped rows would have absorbed shows up
in the residual report, never in the kept equations.

Nonlinear systems run through Newton's method: each sweep freezes the
current iterate, assembles the linearized system, and solves it with a
dense LU factorization with partial pivoting.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import Mapping, Sequence

import numpy as np

from .basis import Series, _padded, _through_support, basis_row, evaluate, product
from .errors import (
    ConvergenceWarning,
    SingularSystemError,
    TauError,
    ValidationError,
)
from . import operators as ops
from .problem import (
    FrozenIterate,
    Kind,
    NewtonState,
    ProblemSpec,
    _apply_integral,
    _as_int,
    _frozen_product,
    _initial_rows,
    augment_variables,
    check_working_size,
    freeze,
    initial_iterate,
    linearize,
)

__all__ = [
    "TauSystem",
    "TauSolution",
    "ResidualReport",
    "ConvergenceRow",
    "assemble",
    "solve_linear",
    "solve",
    "equation_defects",
    "condition_defects",
    "residual_report",
    "error_vs_exact",
    "convergence_study",
]

RESIDUAL_GRID = 257
PIVOT_FLOOR = 1e3
STALL_FLOOR = 256 * np.finfo(float).eps  # an update that stopped falling this low is rounding


@dataclass
class TauSystem:
    """The assembled square system: matrix, right-hand side, provenance.

    ``row_map`` records where each row came from: ("condition", i) or
    ("equation", e, k) for the k-th kept coefficient row of equation e.
    ``col_of`` maps each variable to its column slice.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_map: list
    col_of: dict


@dataclass
class ResidualReport:
    """Defects of a candidate solution, measured independently.

    Equation defects are evaluated in exact polynomial arithmetic (no
    working-size truncation) and sampled on the grid; condition defects
    compare each functional against its value.
    """

    grid: np.ndarray
    equation_max: list
    condition_defect: list
    defect_series: list = field(default_factory=list, repr=False)


@dataclass
class TauSolution:
    """Solution of a problem at one working size."""

    spec: ProblemSpec
    n: int
    series: dict
    newton: list
    residual: ResidualReport
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def __getitem__(self, var: str) -> Series:
        return self.series[var]


def _attribution(spec: ProblemSpec) -> list[int]:
    """Equation index charged for each condition row."""
    out = []
    for cond in spec.conditions:
        var = cond.attach_to if cond.attach_to is not None else cond.terms[0].var
        out.append(spec.var_index(var))
    return out


def _term_core(term, store: ops.WorkingSize) -> np.ndarray:
    """A linear term's operator before its coefficient: a calculus power or a kernel's integral."""
    (_, order), = term.factors
    if term.enclosure is None:
        return store.power(order)
    if term.enclosure is Kind.VOLTERRA:
        core = ops.volterra_operator(store, term.kernel, term.lower)
    else:
        core = ops.fredholm_operator(store, term.kernel)
    if order:
        core = core @ store.power(order)
    return core


def _term_key(term) -> tuple:
    """The exact inputs of a linear term's matrix but its variable, as bytes; the coefficient last."""
    kernel = term.kernel
    return (term.enclosure, term.factors[0][1],
            None if kernel is None else (kernel.coeffs.shape, kernel.coeffs.tobytes()),
            None if term.lower is None else np.float64(term.lower).tobytes(),
            np.array(term.coeff).tobytes())


def assemble(spec: ProblemSpec, store: ops.WorkingSize | None = None) -> TauSystem:
    """Build the square system for a linearized (or linear) spec.

    Rows are stacked as all condition rows first, in document order,
    then for each equation its first n - (conditions charged to it)
    coefficient rows.  Terms that differ only in their variable share one
    matrix, built once per call and added once per occurrence; terms that
    differ only in their coefficient share one core.  n is the spec's
    working size.  Every operator is read from ``store``, which must be
    the WorkingSize of the spec's basis at n, or from a new one.
    """
    if not spec.is_linear:
        raise ValidationError(
            "spec still contains product terms; linearize it before assembly")
    basis, n = spec.basis, spec.settings.n
    if store is None:
        store = ops.WorkingSize(basis, n)
    elif (store.basis, store.n) != (basis, n):
        raise ValueError(
            f"operator store is for {store.basis} at n={store.n}, not {basis} at n={n}")
    m = len(spec.variables)
    col_of = {v: slice(i * n, (i + 1) * n) for i, v in enumerate(spec.variables)}
    charged = _attribution(spec)
    nu_e = [charged.count(e) for e in range(m)]
    for e, nu in enumerate(nu_e):
        if nu > n:
            raise ValidationError(
                f"equation {e} is charged {nu} conditions but only has {n} rows")
    size = m * n
    a = np.zeros((size, size))
    b = np.zeros(size)
    row_map: list = []
    matrices: dict = {}
    cores: dict = {}
    r = 0
    for ci, cond in enumerate(spec.conditions):
        for t in cond.terms:
            row = basis_row(basis, t.point, n) @ store.power(t.order)
            a[r, col_of[t.var]] += t.weight * row
        b[r] = cond.value
        row_map.append(("condition", ci))
        r += 1
    for e, eq in enumerate(spec.equations):
        keep = n - nu_e[e]
        blocks: dict = {}
        for ti, term in enumerate(eq.terms):
            key = _term_key(term)
            if key not in matrices:
                if key[:-1] not in cores:
                    cores[key[:-1]] = _term_core(term, store)
                matrices[key] = cores[key[:-1]]
                if tuple(term.coeff) != (1.0,):
                    try:
                        outer = ops.polynomial_multiplication_matrix(store, term.coeff)
                    except ValueError as exc:
                        raise ValidationError(
                            f"{exc}; increase n to fit the coefficient polynomial",
                            f"equations[{e}].terms[{ti}]") from None
                    # outer @ I is outer with its -0.0 entries made +0.0
                    matrices[key] = (outer + 0.0 if key[:2] == (None, 0)
                                     else outer @ matrices[key])
            mat = matrices[key]
            var = term.factors[0][0]
            blocks[var] = blocks[var] + mat if var in blocks else mat
        for var, mat in blocks.items():
            a[r : r + keep, col_of[var]] = mat[:keep]
        rhs = np.zeros(keep)
        take = min(keep, len(eq.rhs))
        rhs[:take] = eq.rhs[:take]
        b[r : r + keep] = rhs
        row_map.extend(("equation", e, k) for k in range(keep))
        r += keep
    return TauSystem(a, b, row_map, col_of)


def _load_lapack():
    """scipy's compiled LAPACK module, loaded without the ``scipy.linalg`` package.

    ``lu_factor`` and ``lu_solve`` call ``dgetrf`` and ``dgetrs`` from this
    extension, so calling them here gives the same factors and solutions
    bit for bit.  ``import scipy.linalg`` would run the package's
    ``__init__``, whose imports would take most of a cold CLI start.  The module
    is registered under its own name, so an ``import scipy.linalg``
    before or after this one shares the same object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")  # locates the package without importing it
    spec = None
    for root in scipy.submodule_search_locations if scipy else ():
        finder = FileFinder(os.path.join(root, "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            break
    if spec is None:
        raise ImportError("tauspec needs scipy: its LAPACK extension "
                          f"{name} was not found", name="scipy")
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_lapack = _load_lapack()


def solve_linear(system: TauSystem) -> tuple[np.ndarray, dict]:
    """LU solve with partial pivoting, a pivot-based singularity check, and a finite result."""
    a, b = system.matrix, system.rhs
    if not a.size:
        # LAPACK's wrappers reject empty arrays; an empty system has an empty solution
        return np.zeros(0), {"pivot_min": 0.0, "pivot_max": 0.0, "matrix_scale": 1.0}
    scale = max(1.0, float(np.max(np.abs(a))))
    # an exact zero pivot comes back through info; the pivot check below catches it
    lu, piv, _ = _lapack.dgetrf(a)
    pivots = np.abs(np.diag(lu))
    threshold = PIVOT_FLOOR * np.finfo(float).eps * scale
    worst = int(np.argmin(pivots))
    if pivots[worst] < threshold:
        origin = system.row_map[worst] if worst < len(system.row_map) else None
        raise SingularSystemError(
            f"system numerically singular: pivot {pivots[worst]:.3e} below "
            f"{threshold:.3e} at elimination step {worst} (near row {origin})")
    x, _ = _lapack.dgetrs(lu, piv, b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "system numerically singular: the solve gave non-finite "
            "coefficients although no pivot fell below the threshold")
    diagnostics = {
        "pivot_min": float(pivots.min()),
        "pivot_max": float(pivots.max()),
        "matrix_scale": scale,
    }
    return x, diagnostics


def _apply_term_exact(term, frozen: FrozenIterate) -> Series:
    """A term at the iterate in exact arithmetic: the coefficient times the enclosed product."""
    s = _apply_integral(term, _frozen_product(frozen, term.factors))
    if len(term.coeff) == 1:
        return Series(s.basis, term.coeff[0] * s.coeffs)
    return product(Series(s.basis, np.asarray(term.coeff)), s)


def _accumulate(total: np.ndarray | None, s: Series) -> np.ndarray:
    if total is None:
        return np.array(s.coeffs)
    if total.size < s.coeffs.size:
        total = _padded(total, s.coeffs.size)
    total[: s.coeffs.size] += s.coeffs
    return total


def equation_defects(spec: ProblemSpec, iterate: Mapping) -> list[Series]:
    """Exact defect (left side minus right side) of each equation.

    All term applications run in expanded coefficient space, so the
    result measures the true equation mismatch of the iterate, including
    everything the working-size assembly truncates.  A FrozenIterate
    keeps the factors and pair products computed here for a later
    ``linearize`` around the same iterate.
    """
    frozen = freeze(iterate)
    out = []
    for eq in spec.equations:
        total = None
        # the one-factor terms first, then the products
        for term in eq.linear + eq.products:
            total = _accumulate(total, _apply_term_exact(term, frozen))
        rhs = np.asarray(eq.rhs, dtype=float)
        if total is None:
            total = np.zeros(max(rhs.size, 1))
        if total.size < rhs.size:
            total = _padded(total, rhs.size)
        total[: rhs.size] -= rhs
        out.append(Series(spec.basis, total))
    return out


def condition_defects(spec: ProblemSpec, iterate: Mapping) -> np.ndarray:
    """|c_i(candidate) - value| for every condition, evaluated directly."""
    out = np.zeros(len(spec.conditions))
    for i, cond in enumerate(spec.conditions):
        acc = 0.0
        for t in cond.terms:
            acc += t.weight * evaluate(ops.apply_order(iterate[t.var], t.order), t.point)
        out[i] = abs(acc - cond.value)
    return out


def residual_report(spec: ProblemSpec, iterate: Mapping,
                    defects: Sequence[Series]) -> ResidualReport:
    """Measure equation and condition defects of a candidate solution.

    ``defects`` are the candidate's exact equation defects, as returned by
    ``equation_defects(spec, iterate)``; the report samples them on a
    Chebyshev-Lobatto grid of RESIDUAL_GRID points, each only through its
    last nonzero coefficient: the trailing zeros would add signed zeros,
    which change no absolute value.
    """
    a, b = spec.basis.domain
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    grid = mid - half * np.cos(np.pi * np.arange(RESIDUAL_GRID) / (RESIDUAL_GRID - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq_max = [float(np.max(np.abs(evaluate(_through_support(d), grid))))
                  for d in defects]
    cond = [float(x) for x in condition_defects(spec, iterate)]
    return ResidualReport(grid, eq_max, cond, defects)


def _max_abs(series) -> float:
    """Largest absolute coefficient over a collection of series."""
    return max(float(np.max(np.abs(s.coeffs))) for s in series)


def _update_norm(new: Mapping, old: Mapping) -> float:
    worst = 0.0
    for v, s in new.items():
        a = s.coeffs
        b = old[v].coeffs if v in old else np.zeros(1)
        width = max(a.size, b.size)
        worst = max(worst, float(np.max(np.abs(_padded(a, width) - _padded(b, width)))))
    return worst


def _candidate(spec: ProblemSpec, lin: ProblemSpec, store: ops.WorkingSize):
    """Assemble and solve the linear(ized) ``lin``; judge the result against ``spec``.

    Returns the candidate as a FrozenIterate, its exact equation defects,
    their largest coefficient, and the diagnostics of the linear solve.
    """
    n = spec.settings.n
    vec, diagnostics = solve_linear(assemble(lin, store))
    candidate = FrozenIterate(
        (v, Series(spec.basis, vec[i * n : (i + 1) * n]))
        for i, v in enumerate(spec.variables))
    defects = equation_defects(spec, candidate)
    return candidate, defects, _max_abs(defects), diagnostics


def solve(spec: ProblemSpec) -> TauSolution:
    """Solve a problem: augment, then either one linear solve or Newton.

    Linear problems are assembled and solved exactly once.  Nonlinear
    problems iterate from the configured starting iterate until the
    largest coefficient update falls under newton_tol relative to the
    iterate size, or stops falling at the rounding level STALL_FLOOR
    relative to it, or max_iter is reached; running out of sweeps returns
    the best iterate with ``converged`` False rather than raising, and so
    does a singular sweep right after the defect grew (divergence).
    The exact defects of every candidate are evaluated once and serve the
    Newton log, the damping test and the residual report; the factors and
    pair products they freeze serve the next sweep's linearization.  One
    WorkingSize store serves every assembly of the solve and dies with
    it.  The solution and the log hold plain dicts.
    """
    spec = augment_variables(spec)
    check_working_size(spec)
    _initial_rows(spec)  # explicit rows are checked on the linear path too
    n = spec.settings.n
    store = ops.WorkingSize(spec.basis, n)
    if spec.is_linear:
        iterate, defects, res, diagnostics = _candidate(spec, spec, store)
        newton = [NewtonState(1, dict(iterate), 0.0, res)]
        converged = True
    else:
        tol = spec.settings.newton_tol
        iterate = initial_iterate(spec)
        newton = []
        converged = False
        prev_res = prev_update = np.inf
        grew = False
        for k in range(1, spec.settings.max_iter + 1):
            try:
                candidate, defects, res, diagnostics = _candidate(
                    spec, linearize(spec, iterate), store)
            except SingularSystemError as exc:
                if not grew:
                    raise
                warnings.warn(f"Newton diverged: the defect grew to {prev_res:.3e}, then "
                              f"sweep {k} was singular ({exc})", ConvergenceWarning, stacklevel=2)
                break
            if spec.settings.damping and res > prev_res:
                for _ in range(6):
                    mixed = FrozenIterate(
                        (v, Series(spec.basis, 0.5 * (candidate[v].coeffs
                                                      + _padded(iterate[v].coeffs, n))))
                        for v in spec.variables)
                    mixed_defects = equation_defects(spec, mixed)
                    mixed_res = _max_abs(mixed_defects)
                    if mixed_res >= res:
                        break
                    candidate, defects, res = mixed, mixed_defects, mixed_res
            update = _update_norm(candidate, iterate)
            newton.append(NewtonState(k, dict(candidate), update, res))
            iterate = candidate
            grew = res > prev_res
            prev_res = res
            scale = max(1.0, _max_abs(iterate.values()))
            if update <= tol * scale or prev_update <= update <= STALL_FLOOR * scale:
                converged = True
                break
            prev_update = update
        else:
            warnings.warn(
                f"Newton did not meet tol={tol:g} within "
                f"{spec.settings.max_iter} sweeps (last update {update:.3e})",
                ConvergenceWarning, stacklevel=2)
    return TauSolution(
        spec=spec, n=n, series=dict(iterate), newton=newton,
        residual=residual_report(spec, iterate, defects),
        converged=converged, diagnostics=diagnostics)


def error_vs_exact(solution: TauSolution, grid, exact_values) -> dict:
    """Per-variable max absolute error on a grid of points.

    ``exact_values`` is a mapping from variable name to values on the
    grid, or a 2-D array with one row per variable in spec order.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if isinstance(exact_values, Mapping):
        items = dict(exact_values)
    else:
        arr = np.atleast_2d(np.asarray(exact_values, dtype=float))
        if arr.shape[0] != len(solution.spec.variables):
            raise ValidationError(
                f"exact values: expected {len(solution.spec.variables)} rows, "
                f"got {arr.shape[0]}")
        items = dict(zip(solution.spec.variables, arr))
    out = {}
    for var, vals in items.items():
        if var not in solution.series:
            raise ValidationError(f"unknown variable {var!r}")
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        if vals.shape != grid.shape:
            raise ValidationError(
                f"exact values for {var!r} have shape {vals.shape}, "
                f"grid has {grid.shape}")
        out[var] = float(np.max(np.abs(evaluate(solution.series[var], grid) - vals)))
    return out


@dataclass
class ConvergenceRow:
    n: int
    error: float
    residual: float
    iterations: int
    seconds: float
    failure: str | None = None


def convergence_study(spec: ProblemSpec, ns: Sequence[int],
                      exact: Mapping | None = None,
                      grid_size: int = 1001) -> list[ConvergenceRow]:
    """Solve the same problem over a sweep of working sizes.

    ``exact`` maps variable names to callables; the error column is the
    max over those variables of the max grid error (uniform grid of
    ``grid_size`` >= 2 points).  Sizes and the grid size are integers or
    integral floats; anything else raises a ValidationError before any
    solve.  A size that fails with a solver or input error (TauError,
    ValueError) is recorded in its row and the sweep continues; any other
    exception propagates.
    """
    grid_size = _as_int(grid_size, "grid_size")
    if grid_size < 2:
        raise ValidationError(f"must be at least 2, got {grid_size}", "grid_size")
    sizes = sorted({_as_int(n, f"ns[{i}]") for i, n in enumerate(ns)})
    a, b = spec.basis.domain
    grid = np.linspace(a, b, grid_size)
    rows = []
    for n in sizes:
        run_spec = replace(spec, settings=replace(spec.settings, n=n))
        t0 = time.perf_counter()
        try:
            sol = solve(run_spec)
            seconds = time.perf_counter() - t0
            if exact:
                vals = {v: np.asarray(f(grid), dtype=float) for v, f in exact.items()}
                err = max(error_vs_exact(sol, grid, vals).values())
            else:
                err = float("nan")
            residual = max(sol.residual.equation_max) if sol.residual.equation_max else 0.0
            rows.append(ConvergenceRow(
                n, err, residual, len(sol.newton), seconds,
                None if sol.converged else "not converged"))
        except (TauError, ValueError) as exc:
            seconds = time.perf_counter() - t0
            rows.append(ConvergenceRow(
                n, float("nan"), float("nan"), 0, seconds, str(exc)))
    floor = 1e-12
    good = [r for r in rows if r.failure is None]
    for prev, curr in zip(good, good[1:]):
        if prev.residual > floor and curr.residual > 10.0 * prev.residual:
            warnings.warn(
                f"residual grew from {prev.residual:.3e} (n={prev.n}) to "
                f"{curr.residual:.3e} (n={curr.n})",
                ConvergenceWarning, stacklevel=2)
            break
    return rows