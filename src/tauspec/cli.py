"""Command line front end.

Subcommands:

* ``solve``         solve one problem, print a summary or a solution document
* ``convergence``   sweep the working size and tabulate error and residual
* ``eval``          evaluate a solved problem at given points
* ``plotdata``      CSV curves (error against a reference, or residuals)
* ``list-examples`` show the built-in problems

Problems are given either by built-in name or as a path to a JSON
document.  Exit codes: 0 success, 1 bad input, 2 the solver did not
converge, 3 the assembled system was numerically singular.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .basis import _through_support, evaluate
from .errors import ConfigurationError, SingularSystemError, ValidationError
from .problem import parse_problem
from .solver import ConvergenceRow, TauSolution, convergence_study, error_vs_exact, solve

BUILTINS = {
    "example1": {
        "describe": "first order equation with the square of the unknown "
                    "integrated over the whole interval",
        "exact": {"y": lambda x: np.exp(-x), "y2": lambda x: np.exp(-2.0 * x)},
    },
    "example2": {
        "describe": "coupled nonlinear system with convolution kernels, "
                    "solution (sinh, cosh)",
        "exact": {"y1": np.sinh, "y2": np.cosh},
    },
    "exp-ode": {
        "describe": "y' = y with y(0) = 1",
        "exact": {"y": np.exp},
    },
    "volterra-exp": {
        "describe": "second kind equation y(x) - integral of y from 0 to x = 1",
        "exact": {"y": np.exp},
    },
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_document(problem: str):
    """Resolve a problem argument to (label, document, exact or None)."""
    if problem in BUILTINS:
        path = resources.files("tauspec") / "problems" / f"{problem}.json"
        return problem, json.loads(path.read_text()), BUILTINS[problem].get("exact")
    path = Path(problem)
    if not path.exists():
        raise ValidationError(
            f"unknown problem {problem!r}; built-ins: "
            + ", ".join(sorted(BUILTINS)))
    try:
        return path.stem, json.loads(path.read_text()), None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None


def _parse_overridden(args) -> tuple:
    label, doc, exact = load_document(args.problem)
    spec = parse_problem(
        doc, n=args.n, family=args.basis, newton_tol=args.tol,
        max_iter=args.max_iter, initial=args.initial)
    return label, spec, exact


# ---------------------------------------------------------------------------
# rendering


def _cell(value, fmt: str) -> str:
    if value is None:
        return "" if fmt == "csv" else "-"
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value if fmt == "csv" else "%.2e" % value
    return str(value)


def render_rows(rows: list, columns: list, fmt: str, stream) -> None:
    """One renderer for every tabular output, so formats agree field by field."""
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c), "csv") for c in columns])
        return
    cells = [[_cell(row.get(c), "table") for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    stream.write("  ".join(c.rjust(w) for c, w in zip(columns, widths)) + "\n")
    for r in cells:
        stream.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


def _emit(out: str | None, write) -> None:
    if out:
        with open(out, "w", newline="") as f:
            write(f)
    else:
        write(sys.stdout)


# ---------------------------------------------------------------------------
# solution documents

SOLUTION_FORMAT = "tauspec-solution/1"


def solution_document(sol: TauSolution, label: str) -> dict:
    """JSON-ready description of a solution.  Deliberately carries no
    timing or host details so repeated runs serialize identically."""
    basis = sol.spec.basis
    return {
        "format": SOLUTION_FORMAT,
        "problem": label,
        "basis": {"family": basis.family, "domain": [basis.domain[0], basis.domain[1]]},
        "variables": list(sol.spec.variables),
        "n": sol.n,
        "coefficients": {
            v: [float(c) for c in sol.series[v].coeffs] for v in sol.spec.variables},
        "converged": bool(sol.converged),
        "newton": [
            {"iteration": s.iteration,
             "update_norm": float(s.update_norm),
             "residual_norm": float(s.residual_norm)}
            for s in sol.newton],
        "residual": {
            "grid_points": int(sol.residual.grid.size),
            "equation_max": [float(x) for x in sol.residual.equation_max],
            "condition_defect": [float(x) for x in sol.residual.condition_defect]},
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    label, spec, exact = _parse_overridden(args)
    sol = solve(spec)
    if args.format == "json":
        payload = solution_document(sol, label)
        _emit(args.out, lambda f: (json.dump(payload, f, indent=2), f.write("\n")))
    elif args.format == "csv":
        rows = [
            {"variable": v, "k": i, "coefficient": float(c)}
            for v in sol.spec.variables
            for i, c in enumerate(sol.series[v].coeffs)]
        _emit(args.out, lambda f: render_rows(
            rows, ["variable", "k", "coefficient"], "csv", f))
    else:
        lines = [
            f"problem: {label}",
            f"basis: {spec.basis.family} on [{spec.basis.domain[0]:g}, {spec.basis.domain[1]:g}]",
            f"variables: {', '.join(sol.spec.variables)}",
            f"n: {sol.n}",
            f"converged: {'yes' if sol.converged else 'no'} ({len(sol.newton)} sweeps)",
            f"residual max: {max(sol.residual.equation_max):.2e}",
        ]
        if sol.residual.condition_defect:
            lines.append(
                f"condition defect max: {max(sol.residual.condition_defect):.2e}")
        if exact:
            a, b = spec.basis.domain
            grid = np.linspace(a, b, 501)
            vals = {v: np.asarray(f(grid), dtype=float)
                    for v, f in exact.items() if v in sol.series}
            err = max(error_vs_exact(sol, grid, vals).values())
            lines.append(f"max error vs reference: {err:.2e}")
        _emit(args.out, lambda f: f.write("\n".join(lines) + "\n"))
    return 0 if sol.converged else 2


def _grid_size(args) -> int:
    if args.grid < 2:
        raise ValidationError(f"--grid must be at least 2, got {args.grid}")
    return args.grid


def cmd_convergence(args) -> int:
    grid_size = _grid_size(args)
    label, spec, exact = _parse_overridden(args)
    try:
        ns = [int(s) for s in args.ns.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"bad --ns list {args.ns!r}") from None
    if not ns:
        raise ValidationError("--ns must list at least one working size")
    rows = convergence_study(spec, ns, exact=exact, grid_size=grid_size)
    payload = [asdict(r) for r in rows]
    columns = [f.name for f in fields(ConvergenceRow)]
    _emit(args.out, lambda f: render_rows(payload, columns, args.format, f))
    return 0


def cmd_eval(args) -> int:
    label, spec, exact = _parse_overridden(args)
    try:
        points = [float(s) for s in args.points.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"bad --points list {args.points!r}") from None
    if not points or not np.isfinite(points).all():
        raise ValidationError(f"at least one point, all finite, got {args.points!r}", "--points")
    sol = solve(spec)
    xs = np.asarray(points)
    values = {v: evaluate(sol.series[v], xs) for v in sol.spec.variables}
    rows = [
        dict({"x": x}, **{v: float(values[v][i]) for v in sol.spec.variables})
        for i, x in enumerate(points)]
    columns = ["x"] + list(sol.spec.variables)
    _emit(args.out, lambda f: render_rows(rows, columns, args.format, f))
    return 0 if sol.converged else 2


def cmd_plotdata(args) -> int:
    grid_size = _grid_size(args)
    label, spec, exact = _parse_overridden(args)
    sol = solve(spec)
    a, b = spec.basis.domain
    grid = np.linspace(a, b, grid_size)
    note = ""
    if exact:
        names = [v for v in sol.spec.variables if v in exact]
        columns = ["x"] + [f"abs_error_{v}" for v in names]
        cols = [
            np.abs(evaluate(sol.series[v], grid)
                   - np.asarray(exact[v](grid), dtype=float))
            for v in names]
    else:
        note = "# no reference solution; columns are equation residuals\n"
        defects = sol.residual.defect_series
        columns = ["x"] + [f"residual_eq{e}" for e in range(len(defects))]
        cols = [np.abs(evaluate(_through_support(d), grid)) for d in defects]
    rows = [dict(zip(columns, values)) for values in zip(grid, *cols)]
    _emit(args.out, lambda f: (f.write(note), render_rows(rows, columns, "csv", f)))
    return 0 if sol.converged else 2


def cmd_list_examples(args) -> int:
    rows = []
    for name in sorted(BUILTINS):
        doc = load_document(name)[1]
        rows.append({
            "name": name,
            "variables": ", ".join(doc["variables"]),
            "n": doc["solve"]["n"],
            "description": BUILTINS[name]["describe"]})
    render_rows(rows, ["name", "variables", "n", "description"], "table", sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_problem_options(p) -> None:
    p.add_argument("problem", help="built-in name or path to a JSON document")
    p.add_argument("--n", type=int, default=None, help="working size override")
    p.add_argument("--basis", choices=["chebyshev", "legendre"], default=None,
                   help="basis family override")
    p.add_argument("--tol", type=float, default=None, help="Newton tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="Newton sweep cap")
    p.add_argument("--initial", choices=["conditions", "zero"], default=None,
                   help="starting iterate policy")


def _add_format_options(p) -> None:
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tauspec",
                     description="spectral solver for integro-differential systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem")
    _add_problem_options(p)
    _add_format_options(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="error and residual against n")
    _add_problem_options(p)
    _add_format_options(p)
    p.add_argument("--ns", required=True, help="comma list of working sizes")
    p.add_argument("--grid", type=int, default=1001, help="error grid size")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("eval", help="evaluate the solution at points")
    _add_problem_options(p)
    _add_format_options(p)
    p.add_argument("--points", required=True, help="comma list of points")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plotdata", help="CSV error or residual curves")
    _add_problem_options(p)
    p.add_argument("--grid", type=int, default=501, help="grid size")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("list-examples", help="show built-in problems")
    p.set_defaults(func=cmd_list_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
