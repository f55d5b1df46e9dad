"""Command line behavior: formats, files, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import tauspec as ts
from tauspec.basis import _through_support
from tauspec.cli import BUILTINS, load_document, main, render_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_examples(capsys):
    code, out, _ = run(capsys, "list-examples")
    assert code == 0
    for name in ["example1", "example2", "exp-ode", "volterra-exp"]:
        assert name in out


def test_solve_table_summary(capsys):
    code, out, _ = run(capsys, "solve", "exp-ode")
    assert code == 0
    assert "converged: yes" in out
    assert "max error vs reference" in out


def test_solve_json_document(capsys):
    code, out, _ = run(capsys, "solve", "exp-ode", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "tauspec-solution/1"
    assert doc["problem"] == "exp-ode"
    assert doc["variables"] == ["y"]
    assert doc["n"] == 20
    assert len(doc["coefficients"]["y"]) == 20
    assert doc["converged"] is True
    assert len(doc["newton"]) == 1
    assert "seconds" not in json.dumps(doc)


def test_solve_csv_coefficients(capsys):
    code, out, _ = run(capsys, "solve", "exp-ode", "--format", "csv", "--n", "6")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["variable", "k", "coefficient"]
    assert len(rows) == 1 + 6


def test_solution_files_are_bitwise_reproducible(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert run(capsys, "solve", "example1", "--format", "json", "--out", str(f1))[0] == 0
    assert run(capsys, "solve", "example1", "--format", "json", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_solve_n_and_basis_overrides(capsys):
    code, out, _ = run(capsys, "solve", "example1", "--n", "9",
                       "--basis", "legendre", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 9
    assert doc["basis"]["family"] == "LegendreP"
    assert len(doc["coefficients"]["y2"]) == 9


def test_eval_values_match_library(capsys):
    code, out, _ = run(capsys, "eval", "exp-ode", "--points", "0,0.5,1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "y"]
    doc = json.loads(
        (resources.files("tauspec") / "problems" / "exp-ode.json").read_text())
    sol = ts.solve(ts.parse_problem(doc))
    for row, x in zip(rows[1:], [0.0, 0.5, 1.0]):
        assert float(row[0]) == x
        assert float(row[1]) == ts.evaluate(sol.series["y"], x)


def test_eval_is_reproducible(capsys):
    out1 = run(capsys, "eval", "example2", "--points", "0.1,0.9", "--format", "csv")
    out2 = run(capsys, "eval", "example2", "--points", "0.1,0.9", "--format", "csv")
    assert out1 == out2


def test_eval_empty_points_is_an_error(capsys):
    code, _, err = run(capsys, "eval", "exp-ode", "--points", "")
    assert code == 1
    assert "at least one point" in err


@pytest.mark.parametrize("points", ["nan", "inf", "0.5,-inf", "0.25,NaN,1"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_nonfinite_points_are_an_error(capsys, points, fmt):
    """A NaN or infinite point is bad input at --points, not a NaN row."""
    code, out, err = run(capsys, "eval", "exp-ode", "--points", points, "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --points: ")
    assert "Traceback" not in err


def test_convergence_table(capsys):
    code, out, _ = run(capsys, "convergence", "exp-ode", "--ns", "4,8,16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "error", "residual", "iterations",
                                "seconds", "failure"]
    assert len(lines) == 4


def test_convergence_json_and_csv_agree_field_by_field():
    rows = [{"n": 4, "error": 0.125, "residual": 1e-3,
             "iterations": 1, "seconds": 0.5, "failure": None},
            {"n": 8, "error": float("nan"), "residual": 2.0,
             "iterations": 0, "seconds": 0.25, "failure": "boom"}]
    columns = ["n", "error", "residual", "iterations", "seconds", "failure"]
    sj = io.StringIO()
    render_rows(rows, columns, "json", sj)
    sc = io.StringIO()
    render_rows(rows, columns, "csv", sc)
    parsed = json.loads(sj.getvalue())
    table = list(csv.DictReader(io.StringIO(sc.getvalue())))
    assert len(parsed) == len(table) == 2
    for pj, pc in zip(parsed, table):
        assert pj["n"] == int(pc["n"])
        if np.isnan(pj["error"]):
            assert pc["error"] == "nan"
        else:
            assert pj["error"] == float(pc["error"])
        assert pj["failure"] == (pc["failure"] or None)


def test_plotdata_error_columns(capsys):
    code, out, _ = run(capsys, "plotdata", "exp-ode", "--grid", "11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "abs_error_y"]
    assert len(rows) == 12
    errs = [float(r[1]) for r in rows[1:]]
    assert max(errs) < 1e-13


def test_plotdata_residual_fallback(tmp_path, capsys):
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [{"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0}],
            "rhs": 0.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": 10},
    }
    path = tmp_path / "myode.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "plotdata", str(path), "--grid", "5")
    assert code == 0
    assert out.startswith("# no reference solution")
    rows = list(csv.reader(io.StringIO(out.split("\n", 1)[1])))
    assert rows[0] == ["x", "residual_eq0"]


def _csv_by_hand(header, grid, cols) -> str:
    """plotdata's rows as its own csv.writer once wrote them, every float as %.17g."""
    f = io.StringIO()
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(header)
    for i, x in enumerate(grid):
        writer.writerow(["%.17g" % x] + ["%.17g" % c[i] for c in cols])
    return f.getvalue()


def test_plotdata_error_bytes_match_the_hand_written_rows(capsys):
    code, out, _ = run(capsys, "plotdata", "example1", "--grid", "33")
    assert code == 0
    sol = ts.solve(ts.parse_problem(load_document("example1")[1]))
    grid = np.linspace(0.0, 1.0, 33)
    exact = BUILTINS["example1"]["exact"]
    cols = [np.abs(ts.evaluate(sol[v], grid) - exact[v](grid)) for v in ("y", "y2")]
    assert out == _csv_by_hand(["x", "abs_error_y", "abs_error_y2"], grid, cols)


def test_plotdata_residual_bytes_match_the_hand_written_rows(tmp_path, capsys):
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{"terms": [
            {"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0},
            {"var": "y", "coeff": 0.5,
             "volterra": {"kernel": [[1.0, 0.5], [0.25, 0.0]], "lower": 0.0}}], "rhs": 1.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": 24},
    }
    path = tmp_path / "volterra.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "plotdata", str(path), "--grid", "33")
    assert code == 0
    sol = ts.solve(ts.parse_problem(doc))
    grid = np.linspace(0.0, 1.0, 33)
    cols = [np.abs(ts.evaluate(_through_support(d), grid)) for d in sol.residual.defect_series]
    assert out == ("# no reference solution; columns are equation residuals\n"
                   + _csv_by_hand(["x", "residual_eq0"], grid, cols))


def test_problem_from_path(tmp_path, capsys):
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{"terms": [{"var": "y"}], "rhs": 2.0}],
        "conditions": [],
        "solve": {"n": 3},
    }
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", str(path), "--points", "0.25",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-14)


def test_unknown_problem_exits_one(capsys):
    code, _, err = run(capsys, "solve", "no-such-problem")
    assert code == 1
    assert "unknown problem" in err


def test_out_of_range_tolerance_exits_one_at_its_entry(capsys):
    code, out, err = run(capsys, "solve", "example1", "--tol", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: solve.newton_tol: ")


def test_bad_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_invalid_document_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"basis": {"family": "ChebyshevT",
                                          "domain": [0.0, 1.0]}}))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "variables" in err


def test_fractional_condition_order_exits_one_with_its_location(tmp_path, capsys):
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{"terms": [{"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0}]}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0, "deriv": 0.9}], "value": 1.0}],
        "solve": {"n": 8},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "conditions[0].terms[0].deriv: must be an integer, got 0.9" in err


def test_non_numeric_condition_point_exits_one_with_its_location(tmp_path, capsys):
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{"terms": [{"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0}]}],
        "conditions": [{"terms": [{"var": "y", "point": "x"}], "value": 1.0}],
        "solve": {"n": 8},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "conditions[0].terms[0].point: must be a number, got 'x'" in err


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["solve"].update(damping="false"),
     "solve.damping: must be true or false, got 'false'"),
    (lambda doc: doc["equations"][0]["terms"][2].update(augment="no"),
     "equations[0].terms[2].augment: must be true or false, got 'no'"),
    (lambda doc: doc["equations"][0]["terms"][2].update(augment_name=7),
     "equations[0].terms[2].augment_name: must be a string, got 7"),
], ids=["damping", "augment", "augment_name"])
def test_non_boolean_flags_exit_one_with_their_location(tmp_path, capsys, mutate, message):
    doc = json.loads((resources.files("tauspec") / "problems" / "example1.json").read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert message in err


@pytest.mark.parametrize("name, mutate, location", [
    ("example1", lambda doc: doc["equations"][0].update(terms=5), "equations[0].terms"),
    ("example1", lambda doc: doc.update(solve=5), "solve"),
    ("example1", lambda doc: doc.update(conditions=5), "conditions"),
    ("example1", lambda doc: doc["equations"][0]["terms"][2]["product"].update(factors=3),
     "equations[0].terms[2].product.factors"),
    ("example1", lambda doc: doc["basis"]["domain"].__setitem__(0, 10 ** 400),
     "basis.domain[0]"),
    ("example1", lambda doc: doc["equations"][0]["terms"][0].update(deriv=-1),
     "equations[0].terms[0].deriv"),
    # finite power coefficients whose shifted-basis coefficients overflow
    ("exp-ode", lambda doc: doc["equations"][0].update(
        rhs={"basis": "power", "coeffs": [1.7e308, 1.7e308]}), "equations[0].rhs"),
    ("example1", lambda doc: doc["equations"][0]["terms"][2]["fredholm"].update(
        kernel=[[1e308, 1e308], [1e308, 1e308]]), "equations[0].terms[2].fredholm.kernel"),
    ("example1", lambda doc: doc["solve"].update(n=10 ** 400), "solve.n"),
    ("example1", lambda doc: doc["solve"].update(n=ts.problem.N_CAP + 1), "solve.n"),
    # one row for y alone, but the solve also has example1's auxiliary unknown y2
    ("example1", lambda doc: doc["solve"].update(initial=[[1.0]]), "solve.initial"),
    # a linear problem checks its explicit rows too
    ("exp-ode", lambda doc: doc["solve"].update(initial=[[1.0], [2.0], [3.0]]), "solve.initial"),
    # augmentation of a product outside any integral
    ("example1", lambda doc: doc["equations"][0]["terms"][2].pop("fredholm"),
     "equations[0].terms[2].augment"),
], ids=["terms", "solve", "conditions", "factors", "domain-huge-int", "negative-deriv",
        "rhs-overflow", "kernel-overflow", "n-huge-int", "n-over-cap", "initial-rows",
        "initial-rows-linear", "augment-bare-product"])
def test_malformed_shapes_exit_one_with_their_location(tmp_path, capsys, name, mutate, location):
    doc = json.loads((resources.files("tauspec") / "problems" / f"{name}.json").read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err.startswith(f"error: {location}: ")
    assert "Traceback" not in err


def test_non_finite_linear_solve_exits_three(monkeypatch, capsys):
    """An overflowing solve is a singular system, not bad input."""
    def overflowing(lu, piv, b, **kwargs):
        return np.full_like(b, np.inf), 0

    monkeypatch.setattr(ts.solver._lapack, "dgetrs", overflowing)
    code, _, err = run(capsys, "solve", "exp-ode")
    assert code == 3
    assert "non-finite" in err


def fresh_python(probe, *args):
    """Run a probe in a fresh interpreter that imports the same tauspec as this process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_cli_import_leaves_scipy_linalg_unloaded():
    probe = "import sys, tauspec.cli; print('scipy.linalg' in sys.modules)"
    assert fresh_python(probe).strip() == "False"


def test_import_without_scipy_names_scipy():
    probe = ("import sys\n"
             "sys.modules['scipy'] = None  # scipy cannot be found\n"
             "try:\n"
             "    import tauspec\n"
             "except ImportError as exc:\n"
             "    print(exc.name, exc)\n")
    out = fresh_python(probe)
    assert out.startswith("scipy ") and "tauspec needs scipy" in out


SCIPY_LINALG_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from tauspec import solver
from tauspec.cli import main
for name in ("exp-ode", "example2"):
    assert main(["solve", name, "--format", "json"]) == 0
if sys.argv[1] == "after":
    import scipy.linalg
a = np.array([[1.0, 2.0], [3.0, 4.0]])
x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.array([5.0, 6.0]))
assert np.allclose(a @ x, [5.0, 6.0])
assert scipy.linalg.lapack._flapack is solver._lapack
"""


def test_scipy_linalg_shares_the_lapack_module_in_either_import_order(capsys):
    """scipy.linalg imported before or after tauspec: one LAPACK module, the same bytes."""
    before, after = (fresh_python(SCIPY_LINALG_PROBE, order) for order in ("before", "after"))
    assert before == after
    documents = [run(capsys, "solve", name, "--format", "json")[1]
                 for name in ("exp-ode", "example2")]
    assert before == "".join(documents)


@pytest.mark.parametrize("argv", [
    ("convergence", "example1", "--ns", "5,9", "--grid", "0"),
    ("convergence", "exp-ode", "--ns", "8", "--grid", "1"),
    ("plotdata", "example1", "--grid", "0"),
    ("plotdata", "exp-ode", "--grid", "-3"),
], ids=["convergence-0", "convergence-1", "plotdata-0", "plotdata-negative"])
def test_grid_below_two_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"--grid must be at least 2, got {argv[-1]}" in err


def test_nonconvergence_exits_two(capsys):
    with pytest.warns(ts.ConvergenceWarning):
        code, _, _ = run(capsys, "solve", "example1", "--max-iter", "1")
    assert code == 2


def test_singular_system_exits_three(tmp_path, capsys):
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
        "solve": {"n": 5},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "singular" in err


def _riccati_doc() -> dict:
    """y' = y^2, y(0) = 1 on [0, 2]: the solution 1 / (1 - x) blows up at x = 1."""
    return {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 2.0]},
        "variables": ["y"],
        "equations": [{"terms": [
            {"var": "y", "deriv": 1},
            {"product": {"factors": [{"var": "y"}, {"var": "y"}], "weight": -1.0}}],
            "rhs": 0.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": 40},
    }


def test_blow_up_exits_two_as_a_divergence(tmp_path, capsys):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(_riccati_doc()))
    with pytest.warns(ts.ConvergenceWarning, match="Newton diverged"):
        code, out, _ = run(capsys, "solve", str(path))
    assert code == 2
    assert "converged: no" in out


def test_singular_first_newton_sweep_exits_three(tmp_path, capsys):
    """y y' = 1, y(0) = 0: the linearization around the start y = 0 is singular."""
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{"terms": [
            {"product": {"factors": [{"var": "y"}, {"var": "y", "deriv": 1}]}}], "rhs": 1.0}],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 0.0}],
        "solve": {"n": 12},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "singular" in err


# y1' = 0 and y2'' + 0.5 * integral of 0.25 y1 y2 from 0 to x = f on [0, 1],
# solved by (1, 1 + x^6): the Newton update stalls near 2e-14, above
# newton_tol times the iterate's scale of 1.23
ROUNDING_STALL = {
    "basis": {"family": "ChebyshevT", "domain": [0, 1]}, "variables": ["y1", "y2"],
    "equations": [
        {"terms": [{"var": "y1", "deriv": 1}], "rhs": 0.0},
        {"terms": [{"var": "y2", "deriv": 2},
                   {"product": {"factors": [{"var": "y1"}, {"var": "y2"}], "weight": 0.5},
                    "volterra": {"kernel": [[0.25]], "lower": 0.0}}],
         "rhs": {"basis": "power", "coeffs": [0, 0.125, 0, 0, 30, 0, 0, 0.017857142857142856]}}],
    "conditions": [
        {"terms": [{"var": "y1", "point": 0}], "value": 1},
        {"terms": [{"var": "y2", "point": 0}], "value": 1},
        {"terms": [{"var": "y1", "point": 0, "deriv": 2, "weight": 0.5},
                   {"var": "y2", "point": 0, "deriv": 1}], "value": 0, "attach_to": "y2"}],
    "solve": {"n": 22},
}


def test_update_stalled_at_rounding_level_converges(tmp_path, capsys):
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(ROUNDING_STALL))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "converged: yes" in out
    sol = ts.solve(ts.parse_problem(ROUNDING_STALL))
    assert sol.converged and len(sol.newton) <= 6
    grid = np.linspace(0.0, 1.0, 201)
    assert max(ts.error_vs_exact(sol, grid, [np.ones_like(grid), 1.0 + grid ** 6]).values()) < 1e-14


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing problem argument
    assert exc.value.code == 1
