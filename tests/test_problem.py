"""Document parsing, validation, augmentation, and linearization."""

import copy
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

import tauspec as ts
from tauspec.problem import Kind


def _doc(**override):
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [{"var": "y", "deriv": 1}, {"var": "y", "coeff": -1.0}],
            "rhs": 0.0,
        }],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 1.0}],
        "solve": {"n": 8},
    }
    doc.update(override)
    return doc


def _set(path, value):
    """Mutation that puts value at a path of keys and indices into the document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def test_parse_happy_path():
    spec = ts.parse_problem(_doc())
    assert spec.variables == ("y",)
    assert spec.is_linear
    assert len(spec.equations) == 1
    eq = spec.equations[0]
    assert eq.terms[0].factors == (("y", 1),) and eq.terms[0].enclosure is None
    assert eq.terms[1].factors == (("y", 0),) and eq.terms[1].coeff == (-1.0,)
    assert spec.conditions[0].value == 1.0
    assert spec.settings.n == 8


def test_parse_overrides():
    spec = ts.parse_problem(_doc(), n=12, family="legendre",
                            newton_tol=1e-10, max_iter=3, initial="zero")
    assert spec.settings.n == 12
    assert spec.basis.family == ts.LEGENDRE
    assert spec.settings.newton_tol == 1e-10
    assert spec.settings.max_iter == 3
    assert spec.settings.initial == "zero"


def test_parse_power_rhs_conversion():
    doc = _doc()
    doc["equations"][0]["rhs"] = {"basis": "power", "coeffs": [0.0, 0.0, 1.0]}
    spec = ts.parse_problem(doc)
    npt.assert_allclose(spec.equations[0].rhs, [3 / 8, 1 / 2, 1 / 8], atol=1e-14)


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.pop("basis"), "basis"),
    (lambda d: d.pop("variables"), "variables"),
    (lambda d: d.pop("equations"), "equations"),
    (lambda d: d["solve"].pop("n"), "n"),
    (lambda d: d["equations"][0]["terms"].append({"var": "z"}), "unknown variable"),
    (lambda d: d["equations"][0].pop("terms"), "terms"),
    (lambda d: d["conditions"][0].pop("value"), "value"),
    # terms are named by their place in the document, products and all
    (_set(["equations", 0, "terms"], [{"var": "y", "deriv": 1}, {"product": {"factors": [
        {"var": "y"}, {"var": "y"}]}}, {"var": "z"}]),
     r"equations\[0\]\.terms\[2\]: unknown variable 'z'"),
    (_set(["equations", 0, "terms", 1], {"product": {"factors": [{"var": "y"}, {"var": "z"}]}}),
     r"equations\[0\]\.terms\[1\]: unknown variable 'z'"),
    (_set(["equations", 0, "terms", 1], {"product": {"weight": 2.0}}),
     r"equations\[0\]\.terms\[1\]\.product: missing required key 'factors'"),
    (_set(["equations", 0, "terms", 0, "deriv"], -1),
     r"equations\[0\]\.terms\[0\]\.deriv: derivative order must be nonnegative, got -1"),
    (_set(["equations", 0, "terms", 1], {"var": "y", "integral": 0}),
     r"equations\[0\]\.terms\[1\]\.integral: integral order must be at least 1, got 0"),
    (_set(["variables"], ["y", "y"]), "variable names must be unique"),
    (_set(["conditions", 0, "terms", 0, "deriv"], -1),
     r"conditions\[0\]: condition order -1 out of range"),
    (_set(["conditions", 0, "terms", 0, "deriv"], 9),
     r"conditions\[0\]: condition order 9 out of range"),
    (_set(["conditions", 0, "attach_to"], "z"), r"conditions\[0\]: unknown variable 'z'"),
])
def test_parse_missing_pieces(mutate, needle):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ts.ValidationError, match=needle):
        ts.parse_problem(doc)


def test_parse_error_carries_location():
    doc = _doc()
    doc["equations"][0]["terms"][1] = {"var": "y", "coeff": {"basis": "power"}}
    with pytest.raises(ts.ValidationError, match=r"equations\[0\].terms\[1\]"):
        ts.parse_problem(doc)


@pytest.mark.parametrize("mutate, location", [
    (_set(["equations", 0, "terms", 0, "deriv"], 1.7), r"equations\[0\]\.terms\[0\]\.deriv"),
    (_set(["equations", 0, "terms", 0, "deriv"], True), r"terms\[0\]\.deriv"),
    (_set(["equations", 0, "terms", 0, "deriv"], "x"), r"terms\[0\]\.deriv"),
    (_set(["equations", 0, "terms", 1, "integral"], 1.5), r"terms\[1\]\.integral"),
    (_set(["equations", 0, "terms", 1],
          {"var": "y", "order": 0.5, "volterra": {"kernel": [[1.0]]}}), r"terms\[1\]\.order"),
    (_set(["equations", 0, "terms", 1], {"product": {"factors": [
        {"var": "y", "order": 1.5}, {"var": "y"}]}}),
     r"terms\[1\]\.product\.factors\[0\]\.order"),
    (_set(["equations", 0, "terms", 1], {"product": {"factors": [
        {"var": "y", "deriv": False}, {"var": "y"}]}}), r"factors\[0\]\.deriv"),
    (_set(["conditions", 0, "terms", 0, "deriv"], 0.9), r"conditions\[0\]\.terms\[0\]\.deriv"),
    (_set(["solve", "n"], 12.9), r"solve\.n"),
    (_set(["solve", "n"], "12"), r"solve\.n"),
    (_set(["solve", "max_iter"], 2.5), r"solve\.max_iter"),
    (_set(["solve", "max_iter"], True), r"solve\.max_iter"),
])
def test_integer_fields_reject_fractions_bools_and_strings(mutate, location):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ts.ValidationError, match=location + ": must be an integer"):
        ts.parse_problem(doc)


def test_integer_fields_take_integral_floats():
    doc = _doc(solve={"n": 8.0, "max_iter": 3.0})
    doc["equations"][0]["terms"][0]["deriv"] = 1.0
    spec = ts.parse_problem(doc)
    assert spec.settings.n == 8 and type(spec.settings.n) is int
    assert spec.settings.max_iter == 3
    assert spec.equations[0].terms[0].factors == (("y", 1),)
    assert type(spec.equations[0].terms[0].factors[0][1]) is int


def _augmented_doc(**initial):
    """A Volterra product marked for augmentation, its initial value given."""
    doc = _doc()
    doc["equations"][0]["terms"][1] = {
        "product": {"factors": [{"var": "y"}, {"var": "y"}]},
        "volterra": {"kernel": [[1.0]]}, "augment": True,
        "augment_initial": dict({"point": 0.0, "value": 1.0}, **initial)}
    return doc


@pytest.mark.parametrize("mutate, location, problem", [
    (_set(["conditions", 0, "terms", 0, "point"], "x"), r"conditions\[0\]\.terms\[0\]\.point",
     "must be a number, got 'x'"),
    (_set(["conditions", 0, "terms", 0, "weight"], True), r"terms\[0\]\.weight",
     "must be a number"),
    (_set(["conditions", 0, "value"], "1"), r"conditions\[0\]\.value", "must be a number"),
    (_set(["conditions", 0, "value"], float("inf")), r"conditions\[0\]\.value",
     "must be finite"),
    (_set(["conditions", 0, "value"], 10 ** 400), r"conditions\[0\]\.value",
     "must be finite"),
    (_set(["equations", 0, "terms", 1],
          {"var": "y", "volterra": {"kernel": [[1.0]], "lower": "0"}}),
     r"terms\[1\]\.volterra\.lower", "must be a number"),
    (_set(["solve", "newton_tol"], "tight"), r"solve\.newton_tol", "must be a number"),
    (_set(["solve", "newton_tol"], float("nan")), r"solve\.newton_tol", "must be finite"),
    (_set(["equations", 0, "terms", 1], {"product": {
        "factors": [{"var": "y"}, {"var": "y"}], "weight": "2"}}),
     r"terms\[1\]\.product\.weight", "must be a number"),
    (_set(["solve", "initial"], [["x"]]), r"solve\.initial\[0\]\[0\]", "must be a number"),
    (_set(["solve", "initial"], [[1.0, float("nan")]]), r"solve\.initial\[0\]\[1\]",
     "must be finite"),
    (_set(["equations", 0, "rhs"], float("nan")), r"equations\[0\]\.rhs", "must be finite"),
    (_set(["equations", 0, "rhs"], 10 ** 400), r"equations\[0\]\.rhs", "must be finite"),
    (_set(["equations", 0, "terms", 1, "coeff"], True), r"terms\[1\]\.coeff",
     "polynomial must be a number"),
], ids=["point", "weight", "value", "value-inf", "value-huge-int", "lower", "newton_tol", "newton_tol-nan",
        "product-weight", "initial", "initial-nan", "rhs-nan", "rhs-huge-int", "coeff-bool"])
def test_float_fields_reject_non_numbers_with_their_location(mutate, location, problem):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ts.ValidationError, match=location + ": " + problem):
        ts.parse_problem(doc)


@pytest.mark.parametrize("key", ["point", "value"])
def test_augment_initial_rejects_non_numbers_with_its_location(key):
    with pytest.raises(ts.ValidationError,
                       match=rf"terms\[1\]\.augment_initial\.{key}: must be a number"):
        ts.parse_problem(_augmented_doc(**{key: "x"}))


@pytest.mark.parametrize("mutate, location, problem", [
    (_set(["solve", "damping"], "false"), r"solve\.damping", "must be true or false, got 'false'"),
    (_set(["solve", "damping"], 0), r"solve\.damping", "must be true or false, got 0"),
    (_set(["solve", "damping"], None), r"solve\.damping", "must be true or false"),
    (_set(["equations", 0, "terms", 1, "augment"], "no"), r"terms\[1\]\.augment",
     "must be true or false, got 'no'"),
    (_set(["equations", 0, "terms", 1, "augment"], 1), r"terms\[1\]\.augment",
     "must be true or false"),
    (_set(["equations", 0, "terms", 1, "augment_name"], 7), r"terms\[1\]\.augment_name",
     "must be a string, got 7"),
], ids=["damping-string", "damping-int", "damping-null", "augment-string", "augment-int",
        "augment_name-int"])
def test_flags_take_only_json_booleans_and_names_only_strings(mutate, location, problem):
    doc = _augmented_doc()
    mutate(doc)
    with pytest.raises(ts.ValidationError, match=location + ": " + problem):
        ts.parse_problem(doc)


def test_flags_take_json_booleans():
    for flag in (True, False):
        doc = _augmented_doc()
        doc["solve"]["damping"] = flag
        term = doc["equations"][0]["terms"][1]
        term["augment"] = flag
        if flag:
            term["augment_name"] = "w"
        else:
            del term["augment_initial"]
        spec = ts.parse_problem(doc)
        term = spec.equations[0].products[0]
        name = "w" if flag else None
        assert (spec.settings.damping, term.augment, term.augment_name) == (flag, flag, name)
    assert ts.parse_problem(_augmented_doc()).settings.damping is False


def _builtin(name):
    return json.loads((resources.files("tauspec") / "problems" / f"{name}.json").read_text())


def _paths(node, prefix=()):
    """Path of every dict value and list item below a document node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


WRONG_VALUES = (None, True, 7, 1.5, "x", [], {}, [[1.0]], [1.0, "x"], 10 ** 400)


def test_no_document_escapes_as_a_non_validation_error():
    """Every node of every built-in, replaced by each wrong value in turn."""
    documents, escaped, parsed_n = 0, [], []
    for name in ("example1", "example2", "exp-ode", "volterra-exp"):
        base = _builtin(name)
        for path in _paths(base):
            for value in WRONG_VALUES:
                doc = copy.deepcopy(base)
                _set(path, copy.deepcopy(value))(doc)
                documents += 1
                try:
                    ts.parse_problem(doc)
                    if path == ("solve", "n"):
                        parsed_n.append(value)
                except (ts.ValidationError, ts.ConfigurationError):
                    pass
                except Exception as exc:  # every other escape is reported below
                    escaped.append((name, path, value, type(exc).__name__))
    assert documents == 2060
    assert escaped == []
    # only integral values parse as n, and 10 ** 400 is above the cap
    assert set(parsed_n) == {7}


@pytest.mark.parametrize("mutate, location, problem", [
    (_set(["variables"], "yz"), r"variables", "must be a nonempty list, got 'yz'"),
    (_set(["basis", "domain"], "01"), r"basis\.domain", "must be a nonempty list, got '01'"),
    (_set(["basis", "domain"], [0, 1, 7]), r"basis\.domain", "must be a pair"),
    (_set(["basis", "domain"], [False, True]), r"basis\.domain\[0\]", "must be a number"),
    (_set(["equations", 0, "rhs"], {"basis": "power", "coeffs": [0.0, "1"]}),
     r"equations\[0\]\.rhs\.coeffs\[1\]", "must be a number, got '1'"),
    (_set(["equations", 0, "terms", 1], {"var": "y", "volterra": {"kernel": [["1"]]}}),
     r"terms\[1\]\.volterra\.kernel\[0\]\[0\]", "must be a number"),
    (_set(["equations", 0, "terms", 1], {"var": "y", "fredholm": {"kernel": [1.0, 2.0]}}),
     r"terms\[1\]\.fredholm\.kernel\[0\]", "must be a nonempty list, got 1.0"),
    (_set(["equations", 0, "terms", 1], {"var": "y", "fredholm": {"kernel": [[1.0], [1.0, 2.0]]}}),
     r"terms\[1\]\.fredholm\.kernel", "kernel rows must all have the same length"),
    (_set(["solve", "initial"], ["12"]), r"solve\.initial\[0\]", "must be a nonempty list"),
    (_set(["solve", "initial"], [1.0, "2"]), r"solve\.initial\[1\]", "must be a number"),
    (_set(["name"], 7), r"document\.name", "must be a string, got 7"),
    (_set(["conditions", 0, "attach_to"], 0), r"conditions\[0\]\.attach_to",
     "must be a string, got 0"),
    (_set(["equations", 0, "terms", 0, "var"], 1), r"terms\[0\]\.var", "must be a string"),
    (_set(["conditions", 0, "terms", 0, "var"], ["y"]), r"conditions\[0\]\.terms\[0\]\.var",
     "must be a string"),
    (_set(["basis", "family"], 7), r"basis\.family", "must be a string"),
], ids=["variables-string", "domain-string", "domain-triple", "domain-bools", "coeffs-string",
        "kernel-string", "kernel-flat", "kernel-ragged", "initial-string-row",
        "initial-string-entry", "name", "attach_to", "term-var", "condition-var", "family"])
def test_values_of_the_wrong_json_type_are_rejected_with_their_location(
        mutate, location, problem):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ts.ValidationError, match=location + ": " + problem):
        ts.parse_problem(doc)


def test_initial_coefficients_keep_their_shape():
    rows = ts.parse_problem(_doc(solve={"n": 8, "initial": [[1, 2.5]]})).settings.initial
    flat = ts.parse_problem(_doc(solve={"n": 8, "initial": (1, 2.5)})).settings.initial
    assert rows == ((1.0, 2.5),) and flat == (1.0, 2.5)
    assert all(type(c) is float for c in rows[0] + flat)


def _everything_doc():
    """A document that uses every kind of object a document can hold."""
    doc = _augmented_doc()
    doc["equations"][0]["terms"][0]["coeff"] = {"basis": "power", "coeffs": [1.0]}
    return doc


@pytest.mark.parametrize("path, location", [
    ([], "document"),
    (["basis"], "basis"),
    (["equations", 0], r"equations\[0\]"),
    (["equations", 0, "terms", 0], r"equations\[0\]\.terms\[0\]"),
    (["equations", 0, "terms", 0, "coeff"], r"equations\[0\]\.terms\[0\]\.coeff"),
    (["equations", 0, "terms", 1], r"equations\[0\]\.terms\[1\]"),
    (["equations", 0, "terms", 1, "product"], r"terms\[1\]\.product"),
    (["equations", 0, "terms", 1, "product", "factors", 0],
     r"terms\[1\]\.product\.factors\[0\]"),
    (["equations", 0, "terms", 1, "volterra"], r"terms\[1\]\.volterra"),
    (["equations", 0, "terms", 1, "augment_initial"], r"terms\[1\]\.augment_initial"),
    (["conditions", 0], r"conditions\[0\]"),
    (["conditions", 0, "terms", 0], r"conditions\[0\]\.terms\[0\]"),
    (["solve"], "solve"),
], ids=["document", "basis", "equation", "linear-term", "polynomial", "product-term", "product",
        "factor", "kernel", "augment_initial", "condition", "condition-term", "solve"])
def test_unknown_keys_are_rejected_with_their_object(path, location):
    doc = _everything_doc()
    ts.parse_problem(doc)
    node = doc
    for key in path:
        node = node[key]
    node["derivs"] = 1
    with pytest.raises(ts.ValidationError, match=location + ": unknown key 'derivs'"):
        ts.parse_problem(doc)


def test_a_fredholm_term_takes_no_lower_limit():
    doc = _doc()
    doc["equations"][0]["terms"][1] = {"var": "y", "fredholm": {"kernel": [[1.0]], "lower": 0.5}}
    with pytest.raises(ts.ValidationError, match=r"terms\[1\]\.fredholm: unknown key 'lower'"):
        ts.parse_problem(doc)


_PAIR = {"factors": [{"var": "y"}, {"var": "y"}]}
_KERNEL = {"kernel": [[1.0]]}


@pytest.mark.parametrize("term, where, problem", [
    ({"var": "y", "deriv": 1, "integral": 1}, "", "give at most one of 'deriv' and 'integral'"),
    ({"var": "y", "integral": 1, "volterra": _KERNEL}, "",
     "give at most one of 'integral' and 'volterra'"),
    ({"var": "y", "volterra": _KERNEL, "fredholm": _KERNEL}, "",
     "give at most one of 'volterra' and 'fredholm'"),
    ({"product": _PAIR, "volterra": _KERNEL, "fredholm": _KERNEL}, "",
     "give at most one of 'volterra' and 'fredholm'"),
    ({"product": _PAIR, "var": "y"}, "", "unknown key 'var'"),
    ({"product": _PAIR, "coeff": 2.0}, "", "unknown key 'coeff'"),
    ({"product": _PAIR, "deriv": 1}, "", "unknown key 'deriv'"),
    ({"product": _PAIR, "integral": 1}, "", "unknown key 'integral'"),
    ({"product": _PAIR, "order": 1, "volterra": _KERNEL}, "", "unknown key 'order'"),
    ({"product": {"factors": [{"var": "y", "order": 1, "deriv": 1}, {"var": "y"}]}},
     r"\.product\.factors\[0\]", "give at most one of 'order' and 'deriv'"),
    ({"var": "y", "order": 1}, "", "'order' belongs only to volterra and fredholm terms"),
    ({"var": "y", "deriv": 1, "order": 1}, "", "'order' belongs only to volterra"),
    ({"product": _PAIR, "volterra": _KERNEL, "augment_name": "w"}, r"\.augment_name",
     "applies only with 'augment': true"),
    ({"product": _PAIR, "volterra": _KERNEL, "augment": False,
      "augment_initial": {"point": 0.0, "value": 1.0}}, r"\.augment_initial",
     "applies only with 'augment': true"),
    ({"product": _PAIR, "augment": True}, r"\.augment",
     "augmentation applies to products inside integrals"),
], ids=["deriv-integral", "integral-volterra", "volterra-fredholm", "product-two-kernels",
        "product-var", "product-coeff", "product-deriv", "product-integral", "product-order",
        "factor-order-deriv", "order-alone", "order-with-deriv", "augment_name-alone",
        "augment_initial-augment-false", "augment-bare-product"])
def test_conflicting_keys_are_rejected_at_their_term(term, where, problem):
    doc = _doc()
    doc["equations"][0]["terms"][1] = term
    with pytest.raises(ts.ValidationError,
                       match=r"equations\[0\]\.terms\[1\]" + where + ": " + problem):
        ts.parse_problem(doc)


def test_float_fields_take_ints_and_numpy_floats():
    doc = _doc(solve={"n": 8, "newton_tol": np.float64(1e-12)})
    doc["conditions"][0] = {"terms": [{"var": "y", "point": 0, "weight": 2}], "value": 1}
    spec = ts.parse_problem(doc)
    term = spec.conditions[0].terms[0]
    assert (term.point, term.weight, spec.conditions[0].value) == (0.0, 2.0, 1.0)
    assert type(term.point) is float and spec.settings.newton_tol == 1e-12
    aug = ts.parse_problem(_augmented_doc(point=0, value=1))
    assert aug.equations[0].products[0].augment_initial == (0.0, 1.0)


def test_integral_kind_has_one_spelling():
    assert Kind.VOLTERRA == "volterra" and Kind.FREDHOLM == "fredholm"
    spec = ts.parse_problem(_nonlinear_doc())
    assert spec.equations[0].products[0].enclosure is Kind.FREDHOLM
    assert [kind.value for kind in Kind] == ["volterra", "fredholm"]
    for given, kind in (("volterra", Kind.VOLTERRA), (Kind.FREDHOLM, Kind.FREDHOLM),
                        (None, None)):
        term = ts.TermSpec(factors=(("y", 0), ("y", 0)), enclosure=given,
                           kernel=spec.equations[0].products[0].kernel)
        assert term.enclosure is kind
    for bad in ("derivative", "integral", "Volterra"):
        with pytest.raises(ts.ValidationError, match="enclosure"):
            ts.TermSpec(factors=(("y", 0), ("y", 0)), enclosure=bad)
    # a linear term given its enclosure as a string is assembled as that kind
    kernel = ts.kernel_from_power(spec.basis, [[1.0]])
    term = ts.TermSpec((("y", 0),), (1.0,), "volterra", kernel, 0.0)
    assert term.enclosure is Kind.VOLTERRA
    npt.assert_array_equal(
        ts.assemble(ts.ProblemSpec(spec.basis, ("y",), (ts.EquationSpec((term,)),), (),
                                   ts.SolveSettings(n=6))).matrix,
        ts.volterra_operator(ts.WorkingSize(spec.basis, 6), kernel, 0.0))


def test_system_must_be_square():
    doc = _doc(variables=["y", "z"])
    with pytest.raises(ts.ValidationError, match="square"):
        ts.parse_problem(doc)


def test_derivatives_need_conditions():
    doc = _doc(conditions=[])
    with pytest.raises(ts.ValidationError, match="conditions"):
        ts.parse_problem(doc)


@pytest.mark.parametrize("term, needs", [
    ({"var": "y", "order": 1, "volterra": {"kernel": [[1.0]]}}, False),
    ({"product": {"factors": [{"var": "y"}, {"var": "y", "deriv": 1}]},
      "volterra": {"kernel": [[1.0]]}}, False),
    ({"var": "y", "deriv": 1}, True),
    ({"product": {"factors": [{"var": "y"}, {"var": "y", "deriv": 1}]}}, True),
], ids=["enclosed-linear", "enclosed-product", "plain", "plain-product"])
def test_which_derivatives_need_conditions(term, needs):
    """A derivative needs conditions, except inside an integral."""
    doc = _doc(conditions=[])
    doc["equations"][0]["terms"] = [{"var": "y"}, term]
    doc["equations"][0]["rhs"] = 1.0
    if needs:
        with pytest.raises(ts.ValidationError, match="derivatives but no conditions"):
            ts.parse_problem(doc)
        return
    # y + int_0^x y'(t) dt = 2 y(x) - y(0) = 1 and
    # y + int_0^x y(t) y'(t) dt = y(x) + (y(x)^2 - y(0)^2) / 2 = 1 hold for y = 1 only
    for initial in ("conditions", "zero"):
        sol = ts.solve(ts.parse_problem(doc, initial=initial))
        assert sol.converged and max(sol.residual.equation_max) < 1e-13
        npt.assert_allclose(sol["y"].coeffs, np.eye(len(sol["y"].coeffs))[0], atol=1e-13)


def test_second_kind_needs_no_conditions():
    doc = _doc(conditions=[])
    doc["equations"][0]["terms"] = [
        {"var": "y"},
        {"var": "y", "coeff": -1.0, "volterra": {"kernel": [[1.0]], "lower": 0.0}},
    ]
    doc["equations"][0]["rhs"] = 1.0
    spec = ts.parse_problem(doc)
    assert not spec.conditions


def test_working_size_check():
    doc = _doc()
    doc["equations"][0]["rhs"] = {"basis": "orthogonal",
                                  "coeffs": [0.0] * 9 + [1.0]}
    with pytest.raises(ts.ValidationError, match="too small"):
        ts.parse_problem(doc, n=8)
    ts.parse_problem(doc, n=11)


@pytest.mark.parametrize("solve, location, message", [
    ({"n": 8, "newton_tol": 0}, "solve.newton_tol", "newton_tol must be positive"),
    ({"n": 8, "newton_tol": -1e-10}, "solve.newton_tol", "newton_tol must be positive"),
    ({"n": 8, "max_iter": 0}, "solve.max_iter", "max_iter must be at least 1"),
    ({"n": 8, "initial": "bogus"}, "solve.initial", "initial policy must be"),
    ({"n": 2}, "solve.n", "n=2 is too small"),
])
def test_out_of_range_settings_are_named_at_their_entry(solve, location, message):
    doc = _doc(solve=solve)
    doc["equations"][0]["rhs"] = {"basis": "orthogonal", "coeffs": [0.0, 0.0, 1.0]}
    with pytest.raises(ts.ValidationError, match=message) as info:
        ts.parse_problem(doc)
    assert info.value.location == location
    assert str(info.value).startswith(f"{location}: ")


def test_lower_limit_must_be_inside_domain():
    doc = _doc()
    doc["equations"][0]["terms"].append(
        {"var": "y", "volterra": {"kernel": [[1.0]], "lower": 2.0}})
    with pytest.raises(ts.ValidationError, match="outside"):
        ts.parse_problem(doc)


def test_working_size_cap():
    """n up to N_CAP parses; a larger n is rejected at parse and by solve, before any allocation."""
    cap = ts.problem.N_CAP
    assert ts.parse_problem(_doc(solve={"n": cap})).settings.n == cap
    problem = rf"solve\.n: n must be positive and at most {cap}, got "
    for n in (cap + 1, 10 ** 400):
        with pytest.raises(ts.ValidationError, match=problem + str(n)):
            ts.parse_problem(_doc(solve={"n": n}))
    # a spec built in code reaches solve without the parse
    spec = ts.parse_problem(_doc())
    with pytest.raises(ts.ValidationError, match=problem + str(cap + 1)):
        ts.solve(replace(spec, settings=replace(spec.settings, n=cap + 1)))


def test_deriv_cap():
    doc = _doc()
    doc["equations"][0]["terms"][0]["deriv"] = 9
    with pytest.raises(ts.ValidationError, match="cap"):
        ts.parse_problem(doc)


def test_product_needs_two_factors():
    """A document product has two factors or more; a term has one, a product one weight."""
    doc = _doc()
    doc["equations"][0]["terms"][1] = {"product": {"factors": [{"var": "y"}]}}
    with pytest.raises(ts.ValidationError,
                       match=r"terms\[1\]\.product\.factors: a product needs at least two"):
        ts.parse_problem(doc)
    with pytest.raises(ts.ValidationError, match="at least one factor"):
        ts.TermSpec(factors=())
    with pytest.raises(ts.ValidationError, match="one weight"):
        ts.TermSpec(factors=(("y", 0), ("y", 0)), coeff=(1.0, 2.0))
    assert ts.TermSpec((("y", 0),), (1.0, 2.0)).coeff == (1.0, 2.0)


def test_augment_requires_enclosure():
    with pytest.raises(ts.ValidationError, match="integrals"):
        ts.TermSpec(factors=(("y", 0), ("y", 0)), augment=True)
    kernel = ts.kernel_from_power(ts.BasisSpec(ts.CHEBYSHEV), [[1.0]])
    with pytest.raises(ts.ValidationError, match="products inside integrals"):
        ts.TermSpec((("y", 0),), enclosure="volterra", kernel=kernel, augment=True)
    with pytest.raises(ts.ValidationError, match="needs a kernel"):
        ts.TermSpec((("y", 0),), enclosure="fredholm")


def test_factor_orders_are_signed():
    """deriv: k is the order k, integral: k the order -k; a kernel term's order is as given."""
    doc = _doc()
    doc["equations"][0]["terms"] = [
        {"var": "y", "deriv": 2}, {"var": "y", "integral": 2},
        {"var": "y", "order": -1, "volterra": {"kernel": [[1.0]]}},
        {"product": {"factors": [{"var": "y", "deriv": 1}, {"var": "y", "order": -3}]}}]
    eq = ts.parse_problem(doc).equations[0]
    assert [t.factors for t in eq.terms] == [
        (("y", 2),), (("y", -2),), (("y", -1),), (("y", 1), ("y", -3))]
    assert eq.linear == eq.terms[:3] and eq.products == eq.terms[3:]


def _nonlinear_doc():
    return {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y", "deriv": 1},
                {"var": "y"},
                {"product": {"factors": [{"var": "y"}, {"var": "y"}],
                             "weight": -1.0},
                 "fredholm": {"kernel": [[1.0]]},
                 "augment": True, "augment_name": "w"},
            ],
            "rhs": -0.5,
        }],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": 2.0}],
        "solve": {"n": 8},
    }


def test_augment_structure():
    spec = ts.parse_problem(_nonlinear_doc())
    aug = ts.augment_variables(spec)
    assert aug.variables == ("y", "w")
    assert len(aug.equations) == 2
    # the product is gone from the first equation, replaced by a kernel term
    eq0 = aug.equations[0]
    assert not eq0.products
    assert eq0.terms[:2] == spec.equations[0].terms[:2]
    repl = eq0.terms[-1]
    assert repl.factors == (("w", 0),) and repl.enclosure is Kind.FREDHOLM
    assert repl.coeff == (-1.0,) and not repl.augment
    # the defining equation is w' minus the chain rule products
    eq1 = aug.equations[1]
    assert eq1.terms[0].factors == (("w", 1),) and eq1.terms[0].coeff == (1.0,)
    assert len(eq1.terms) == 3 and len(eq1.products) == 2
    assert all(p.coeff == (-1.0,) and p.enclosure is None for p in eq1.products)
    orders = sorted(tuple(o for _, o in p.factors) for p in eq1.products)
    assert orders == [(0, 1), (1, 0)]
    # the new condition pins w(0) = y(0)^2 = 4
    cond = aug.conditions[-1]
    assert cond.terms[0].var == "w"
    assert cond.value == 4.0
    assert cond.attach_to == "w"


def test_augment_without_initial_value_fails():
    doc = _nonlinear_doc()
    doc["conditions"] = [{"terms": [{"var": "y", "point": 0.0, "deriv": 1}],
                          "value": 1.0}]
    spec = ts.parse_problem(doc)
    with pytest.raises(ts.ValidationError, match="augment_initial"):
        ts.augment_variables(spec)


def test_augment_explicit_initial_value():
    doc = _nonlinear_doc()
    doc["equations"][0]["terms"][2]["augment_initial"] = {"point": 0.0, "value": 9.0}
    aug = ts.augment_variables(ts.parse_problem(doc))
    assert aug.conditions[-1].value == 9.0


def test_auxiliary_start_skips_multi_term_and_zero_weight_conditions():
    """Only a single-term condition of nonzero weight gives a point value."""
    doc = _nonlinear_doc()
    doc["conditions"] += [
        {"terms": [{"var": "y", "point": 0.0, "weight": 0.0}], "value": 5.0},
        {"terms": [{"var": "y", "point": 0.0}, {"var": "y", "point": 1.0}], "value": 7.0}]
    aug = ts.augment_variables(ts.parse_problem(doc))
    # w(0) = y(0)^2 from the condition y(0) = 2 alone
    assert aug.conditions[-1].terms[0].point == 0.0 and aug.conditions[-1].value == 4.0


def test_augment_name_collision():
    doc = _nonlinear_doc()
    doc["equations"][0]["terms"][2]["augment_name"] = "y"
    spec = ts.parse_problem(doc)
    with pytest.raises(ts.ValidationError, match="collides"):
        ts.augment_variables(spec)


def test_augment_noop_for_plain_products():
    doc = _nonlinear_doc()
    del doc["equations"][0]["terms"][2]["augment"]
    del doc["equations"][0]["terms"][2]["augment_name"]
    spec = ts.parse_problem(doc)
    assert ts.augment_variables(spec) is spec


def _iterate(spec, arrays):
    return {v: ts.Series(spec.basis, a) for v, a in arrays.items()}


def test_linearize_is_exact_at_expansion_point():
    """The Newton model agrees with the nonlinear terms at the iterate."""
    doc = {
        "basis": {"family": "ChebyshevT", "domain": [0.0, 1.0]},
        "variables": ["u", "v"],
        "equations": [
            {"terms": [
                {"var": "u", "deriv": 1},
                {"product": {"factors": [{"var": "u"}, {"var": "v"}],
                             "weight": 2.0}},
            ], "rhs": 1.0},
            {"terms": [
                {"var": "v", "deriv": 1},
                {"product": {"factors": [{"var": "u"}, {"var": "u"}],
                             "weight": -1.0},
                 "volterra": {"kernel": [[1.0, 1.0]], "lower": 0.0}},
            ], "rhs": 0.0},
        ],
        "conditions": [
            {"terms": [{"var": "u", "point": 0.0}], "value": 1.0},
            {"terms": [{"var": "v", "point": 0.0}], "value": 0.0},
        ],
        "solve": {"n": 16},
    }
    spec = ts.parse_problem(doc)
    rng = np.random.default_rng(2)
    it = _iterate(spec, {"u": rng.standard_normal(4), "v": rng.standard_normal(4)})
    lin = ts.linearize(spec, it)
    assert lin.is_linear
    d_nl = ts.equation_defects(spec, it)
    d_ln = ts.equation_defects(lin, it)
    for a, b in zip(d_nl, d_ln):
        size = max(len(a), len(b))
        pa = np.zeros(size)
        pa[: len(a)] = a.coeffs
        pb = np.zeros(size)
        pb[: len(b)] = b.coeffs
        npt.assert_allclose(pa, pb, atol=1e-12)


def test_linearize_noop_for_linear_spec():
    spec = ts.parse_problem(_doc())
    assert ts.linearize(spec, {}) is spec


def test_linearize_frozen_coefficients():
    """For w * u^2 the model term on u carries coefficient 2 w u0."""
    doc = _doc()
    doc["equations"][0]["terms"].append(
        {"product": {"factors": [{"var": "y"}, {"var": "y"}], "weight": 3.0}})
    spec = ts.parse_problem(doc)
    y0 = ts.Series(spec.basis, np.array([0.5, 0.25]))
    lin = ts.linearize(spec, {"y": y0})
    added = lin.equations[0].linear[2:]
    assert len(added) == 2
    for term in added:
        npt.assert_allclose(term.coeff, 3.0 * y0.coeffs, atol=1e-14)
    # the frozen product moves to the right-hand side once
    corr = np.asarray(lin.equations[0].rhs)
    frozen = ts.product(y0, y0).coeffs
    npt.assert_allclose(corr[: frozen.size], 3.0 * frozen, atol=1e-14)


def test_initial_iterate_policies():
    doc = _doc()
    doc["conditions"] = [
        {"terms": [{"var": "y", "point": 0.0}], "value": 1.0},
        {"terms": [{"var": "y", "point": 0.0, "deriv": 1}], "value": 2.0},
    ]
    spec = ts.parse_problem(doc)
    it = ts.initial_iterate(spec)
    s = it["y"]
    assert abs(s(0.0) - 1.0) < 1e-12
    ds = ts.series_derivative(s)
    assert abs(ds(0.0) - 2.0) < 1e-12

    zero = ts.initial_iterate(ts.parse_problem(doc, initial="zero"))
    assert np.all(zero["y"].coeffs == 0.0)

    given = ts.initial_iterate(ts.parse_problem(doc, initial=[[5.0, 1.0]]))
    npt.assert_allclose(given["y"].coeffs, [5.0, 1.0])
    flat = ts.initial_iterate(ts.parse_problem(doc, initial=[5.0, 1.0]))
    npt.assert_allclose(flat["y"].coeffs, [5.0, 1.0])

    # an unknown with no condition of its own starts at zero
    coupled = _doc(variables=["y", "z"], conditions=[
        {"terms": [{"var": "y", "point": 0.0}, {"var": "z", "point": 0.0}], "value": 1.0}])
    coupled["equations"] = [{"terms": [{"var": "y", "deriv": 1}, {"var": "z"}]},
                            {"terms": [{"var": "z"}, {"var": "y"}]}]
    start = ts.initial_iterate(ts.parse_problem(coupled))
    assert {v: s.coeffs.tolist() for v, s in start.items()} == {"y": [0.0], "z": [0.0]}

    # conflicting conditions fall back to least squares
    conflict = ts.parse_problem(_doc(conditions=[
        {"terms": [{"var": "y", "point": 0.0}], "value": 1.0},
        {"terms": [{"var": "y", "point": 0.0}], "value": 3.0}]))
    with pytest.warns(UserWarning, match="conditions for 'y' conflict; least-squares"):
        start = ts.initial_iterate(conflict)
    assert abs(start["y"](0.0) - 2.0) < 1e-12


def test_initial_iterate_wrong_row_count():
    spec = ts.parse_problem(_doc(), initial=[[1.0], [2.0]])
    with pytest.raises(ts.ValidationError,
                       match=r"solve\.initial: expected 1 rows, one per unknown in solve order \(y\)"):
        ts.initial_iterate(spec)
    # the rows also cover the auxiliary unknowns that augmentation appends
    spec = ts.parse_problem(_builtin("example1"), initial=[[1.0]])
    with pytest.raises(ts.ValidationError,
                       match=r"solve\.initial: expected 2 rows, .* order \(y, y2\), got 1"):
        ts.solve(spec)
    # a linear problem never starts Newton, yet its rows are checked as well
    spec = ts.parse_problem(_doc(), initial=[[1.0], [2.0], [3.0]])
    assert spec.is_linear
    with pytest.raises(ts.ValidationError,
                       match=r"solve\.initial: expected 1 rows, .* order \(y\), got 3"):
        ts.solve(spec)
    assert ts.solve(ts.parse_problem(_doc(), initial=[[5.0]])).converged


def test_settings_validation():
    with pytest.raises(ts.ValidationError, match="positive"):
        ts.parse_problem(_doc(solve={"n": 0}))
    with pytest.raises(ts.ValidationError, match="newton_tol"):
        ts.parse_problem(_doc(solve={"n": 8, "newton_tol": 0.0}))
    with pytest.raises(ts.ValidationError, match="max_iter"):
        ts.parse_problem(_doc(solve={"n": 8, "max_iter": 0}))
    with pytest.raises(ts.ValidationError, match="initial"):
        ts.parse_problem(_doc(solve={"n": 8, "initial": "best"}))
