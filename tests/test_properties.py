"""Property-based checks of the product, the calculus powers and manufactured solves.

The Newton sweep shares one product per unordered pair of frozen factors
between the exact defect and the linearization, which is only
byte-identical to multiplying in the written order if product(p, q) and
product(q, p) agree bitwise.  The product's one ordered scatter, its
scaled copy for a constant factor and the one-point evaluation give the
bytes of the plain loops they replaced.  Differentiation undoes
integration on every column the antiderivative keeps.  A problem or a
system whose exact solution is polynomial below the working size is
solved exactly by the tau method, up to rounding, whatever its polynomial
coefficients, kernels and couplings; when it is nonlinear, Newton gets
there from a nearby start.
"""

import functools

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import tauspec as ts

import oracles
import references

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FAMILIES = [ts.CHEBYSHEV, ts.LEGENDRE]

# Zeros of both signs among magnitudes from 1e-3 to 1, so that the exact
# product is never dominated by underflow.
COEFFICIENT = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 1.0)))


UNIT = st.floats(-1.0, 1.0)


@st.composite
def factors(draw):
    """Coefficients of length 1 to 70, the last ``tail`` of them zero."""
    size = draw(st.integers(1, 70))
    tail = draw(st.integers(0, size - 1))
    coeffs = draw(st.lists(COEFFICIENT, min_size=size - tail, max_size=size - tail))
    return np.array(coeffs + [0.0] * tail)


@pytest.mark.parametrize("family", FAMILIES)
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=factors(), b=factors())
@hypothesis.example(a=np.linspace(-1.0, 1.0, 70), b=np.cos(np.arange(70.0)))
def test_product_is_bitwise_symmetric_and_exact(family, a, b):
    basis = ts.BasisSpec(family, (0.0, 2.5))
    p, q = ts.Series(basis, a), ts.Series(basis, b)
    pq, qp = ts.product(p, q).coeffs, ts.product(q, p).coeffs
    assert pq.tobytes() == qp.tobytes()
    want = np.array([float(c) for c in oracles.recurrence_product_oracle(family, a, b)])
    size = max(pq.size, want.size)
    got = np.zeros(size)
    got[: pq.size] = pq
    exact = np.zeros(size)
    exact[: want.size] = want
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(family=st.sampled_from(FAMILIES), a=st.floats(-4.0, 4.0),
                  width=st.floats(0.1, 8.0), n=st.integers(1, 150))
def test_differentiation_undoes_integration_on_the_leading_block(family, a, width, n):
    """d/dx of the antiderivative is the identity on the first n - 1 columns.

    The last column is the primitive of the last member, which loses its
    top coefficient to the working size.
    """
    store = ts.WorkingSize(ts.BasisSpec(family, (a, a + width)), n)
    got = (store.power(1) @ store.power(-1))[:, : n - 1]
    assert np.max(np.abs(got - np.eye(n)[:, : n - 1]), initial=0.0) <= 1e-14


@st.composite
def scatter_factors(draw):
    """Coefficients of length 1 to 80: dense, one coefficient, or all zero.

    Signed zeros come from COEFFICIENT; a scale of 1e-300 makes products
    of pair weights and rows underflow to subnormals and signed zeros.
    """
    size = draw(st.integers(1, 80))
    coeffs = np.array(draw(st.lists(COEFFICIENT, min_size=size, max_size=size)))
    shape = draw(st.sampled_from(["dense", "one", "zero"]))
    if shape == "one":
        coeffs[1:] = 0.0
    elif shape == "zero":
        coeffs = np.copysign(0.0, coeffs)
    return coeffs * draw(st.sampled_from([1.0, 1e-300]))


@pytest.mark.parametrize("family", FAMILIES)
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=scatter_factors(), b=scatter_factors())
@hypothesis.example(a=np.array([-0.5]), b=np.linspace(-1.0, 1.0, 80))
@hypothesis.example(a=np.array([3.0, -0.0, 0.0]), b=np.array([-0.0]))
@hypothesis.example(a=np.linspace(-1.0, 1.0, 80), b=np.cos(np.arange(80.0)))
def test_product_bytes_match_the_pair_loop_property(family, a, b):
    basis = ts.BasisSpec(family, (0.0, 2.5))
    p, q = ts.Series(basis, a), ts.Series(basis, b)
    for x, y in ((p, q), (q, p)):
        got = ts.product(x, y).coeffs
        assert got.tobytes() == references.pair_loop_product(x, y).coeffs.tobytes()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(family=st.sampled_from(FAMILIES), a=st.floats(-4.0, 4.0),
                  width=st.floats(0.1, 8.0), coeffs=st.lists(UNIT, min_size=1, max_size=80),
                  share=st.floats(0.0, 1.0))
def test_one_point_evaluation_bytes_match_the_array_loop(family, a, width, coeffs, share):
    """At the domain ends and inside, a scalar point gives the array loop's bits."""
    basis = ts.BasisSpec(family, (a, a + width))
    series = ts.Series(basis, coeffs)
    lo, hi = basis.domain
    for x in (lo, hi, min(lo + share * (hi - lo), hi)):
        got = ts.evaluate(series, x)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(references.evaluate(series, x)).tobytes()


def test_product_oracles_agree_exactly():
    """The recurrence oracle gives the same rationals as product_oracle."""
    rng = np.random.default_rng(41)
    for family in FAMILIES:
        for domain in ((0.0, 1.0), (-3.0, 0.5)):
            for _ in range(15):
                a = rng.standard_normal(rng.integers(1, 9))
                b = rng.standard_normal(rng.integers(1, 9))
                a[rng.integers(0, a.size)] = 0.0
                assert (oracles.recurrence_product_oracle(family, a, b)
                        == oracles.product_oracle(family, domain, a, b))


# -- manufactured linear problems ---------------------------------------------


def _power_kernel(draw, size=3) -> np.ndarray:
    """k[i, j] of x^i t^j, i, j < size, entries in [-0.25, 0.25]."""
    rows, cols = draw(st.integers(1, size)), draw(st.integers(1, size))
    return 0.25 * np.array(draw(st.lists(
        st.lists(UNIT, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


def _kernel_image(kernel, u, upper, lower=0.0) -> np.ndarray:
    """Power coefficients of x -> integral from lower to upper(x) of K(x, t) u(t) dt.

    ``upper`` is None for the variable limit x, else the fixed limit.
    """
    out = np.zeros(1)
    for i, row in enumerate(kernel):
        for j, kij in enumerate(row):
            prim = P.polyint(P.polymul(np.eye(j + 1)[j], u), lbnd=lower)
            if upper is None:
                piece = P.polymul(np.eye(i + 1)[i], prim)
            else:
                piece = P.polyval(upper, prim) * np.eye(i + 1)[i]
            out = P.polyadd(out, kij * piece)
    return out


@st.composite
def manufactured(draw):
    """y' * p1 + p0 * y + Volterra + Fredholm = f on [0, L], y(0) given.

    The exact solution u and every coefficient and kernel are drawn in
    powers of x; f follows from u in exact numpy polynomial algebra.
    p1 = 1 + (small) keeps the leading coefficient away from zero, and
    the kernels stay small, so every drawn problem is well posed.
    """
    length = draw(st.floats(0.5, 1.0))
    degree = draw(st.integers(0, 8))
    u = np.array(draw(st.lists(UNIT, min_size=degree + 1, max_size=degree + 1)))
    u[0] = 1.0 + abs(u[0])
    u = u / length ** np.arange(degree + 1)
    p1 = P.polyadd([1.0], 0.3 * np.array(draw(st.lists(UNIT, min_size=1, max_size=3))))
    p0 = np.array(draw(st.lists(UNIT, min_size=1, max_size=3)))
    kv, kf = _power_kernel(draw), _power_kernel(draw)
    rhs = P.polymul(p1, P.polyder(u)) if degree else np.zeros(1)
    rhs = P.polyadd(rhs, P.polymul(p0, u))
    rhs = P.polyadd(rhs, _kernel_image(kv, u, None))
    rhs = P.polyadd(rhs, _kernel_image(kf, u, length))
    n = degree + draw(st.integers(8, 16))
    doc = {
        "basis": {"family": draw(st.sampled_from(FAMILIES)), "domain": [0.0, length]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y", "deriv": 1, "coeff": {"basis": "power", "coeffs": p1.tolist()}},
                {"var": "y", "coeff": {"basis": "power", "coeffs": p0.tolist()}},
                {"var": "y", "volterra": {"kernel": kv.tolist(), "lower": 0.0}},
                {"var": "y", "fredholm": {"kernel": kf.tolist()}},
            ],
            "rhs": {"basis": "power", "coeffs": rhs.tolist()},
        }],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": float(u[0])}],
        "solve": {"n": n},
    }
    return doc, u


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=manufactured())
def test_manufactured_linear_problems_are_solved_exactly(case):
    doc, u = case
    sol = ts.solve(ts.parse_problem(doc))
    grid = np.linspace(0.0, doc["basis"]["domain"][1], 101)
    exact = P.polyval(grid, u)
    got = ts.evaluate(sol["y"], grid)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


# -- manufactured nonlinear problems ------------------------------------------


@st.composite
def manufactured_nonlinear(draw):
    """y' + w y^2 + v * Volterra(y^2) = f on [0, L], y(0) given, and a nearby start.

    As for the linear problems, the exact solution u and the kernel are
    drawn in powers of x and f follows from u.  Newton starts from the
    basis coefficients of u, each moved by a relative 1e-3.
    """
    length = draw(st.floats(0.5, 1.0))
    degree = draw(st.integers(0, 6))
    u = np.array(draw(st.lists(UNIT, min_size=degree + 1, max_size=degree + 1)))
    u[0] = 1.0 + abs(u[0])
    u = u / length ** np.arange(degree + 1)
    w, v = draw(UNIT), draw(UNIT)
    kv = _power_kernel(draw)
    square = P.polymul(u, u)
    rhs = P.polyder(u) if degree else np.zeros(1)
    rhs = P.polyadd(rhs, w * square)
    rhs = P.polyadd(rhs, v * _kernel_image(kv, square, None))
    family = draw(st.sampled_from(FAMILIES))
    start = ts.from_power_series(ts.BasisSpec(family, (0.0, length)), u)
    moves = draw(st.lists(UNIT, min_size=start.size, max_size=start.size))
    start = start * (1.0 + 1e-3 * np.array(moves))
    square_of_y = {"factors": [{"var": "y"}, {"var": "y"}]}
    doc = {
        "basis": {"family": family, "domain": [0.0, length]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y", "deriv": 1},
                {"product": dict(square_of_y, weight=w)},
                {"product": dict(square_of_y, weight=v),
                 "volterra": {"kernel": kv.tolist(), "lower": 0.0}},
            ],
            "rhs": {"basis": "power", "coeffs": rhs.tolist()},
        }],
        "conditions": [{"terms": [{"var": "y", "point": 0.0}], "value": float(u[0])}],
        "solve": {"n": 2 * degree + draw(st.integers(8, 16)), "initial": [start.tolist()]},
    }
    return doc, u


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=manufactured_nonlinear())
def test_manufactured_nonlinear_problems_converge_from_a_nearby_start(case):
    doc, u = case
    sol = ts.solve(ts.parse_problem(doc))
    updates = [state.update_norm for state in sol.newton]
    assert sol.converged
    assert all(later < earlier for earlier, later in zip(updates, updates[1:]))
    grid = np.linspace(0.0, doc["basis"]["domain"][1], 101)
    exact = P.polyval(grid, u)
    got = ts.evaluate(sol["y"], grid)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


# -- manufactured systems -------------------------------------------------------


WEIGHT = st.floats(-0.5, 0.5)


def _exact_polynomial(draw, length) -> np.ndarray:
    """Power coefficients of degree 0 to 6 in x / L, with a constant term of 1 to 2."""
    degree = draw(st.integers(0, 6))
    u = np.array(draw(st.lists(UNIT, min_size=degree + 1, max_size=degree + 1)))
    u[0] = 1.0 + abs(u[0])
    return u / length ** np.arange(degree + 1)


def _other(draw, names, i) -> int:
    """The index of an unknown other than the i-th."""
    return draw(st.sampled_from([k for k in range(len(names)) if k != i]))


# The bare product that each nonlinear kind of system adds to its first
# equation, as (unknown index, order) factors, and the least d_1 it allows.
PRODUCTS = {
    "pair": (((0, 0), (1, 0)), 1),
    "triple": (((0, 0), (1, 0), (2, 0)), 1),
    "derivative": (((0, 1), (1, 0)), 2),
    "antiderivative": (((0, -1), (1, 0)), 1),
    "augmented": (((0, 0), (1, 0)), 1),
}


def _factor_polynomial(u, order, length) -> np.ndarray:
    """Power coefficients of a factor: u differentiated, or its antiderivative vanishing at L / 2."""
    return P.polyint(u, lbnd=length / 2) if order < 0 else P.polyder(u, order)


@st.composite
def manufactured_system(draw, product=None):
    """A system of 2 to 4 unknowns on [0, L], and the power coefficients of its solution.

    Equation i holds the derivative of order d_i of y_i, and three
    couplings to other unknowns, each with a weight of at most 0.5: a
    derivative of order at most that unknown's own d_k, a Volterra
    integral from a drawn lower limit and a Fredholm integral, with
    kernels of up to 2 x 2.  Each unknown has one condition per order
    below its d_i, at a drawn point; some of them also weigh, first, a
    derivative of another unknown up to its d_k at a point, and so name
    y_i in ``attach_to``.  (A higher derivative of y_k at a point is not
    bounded by the problem: its rounding error grows like n^(2 order).)  The
    solutions u_i are polynomials of degree below n / 2, and each f_i
    follows from them in exact numpy polynomial algebra.

    ``product``, a key of PRODUCTS, makes the system nonlinear: the first
    equation gains w times its bare product (y1 y2, y1 y2 y3 with solutions
    of degree below n / 3, y1' y2 with d_1 = 2, or (integral of y1) y2, the
    antiderivative that vanishes at L / 2), with d_1 >= 1, and the last a
    Volterra integral of y1 y2.  "augmented" marks that integral for
    augmentation, its auxiliary unknown pinned at a drawn point.  Newton
    starts from the basis coefficients of every unknown's exact solution,
    each moved by a relative 1e-3.
    """
    length = draw(st.floats(0.5, 1.0))
    factors, low = PRODUCTS[product] if product else ((), 0)
    count = draw(st.integers(max(2, len(factors)), 4))
    names = [f"y{i + 1}" for i in range(count)]
    exact = [_exact_polynomial(draw, length) for _ in names]
    orders = [draw(st.integers(low if i == 0 else 0, 2)) for i in range(count)]
    top = max(u.size for u in exact) - 1
    equations, conditions = [], []
    for i, name in enumerate(names):
        rhs = P.polyder(exact[i], orders[i])
        terms = [{"var": name, "deriv": orders[i]}]
        k = _other(draw, names, i)
        order, c = draw(st.integers(0, orders[k])), draw(WEIGHT)
        terms.append({"var": names[k], "deriv": order, "coeff": c})
        rhs = P.polyadd(rhs, c * P.polyder(exact[k], order))
        k, c = _other(draw, names, i), draw(WEIGHT)
        kernel, lower = _power_kernel(draw, 2), draw(st.floats(0.0, length))
        terms.append({"var": names[k], "coeff": c,
                      "volterra": {"kernel": kernel.tolist(), "lower": lower}})
        rhs = P.polyadd(rhs, c * _kernel_image(kernel, exact[k], None, lower))
        k, c, kernel = _other(draw, names, i), draw(WEIGHT), _power_kernel(draw, 2)
        terms.append({"var": names[k], "coeff": c, "fredholm": {"kernel": kernel.tolist()}})
        rhs = P.polyadd(rhs, c * _kernel_image(kernel, exact[k], length))
        equations.append({"terms": terms, "rhs": rhs})
        for r in range(orders[i]):
            x = draw(st.floats(0.0, length))
            cond = {"terms": [{"var": name, "point": x, "deriv": r}],
                    "value": P.polyval(x, P.polyder(exact[i], r))}
            if draw(st.booleans()):
                k, c = _other(draw, names, i), draw(WEIGHT)
                at, order = draw(st.floats(0.0, length)), draw(st.integers(0, orders[k]))
                cond["terms"].insert(0, {"var": names[k], "point": at, "deriv": order, "weight": c})
                cond["value"] += c * P.polyval(at, P.polyder(exact[k], order))
                cond["attach_to"] = name
            conditions.append(dict(cond, value=float(cond["value"])))
    family = draw(st.sampled_from(FAMILIES))
    # n covers the conditions and every right-hand side degree (at most the
    # products' degree plus 3), with solutions of degree below n / max(2, factors)
    n = max(2, len(factors)) * top + len(conditions) + draw(st.integers(4, 12))
    solve = {"n": n}
    if product:
        w, v = draw(WEIGHT), draw(WEIGHT)
        bare = [_factor_polynomial(exact[k], order, length) for k, order in factors]
        equations[0]["terms"].append({"product": {
            "factors": [{"var": names[k], "order": order} for k, order in factors], "weight": w}})
        equations[0]["rhs"] = P.polyadd(equations[0]["rhs"], w * functools.reduce(P.polymul, bare))
        both = P.polymul(exact[0], exact[1])
        kernel = _power_kernel(draw, 2)
        enclosed = {"product": {"factors": [{"var": "y1"}, {"var": "y2"}], "weight": v},
                    "volterra": {"kernel": kernel.tolist(), "lower": 0.0}}
        starts = list(exact)
        if product == "augmented":
            at = draw(st.floats(0.0, length))
            enclosed.update(augment=True,
                            augment_initial={"point": at, "value": float(P.polyval(at, both))})
            starts.append(both)  # the auxiliary unknown y1 y2 comes last in solve order
        equations[-1]["terms"].append(enclosed)
        equations[-1]["rhs"] = P.polyadd(equations[-1]["rhs"], v * _kernel_image(kernel, both, None))
        basis = ts.BasisSpec(family, (0.0, length))
        solve["initial"] = []
        for u in starts:
            start = ts.from_power_series(basis, u)
            moves = draw(st.lists(UNIT, min_size=start.size, max_size=start.size))
            solve["initial"].append((start * (1.0 + 1e-3 * np.array(moves))).tolist())
    for eq in equations:
        eq["rhs"] = {"basis": "power", "coeffs": eq["rhs"].tolist()}
    doc = {
        "basis": {"family": family, "domain": [0.0, length]},
        "variables": names,
        "equations": equations,
        "conditions": conditions,
        "solve": solve,
    }
    return doc, exact


def _system_error(doc, exact, sol) -> float:
    """Largest error over the unknowns on a grid, as a share of the largest exact value."""
    grid = np.linspace(0.0, doc["basis"]["domain"][1], 101)
    values = [P.polyval(grid, u) for u in exact]
    errors = [np.max(np.abs(ts.evaluate(sol[name], grid) - want))
              for name, want in zip(doc["variables"], values)]
    return max(errors) / max(np.max(np.abs(want)) for want in values)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=manufactured_system())
def test_manufactured_linear_systems_are_solved_exactly(case):
    doc, exact = case
    sol = ts.solve(ts.parse_problem(doc))
    assert _system_error(doc, exact, sol) <= 1e-12


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=manufactured_system("pair"))
def test_manufactured_nonlinear_systems_converge_from_a_nearby_start(case):
    doc, exact = case
    sol = ts.solve(ts.parse_problem(doc))
    assert sol.converged
    assert _system_error(doc, exact, sol) <= 1e-12


@pytest.mark.parametrize("product", ["triple", "derivative", "antiderivative", "augmented"])
@hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_manufactured_product_systems_converge_from_a_nearby_start(product, data):
    doc, exact = data.draw(manufactured_system(product))
    sol = ts.solve(ts.parse_problem(doc))
    assert sol.converged
    assert _system_error(doc, exact, sol) <= 1e-12
