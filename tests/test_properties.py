"""Property-based checks of the product, the calculus powers and manufactured solves.

The Newton sweep shares one product per unordered pair of frozen factors
between the exact defect and the linearization, which is only
byte-identical to multiplying in the written order if product(p, q) and
product(q, p) agree bitwise.  The product's one ordered scatter, its
scaled copy for a constant factor and the one-point evaluation on Python
floats give the bytes of the plain loops they replaced.  Differentiation
undoes integration on every column the antiderivative keeps.  A problem
whose exact solution is a polynomial below the working size is solved
exactly by the tau method, up to rounding, whatever its polynomial
coefficients and kernels; when it is nonlinear, Newton gets there from a
nearby start.
"""

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


def _power_kernel(draw) -> np.ndarray:
    """k[i, j] of x^i t^j, up to degree 2 in each variable, entries in [-0.25, 0.25]."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return 0.25 * np.array(draw(st.lists(
        st.lists(UNIT, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


def _kernel_image(kernel, u, upper) -> np.ndarray:
    """Power coefficients of x -> integral from 0 to upper(x) of K(x, t) u(t) dt.

    ``upper`` is None for the variable limit x, else the fixed limit.
    """
    out = np.zeros(1)
    for i, row in enumerate(kernel):
        for j, kij in enumerate(row):
            prim = P.polyint(P.polymul(np.eye(j + 1)[j], u), lbnd=0.0)
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
