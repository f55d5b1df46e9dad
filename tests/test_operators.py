"""Operator matrices against exact rational references."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import tauspec as ts
from tauspec.basis import _basis_member_matrices, _member_values

import oracles
import references

FAMILIES = [ts.CHEBYSHEV, ts.LEGENDRE]
DOMAINS = [(-1.0, 1.0), (0.0, 1.0), (-2.0, 3.0)]
RECURRENCES = {
    ts.CHEBYSHEV: lambda j: (1.0, 0.0, 0.0) if j == 0 else (0.5, 0.0, 0.5),
    ts.LEGENDRE: lambda j: ((j + 1.0) / (2 * j + 1.0), 0.0, j / (2 * j + 1.0)),
}


def _oracle(fn, family, domain, n):
    return np.array(oracles.as_floats(fn(family, domain, n)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_multiplication_matrix(family, domain):
    basis = ts.BasisSpec(family, domain)
    got = ts.multiplication_matrix(basis, 12)
    want = _oracle(oracles.mult_oracle, family, domain, 12)
    npt.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_differentiation_matrix(family, domain):
    basis = ts.BasisSpec(family, domain)
    got = basis.c1 * ts.differentiation_matrix(basis, 12)
    want = _oracle(oracles.deriv_oracle, family, domain, 12)
    npt.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_integration_matrix(family, domain):
    basis = ts.BasisSpec(family, domain)
    got = ts.integration_matrix(basis, 12) / basis.c1
    want = _oracle(oracles.integ_oracle, family, domain, 12)
    npt.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 1.0)])
def test_basis_power_round_trip(family, domain):
    """Conversion matrices are exact inverses up to entry rounding.

    Power-basis entries grow geometrically with the degree, so the
    residual of the round trip is judged against the entry scale; the
    recurrences keep it at unit roundoff.
    """
    basis = ts.BasisSpec(family, domain)
    n = 30
    v = ts.basis_to_power_matrix(basis, n)
    w = ts.power_to_basis_matrix(basis, n)
    resid = np.max(np.abs(w @ v - np.eye(n)))
    assert resid <= 1e-12 * max(1.0, np.abs(v).max())
    vw = _oracle(oracles.basis_to_power, family, domain, 12)
    npt.assert_allclose(v[:12, :12], vw, rtol=1e-12, atol=1e-12)
    ww = _oracle(oracles.power_to_basis, family, domain, 12)
    npt.assert_allclose(w[:12, :12], ww, rtol=1e-12, atol=1e-12)


def test_from_power_series_hand_case():
    # x^2 on [0, 1] is (3 + 4 T*_1 + T*_2) / 8
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    got = ts.from_power_series(basis, [0.0, 0.0, 1.0])
    npt.assert_allclose(got, [3 / 8, 1 / 2, 1 / 8], atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_multiplication_matrix_power(family):
    basis = ts.BasisSpec(family, (0.0, 1.0))
    n = 10
    m = ts.multiplication_matrix(basis, n)
    acc = np.eye(n)
    for k in range(5):
        got = ts.multiplication_matrix_power(basis, k, n)
        npt.assert_allclose(got, acc, atol=1e-13)
        acc = m @ acc


@pytest.mark.parametrize("family", FAMILIES)
def test_polynomial_multiplication_action(family):
    """First n coefficients of an exact product equal the operator action."""
    rng = np.random.default_rng(3)
    basis = ts.BasisSpec(family, (0.0, 1.0))
    n = 14
    for _ in range(10):
        p = rng.standard_normal(rng.integers(1, 6))
        a = rng.standard_normal(rng.integers(1, n + 1))
        op = ts.polynomial_multiplication_matrix(ts.WorkingSize(basis, n), p)
        av = np.zeros(n)
        av[: a.size] = a
        got = op @ av
        exact = ts.product(ts.Series(basis, p), ts.Series(basis, a)).coeffs
        want = np.zeros(n)
        want[: min(n, exact.size)] = exact[:n]
        npt.assert_allclose(got, want, atol=1e-12)


def test_polynomial_multiplication_rejects_long_coeff():
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    with pytest.raises(ValueError):
        ts.polynomial_multiplication_matrix(ts.WorkingSize(basis, 6), np.ones(7))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_derivative_undoes_antiderivative(family, domain):
    """D O = I on the leading block; the tail row is lost to truncation."""
    basis = ts.BasisSpec(family, domain)
    n = 16
    d = basis.c1 * ts.differentiation_matrix(basis, n)
    o = ts.integration_matrix(basis, n) / basis.c1
    npt.assert_allclose((d @ o)[: n - 1, : n - 1], np.eye(n - 1), atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_series_calculus_round_trip(family):
    rng = np.random.default_rng(5)
    basis = ts.BasisSpec(family, (0.0, 2.0))
    s = ts.Series(basis, rng.standard_normal(9))
    anti = ts.series_antiderivative(s)
    assert len(anti) == len(s) + 1
    # antiderivative is pinned to zero at the domain midpoint
    assert abs(anti(1.0)) < 1e-13
    back = ts.series_derivative(anti)
    npt.assert_allclose(back.coeffs[: len(s)], s.coeffs, atol=1e-12)


def _assembled(basis, n, terms, conditions=()):
    """Assembled equation rows of one linear equation in y."""
    spec = ts.ProblemSpec(
        basis=basis, variables=("y",),
        equations=(ts.EquationSpec(tuple(terms)),),
        conditions=tuple(conditions), settings=ts.SolveSettings(n=n))
    return ts.assemble(spec).matrix[len(conditions):]


def test_differential_operator_composition():
    """p(x) y'' + 2 y' + 3 y assembles to P(p) D^2 + 2 D + 3 I."""
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    n = 12
    d = basis.c1 * ts.differentiation_matrix(basis, n)
    p1 = ts.from_power_series(basis, [0.0, 1.0])
    want = ts.polynomial_multiplication_matrix(ts.WorkingSize(basis, n), p1) @ (d @ d) \
        + 2.0 * d + 3.0 * np.eye(n)
    terms = [ts.TermSpec((("y", 2),), tuple(p1)),
             ts.TermSpec((("y", 1),), (2.0,)),
             ts.TermSpec((("y", 0),), (3.0,))]
    conds = [ts.ConditionSpec((ts.ConditionTerm("y", k, 0.0),), 0.0) for k in (0, 1)]
    npt.assert_allclose(_assembled(basis, n, terms, conds), want[: n - 2], atol=1e-12)


def test_integral_operator_composition():
    """2 (int y) + 0.5 (int int y) assembles to 2 O + 0.5 O^2."""
    basis = ts.BasisSpec(ts.LEGENDRE, (0.0, 1.0))
    n = 12
    o = ts.integration_matrix(basis, n) / basis.c1
    want = 2.0 * o + 0.5 * (o @ o)
    terms = [ts.TermSpec((("y", -1),), (2.0,)),
             ts.TermSpec((("y", -2),), (0.5,))]
    npt.assert_allclose(_assembled(basis, n, terms), want, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_calculus_matrices_do_not_depend_on_call_order(family):
    """A regrown cache serves the same bytes as the first, smaller build."""
    ts.register_family(f"Fresh{family}", RECURRENCES[family])
    fresh = ts.BasisSpec(f"Fresh{family}")
    for build in (ts.integration_matrix, ts.differentiation_matrix):
        first = build(fresh, 20).tobytes()
        assert build(fresh, 300).shape == (300, 300)
        assert build(fresh, 20).tobytes() == first
        assert build(ts.BasisSpec(family), 20).tobytes() == first


# beta != 0, so no entry of d/dx is an exact zero above the diagonal
SKEWED = "SkewedBands"
INTEGRATION_RECURRENCES = {**RECURRENCES, SKEWED: lambda j: (0.5, 0.25 / (j + 1), 0.5)}


@pytest.mark.parametrize("family", [*FAMILIES, SKEWED])
def test_integration_matrix_bytes_match_the_back_substitution(family):
    """Any size, grown in any order, has the bytes of one dot per entry.

    Chebyshev and Legendre skip the dots of the checkerboard's zeros,
    SkewedBands takes every dot.  Each size and each growth order starts
    on a freshly registered family, so the cache grows from its first
    block; the orders grow from one column, from a block whose last
    column was cut, and shrink after the largest size.  2, 25, 50, 100
    is the growth of a cold example2 solve.
    """
    name = f"Integration{family}"
    ts.register_family(name, INTEGRATION_RECURRENCES[family])
    basis = ts.BasisSpec(name, (0.0, 1.0))
    want = {}

    def check(n, label):
        if n not in want:
            want[n] = references.integration_matrix(basis, n).tobytes()
        assert ts.integration_matrix(basis, n).tobytes() == want[n], (label, n)

    for n in [*range(1, 65), 255, 256, 257, 300, 513]:
        ts.register_family(name, INTEGRATION_RECURRENCES[family])
        check(n, "cold")
    for order in ([5, 17, 40, 130, 300], [300, 5, 17, 40, 130], [1, 2, 3, 4, 100],
                  [2, 25, 50, 100], [17, 34], [130, 260], [300, 5]):
        ts.register_family(name, INTEGRATION_RECURRENCES[family])
        for n in order:
            check(n, order)


def test_integration_build_batches_its_dots(monkeypatch):
    """A cold build at N=300 makes one batched dot call per anti-diagonal.

    One call per entry would be about N**2 / 4 calls; the bound is 2N, and
    SkewedBands, which skips no dot, needs the most of the three families.
    """
    calls = []

    def counted(a, b):
        calls.append(a.shape)
        return row_dots(a, b)

    row_dots = ts.operators._row_dots
    monkeypatch.setattr(ts.operators, "_row_dots", counted)
    for family in [*FAMILIES, SKEWED]:
        ts.register_family(f"Batched{family}", INTEGRATION_RECURRENCES[family])
        calls.clear()
        ts.integration_matrix(ts.BasisSpec(f"Batched{family}"), 300)
        assert 0 < len(calls) <= 2 * 300, family


def test_cold_integration_build_memory_is_bounded():
    """A cold build at N=1024 peaks at no more than the one-dot-per-entry build.

    That build, d/dx at N + 1 beside the output, peaked at 16.2 MiB.  The
    batched build holds d/dx beside its work array and writes the output
    into the buffer of d/dx; a copy of d/dx or a third matrix fails the
    bound.
    """
    ts.register_family("MemoryChebyshev", RECURRENCES[ts.CHEBYSHEV])
    basis = ts.BasisSpec("MemoryChebyshev")
    ts.recurrence_coefficients(basis, 1025)  # the family's arrays are not the build's
    tracemalloc.start()
    try:
        ts.integration_matrix(basis, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16.3 * 2**20


@pytest.mark.parametrize("family", FAMILIES)
def test_recurrence_users_match_the_step_loops_byte_for_byte(family):
    """Every user of the shared three term step gives the bytes of its own loop.

    A freshly registered copy of the family starts with empty caches, and
    sizes and linearization rows are asked for out of order, so the caches
    regrow on the way.  [-1, 1] has c2 = -0.0, so signed zeros count too.
    """
    name = f"StepCopy{family}"
    ts.register_family(name, RECURRENCES[family])
    rng = np.random.default_rng(8)
    for domain in [(-1.0, 1.0), (0.0, 2.5), (-3.0, 0.5)]:
        basis = ts.BasisSpec(name, domain)
        xs = np.linspace(*domain, 9)
        for n in (7, 130, 1, 40, 2):
            series = ts.Series(basis, rng.standard_normal(n))
            pairs = [
                (ts.basis_row(basis, xs[3], n), references.basis_row(basis, xs[3], n)),
                (ts.evaluate(series, xs), references.evaluate(series, xs)),
                (np.float64(ts.evaluate(series, xs[5])),
                 np.float64(references.evaluate(series, xs[5]))),
                (ts.basis_to_power_matrix(basis, n), references.basis_to_power_matrix(basis, n)),
                (ts.differentiation_matrix(basis, n), references.differentiation_matrix(basis, n)),
                *zip(_member_values(basis, np.float64(-0.0), n),
                     references.member_values(basis, np.float64(-0.0), n)),
                *zip(_basis_member_matrices(basis, n, n),
                     references.basis_member_matrices(basis, n, n)),
            ]
            for got, want in pairs:
                assert got.tobytes() == want.tobytes()
    table = ts.linearization_table(name)
    for i, j in [(126, 135), (7, 3), (0, 0), (40, 135), (130, 1), (2, 2), (129, 130)]:
        table.row(i, j)
    climbs = {}
    for k, j in list(table._cache):
        idx, vals = table.row(k, j)
        if j not in climbs:
            climbs[j] = references.linearization_climb(ts.BasisSpec(name), j)
        assert idx.tobytes() == climbs[j][k][0].tobytes()
        assert vals.tobytes() == climbs[j][k][1].tobytes()
    assert (126, 135) in table._cache and set(climbs) == {0, 2, 7, 130, 135}


@pytest.mark.parametrize("family", FAMILIES)
def test_point_values_match_the_step_loop_past_the_first_cache_size(family):
    """Cached point values regrown past their first length keep the loop's bytes.

    A 2-D grid, one point of it as a scalar and the member rows there are
    asked for at rising, falling and rising lengths on a fresh family, so
    the cache starts short and regrows three times.
    """
    name = f"PointCopy{family}"
    ts.register_family(name, RECURRENCES[family])
    rng = np.random.default_rng(9)
    for domain in [(-1.0, 1.0), (0.0, 2.5)]:
        basis = ts.BasisSpec(name, domain)
        grid = np.linspace(*domain, 12).reshape(3, 4)
        for n in (5, 70, 3, 300, 650, 11):
            series = ts.Series(basis, rng.standard_normal(n))
            assert (ts.evaluate(series, grid).tobytes()
                    == references.evaluate(series, grid).tobytes())
            assert (np.float64(ts.evaluate(series, grid[1, 2])).tobytes()
                    == np.float64(references.evaluate(series, grid[1, 2])).tobytes())
            assert (ts.basis_row(basis, grid[2, 1], n).tobytes()
                    == references.basis_row(basis, grid[2, 1], n).tobytes())
        rows = ts.basis._FAMILIES[name].points[(domain, (3, 4), grid.tobytes())]
        assert rows.shape == (650, 3, 4)  # lengths 5, 70, 300 and 650: each past double


def test_cached_matrices_are_read_only():
    basis = ts.BasisSpec(ts.CHEBYSHEV)
    for build in (ts.integration_matrix, ts.differentiation_matrix):
        mat = build(basis, 8)
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def _poly_series(basis, power_coeffs):
    return ts.Series(basis, ts.from_power_series(basis, power_coeffs))


@pytest.mark.parametrize("family", FAMILIES)
def test_volterra_operator_exact_on_low_degree(family):
    """With all degrees far below n the truncated operator is exact."""
    basis = ts.BasisSpec(family, (0.0, 1.0))
    n = 14
    kernel = ts.kernel_from_power(basis, [[0.0, -1.0], [1.0, 0.0]])  # x - t
    op = ts.volterra_operator(ts.WorkingSize(basis, n), kernel, 0.0)
    y = _poly_series(basis, [1.0, -2.0, 0.0, 0.5])
    av = np.zeros(n)
    av[: len(y)] = y.coeffs
    got = op @ av
    exact = ts.volterra_apply(kernel, 0.0, y)
    want = np.zeros(n)
    want[: min(n, len(exact))] = exact.coeffs[:n]
    npt.assert_allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_volterra_operator_bytes_match_per_column_build(family):
    """Building the x-side members once changes no bit of the operator."""
    rng = np.random.default_rng(41)
    # [-1, 1] has c2 = -0.0, so the first column's product with P_0(J) = I,
    # which is skipped, meets signed zeros
    for basis in (ts.BasisSpec(family, (-0.5, 1.5)), ts.BasisSpec(family)):
        for nx, nt, n in [(2, 3, 10), (3, 7, 16), (4, 20, 24), (2, 1, 5), (5, 12, 12),
                          (1, 1, 1), (3, 2, 40)]:
            k = rng.standard_normal((nx, nt))
            k[:, rng.integers(0, nt)] = 0.0  # a zero column is skipped
            if nt > 2:
                k[0, 1] = 0.0
            kernel = ts.KernelPoly(basis, k)
            got = ts.volterra_operator(ts.WorkingSize(basis, n), kernel, 0.25)
            want = references.per_column_volterra_operator(kernel, 0.25, n)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", [*FAMILIES, SKEWED])
def test_fredholm_operator_bytes_match_the_per_call_antiderivative(family):
    """The store's antiderivative changes no bit of the Fredholm operator.

    The reference divides the integration matrix by c1 on every call and
    keeps its -0.0 entries; both domains have c1 != 1.  Each kernel with
    two t-columns or more has an all-zero one.
    """
    name = f"Fredholm{family}"
    ts.register_family(name, INTEGRATION_RECURRENCES[family])
    rng = np.random.default_rng(47)
    for domain in [(0.0, 1.0), (-1.0, 2.0)]:
        basis = ts.BasisSpec(name, domain)
        for n in (1, 2, 17, 64, 130):
            k = rng.standard_normal((min(n, 4), min(n, 6)))
            if k.shape[1] > 1:
                k[:, k.shape[1] // 2] = 0.0
            kernel = ts.KernelPoly(basis, k)
            got = ts.fredholm_operator(ts.WorkingSize(basis, n), kernel)
            want = references.fredholm_operator(kernel, n)
            assert got.tobytes() == want.tobytes(), (domain, n)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_shared_member_store_changes_no_bit(family):
    """Operators read from one store, in any order, match lone calls byte for byte."""
    rng = np.random.default_rng(43)
    basis = ts.BasisSpec(family, (-0.5, 1.5))
    n = 16
    kernels = [ts.KernelPoly(basis, rng.standard_normal(shape))
               for shape in ((2, 5), (9, 1), (4, 4), (3, 12), (1, 2))]
    builds = [
        *(lambda m, c=c: ts.polynomial_multiplication_matrix(m, c)
          for c in (rng.standard_normal(3), rng.standard_normal(n), [2.0])),
        *(lambda m, k=k: ts.volterra_operator(m, k, 0.25) for k in kernels[:3]),
        *(lambda m, k=k: ts.fredholm_operator(m, k) for k in kernels[3:]),
    ]
    store = ts.WorkingSize(basis, n)
    for build in builds:
        assert build(store).tobytes() == build(ts.WorkingSize(basis, n)).tobytes()
    members = store.members(n)
    assert [m.tobytes() for m in members] == [
        m.tobytes() for m in references.basis_member_matrices(basis, n, n)]
    assert all(a is b for a, b in zip(store.members(5), members))
    with pytest.raises(ValueError):
        members[3][0, 0] = 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_store_powers_match_the_plain_loop(family):
    """The first power, step + 0.0, has the bytes of step @ I, signed zeros too."""
    for basis in (ts.BasisSpec(family, (-0.5, 1.5)), ts.BasisSpec(family)):
        for n in (12, 1, 33):
            store = ts.WorkingSize(basis, n)
            plain = references.calculus_powers(basis, n)
            for order in (2, -3, 3, 0, -1, 1, -2):
                got = store.power(order)
                assert got.tobytes() == plain(order).tobytes()
                assert store.power(order) is got and not got.flags.writeable


def test_member_store_is_checked_against_basis_and_size():
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    store = ts.WorkingSize(basis, 8)
    with pytest.raises(ValueError, match="9 members asked for at working size 8"):
        store.members(9)
    spec = ts.ProblemSpec(basis, ("y",), (ts.EquationSpec((ts.TermSpec((("y", 0),)),)),), (),
                          ts.SolveSettings(n=9))
    with pytest.raises(ValueError, match="operator store is for .* at n=8, not .* at n=9"):
        ts.assemble(spec, store)
    other = ts.BasisSpec(ts.LEGENDRE, (0.0, 1.0))
    kernel = ts.KernelPoly(other, [[1.0, 0.5]])
    with pytest.raises(ValueError, match="kernel is in .*LegendreP.*, operator store in"):
        ts.fredholm_operator(store, kernel)
    with pytest.raises(ValueError, match="kernel is in"):
        ts.volterra_operator(store, kernel, 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_volterra_value_vanishes_at_lower_limit(family):
    basis = ts.BasisSpec(family, (0.0, 1.0))
    n = 12
    kernel = ts.kernel_from_power(basis, [[1.0, 0.5], [0.25, 0.0]])
    rng = np.random.default_rng(17)
    op = ts.volterra_operator(ts.WorkingSize(basis, n), kernel, 0.0)
    for _ in range(5):
        a = np.zeros(n)
        a[:6] = rng.standard_normal(6)
        s = ts.Series(basis, op @ a)
        assert abs(s(0.0)) < 1e-12


def test_volterra_apply_hand_case():
    # int_0^x 1 * 1 dt = x
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    kernel = ts.kernel_from_power(basis, [[1.0]])
    one = ts.Series(basis, [1.0])
    got = ts.volterra_apply(kernel, 0.0, one)
    x = _poly_series(basis, [0.0, 1.0])
    npt.assert_allclose(got.coeffs[:2], x.coeffs, atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_fredholm_operator_exact_on_low_degree(family):
    basis = ts.BasisSpec(family, (0.0, 1.0))
    n = 10
    kernel = ts.kernel_from_power(basis, [[0.0, 0.0], [0.0, 1.0]])  # x t
    op = ts.fredholm_operator(ts.WorkingSize(basis, n), kernel)
    # output is a polynomial of the kernel's x degree: rows beyond it vanish
    assert np.max(np.abs(op[2:, :])) == 0.0
    y = _poly_series(basis, [1.0, -1.0, 1.0])
    av = np.zeros(n)
    av[: len(y)] = y.coeffs
    got = op @ av
    exact = ts.fredholm_apply(kernel, y)
    want = np.zeros(n)
    want[: min(n, len(exact))] = exact.coeffs[:n]
    npt.assert_allclose(got, want, atol=1e-13)


def test_fredholm_apply_hand_case():
    # int_0^1 x t * t dt = x / 3
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    kernel = ts.kernel_from_power(basis, [[0.0, 0.0], [0.0, 1.0]])
    t = _poly_series(basis, [0.0, 1.0])
    got = ts.fredholm_apply(kernel, t)
    want = _poly_series(basis, [0.0, 1.0 / 3.0])
    npt.assert_allclose(got.coeffs[:2], want.coeffs, atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_fredholm_apply_bytes_match_the_two_point_evaluation(family):
    """Two one-point evaluations at the interval ends give one 2-point array's bits."""
    rng = np.random.default_rng(17)
    for domain in DOMAINS:
        basis = ts.BasisSpec(family, domain)
        coeffs = rng.standard_normal((5, 4))
        coeffs[2] = 0.0
        kernel = ts.KernelPoly(basis, coeffs)
        for size in (1, 9, 40):
            series = ts.Series(basis, rng.standard_normal(size))
            want = np.zeros(kernel.coeffs.shape[0])
            for i, row in enumerate(kernel.coeffs):
                g = ts.series_antiderivative(ts.product(ts.Series(basis, row), series))
                at_a, at_b = ts.evaluate(g, np.array(domain))
                want[i] = at_b - at_a
            assert ts.fredholm_apply(kernel, series).coeffs.tobytes() == want.tobytes()


def _zero_heavy_series(rng):
    """Series with trailing zeros, signed zeros, no nonzero at all, or 1e-300 scaling."""
    for size in (1, 7, 30):
        c = rng.standard_normal(size)
        yield c
        yield np.concatenate([c, np.zeros(size)])
        signed = np.concatenate([c, -np.zeros(size)])
        signed[1::3] = -0.0
        yield signed
        yield np.where(rng.random(size) < 0.5, -0.0, 0.0)
        yield 1e-300 * np.concatenate([c, np.zeros(3)])


@pytest.mark.parametrize("family", FAMILIES)
def test_integral_images_bytes_match_the_full_length_evaluation(family):
    """Evaluating only through the support changes no bit of either image.

    The references evaluate every antiderivative over all its trailing
    zeros and grow the Volterra image by one pad per piece.  The kernels
    have zero rows, trailing zero columns, signed zeros and tiny entries.
    """
    rng = np.random.default_rng(23)
    for domain in DOMAINS:
        basis = ts.BasisSpec(family, domain)
        kernels = [rng.standard_normal((4, 3)), np.zeros((2, 2)),
                   1e-300 * rng.standard_normal((3, 1))]
        kernels[0][1] = 0.0
        kernels[0][:, 2] = -0.0
        for coeffs in kernels:
            kernel = ts.KernelPoly(basis, coeffs)
            for c in _zero_heavy_series(rng):
                series = ts.Series(basis, c)
                for lower in (domain[0], 0.5 * (domain[0] + domain[1]), domain[1]):
                    got = ts.volterra_apply(kernel, lower, series).coeffs
                    want = references.volterra_apply(kernel, lower, series).coeffs
                    assert got.tobytes() == want.tobytes()
                got = ts.fredholm_apply(kernel, series).coeffs
                want = references.fredholm_apply(kernel, series).coeffs
                assert got.tobytes() == want.tobytes()


def test_kernel_truncation_warning():
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    kernel = ts.kernel_from_power(basis, np.eye(6))
    with pytest.warns(ts.TruncationWarning):
        ts.volterra_operator(ts.WorkingSize(basis, 4), kernel, 0.0)


def test_working_size_validation():
    basis = ts.BasisSpec(ts.CHEBYSHEV)
    with pytest.raises(ValueError):
        ts.multiplication_matrix(basis, 0)
    with pytest.raises(ValueError):
        ts.multiplication_matrix_power(basis, 4, -1)
