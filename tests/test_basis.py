"""Families, series, evaluation, and products in the orthogonal basis."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import tauspec as ts

import oracles
import references

FAMILIES = [ts.CHEBYSHEV, ts.LEGENDRE]
DOMAINS = [(-1.0, 1.0), (0.0, 1.0), (-2.0, 3.0)]


def test_recurrence_chebyshev():
    basis = ts.BasisSpec(ts.CHEBYSHEV)
    alpha, beta, gamma = ts.recurrence_coefficients(basis, 8)
    assert (alpha[0], beta[0], gamma[0]) == (1.0, 0.0, 0.0)
    for j in range(1, 8):
        assert (alpha[j], beta[j], gamma[j]) == (0.5, 0.0, 0.5)


def test_recurrence_legendre():
    basis = ts.BasisSpec(ts.LEGENDRE)
    alpha, beta, gamma = ts.recurrence_coefficients(basis, 8)
    assert (alpha[0], beta[0], gamma[0]) == (1.0, 0.0, 0.0)
    for j in range(1, 8):
        assert alpha[j] == (j + 1.0) / (2 * j + 1.0)
        assert beta[j] == 0.0
        assert gamma[j] == j / (2 * j + 1.0)


def test_recurrence_arrays_are_read_only_prefixes():
    basis = ts.BasisSpec(ts.LEGENDRE)
    short = ts.recurrence_coefficients(basis, 5)
    long = ts.recurrence_coefficients(basis, 300)
    for s, l in zip(short, long):
        assert s.shape == (5,) and l.shape == (300,)
        assert s.tobytes() == l[:5].tobytes()
        with pytest.raises(ValueError):
            s[0] = 2.0
    assert all(a.size == 0 for a in ts.recurrence_coefficients(basis, 0))
    with pytest.raises(ValueError):
        ts.recurrence_coefficients(basis, -1)


def test_zero_alpha_is_rejected():
    ts.register_family("BrokenAt3", lambda j: (0.0 if j == 3 else 1.0, 0.0, 0.0))
    with pytest.raises(ts.ConfigurationError, match="alpha_3"):
        ts.recurrence_coefficients(ts.BasisSpec("BrokenAt3"), 5)
    # grown: a first fill short of the zero, then a rebuild past it
    ts.recurrence_coefficients(ts.BasisSpec("BrokenAt3"), 2)
    with pytest.raises(ts.ConfigurationError, match="alpha_3"):
        ts.recurrence_coefficients(ts.BasisSpec("BrokenAt3"), 5)


def test_import_fills_no_cache():
    probe = (
        "import tauspec\n"
        "from tauspec.basis import _FAMILIES\n"
        "print(all(f.abg.size == 0 and not f.blocks and f.bands is None\n"
        "          and not f.points and f.point_bytes == 0 and f.table is None\n"
        "          for f in _FAMILIES.values()))\n")
    # the child imports the same tauspec as this process, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "True"


def test_family_aliases():
    assert ts.resolve_family("chebyshev") == ts.CHEBYSHEV
    assert ts.resolve_family("Cheb") == ts.CHEBYSHEV
    assert ts.resolve_family("LEGENDRE") == ts.LEGENDRE
    with pytest.raises(ts.ConfigurationError):
        ts.resolve_family("hermite")


def test_basis_spec_validation():
    with pytest.raises(ts.ConfigurationError):
        ts.BasisSpec(ts.CHEBYSHEV, (1.0, 1.0))
    with pytest.raises(ts.ConfigurationError):
        ts.BasisSpec(ts.CHEBYSHEV, (2.0, -1.0))
    b = ts.BasisSpec("chebyshev", (0.0, 2.0))
    assert b.family == ts.CHEBYSHEV
    assert b.c1 == 1.0
    assert b.c2 == -1.0


def test_series_basics():
    basis = ts.BasisSpec(ts.CHEBYSHEV)
    s = ts.Series(basis, [1.0, 0.0, 2.0, 0.0])
    assert len(s) == 4
    assert s.degree == 2
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0
    with pytest.raises(ValueError):
        ts.Series(basis, [])
    with pytest.raises(ValueError):
        ts.Series(basis, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        ts.Series(basis, [np.nan])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_evaluate_against_oracle(family, domain):
    rng = np.random.default_rng(7)
    basis = ts.BasisSpec(family, domain)
    coeffs = rng.standard_normal(9)
    s = ts.Series(basis, coeffs)
    for x in np.linspace(domain[0], domain[1], 7):
        want = float(oracles.eval_oracle(family, domain, coeffs, x))
        assert abs(s(x) - want) < 1e-12


def test_evaluate_shapes_and_extrapolation():
    basis = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1.0))
    s = ts.Series(basis, [1.0, 2.0, 3.0])
    vals = s(np.array([0.0, 0.5, 1.0]))
    assert vals.shape == (3,)
    assert isinstance(s(0.5), float)
    with pytest.warns(ts.ExtrapolationWarning):
        s(1.5)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_basis_row(family, domain):
    basis = ts.BasisSpec(family, domain)
    x = 0.5 * (domain[0] + domain[1]) + 0.25 * (domain[1] - domain[0])
    row = ts.basis_row(basis, x, 7)
    for j in range(7):
        unit = np.zeros(j + 1)
        unit[j] = 1.0
        want = float(oracles.eval_oracle(family, domain, unit, x))
        assert abs(row[j] - want) < 1e-12


def _register_copy(family: str, name: str) -> str:
    """A new family with ``family``'s recurrence, so its caches start empty."""
    ts.register_family(name, ts.basis._FAMILIES[family].recurrence)
    return name


# inside both domains below; -0.0 and 0.0 differ on [-1, 1], where c2 = -0.0,
# and two arrays share their bytes but not their shape
POINTS = [0.0, -0.0, 1.0, -0.3, np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 6),
          np.linspace(-1.0, 1.0, 6).reshape(2, 3), np.zeros(0), np.zeros((2, 0))]


def _point_calls(names):
    """evaluate and basis_row calls over families, domains, points and lengths.

    The lengths rise past double, rise by less than double and fall, so
    a point's cached rows are made, regrown by doubling and read short.
    """
    rng = np.random.default_rng(12)
    calls = []
    for name in names:
        for domain in ((-1.0, 1.0), (-1.0, 1.5)):
            basis = ts.BasisSpec(name, domain)
            for x in POINTS:
                for n in (3, 40, 50, 7, 130, 261):
                    calls.append(("evaluate", ts.Series(basis, rng.standard_normal(n)), x))
                    if np.ndim(x) == 0:
                        calls.append(("basis_row", basis, x, n))
    return calls


def _point_call(call):
    if call[0] == "evaluate":
        return np.asarray(ts.evaluate(*call[1:]))
    return ts.basis_row(*call[1:])


def _reference_call(call):
    if call[0] == "evaluate":
        return np.asarray(references.evaluate(*call[1:]))
    return references.basis_row(*call[1:])


@pytest.mark.parametrize("order, budget", [
    ("forward", None), ("reversed", None), ("shuffled", None),
    ("evicted", 16_000),  # some rows kept, the oldest dropped all along
    ("uncached", 64),  # arrays stream; only scalar rows of up to 8 values are kept
])
def test_point_values_do_not_depend_on_call_order(monkeypatch, order, budget):
    """Cold, grown, evicted and interleaved point rows give the loop's bytes."""
    if budget is not None:
        monkeypatch.setattr(ts.basis, "POINT_BUDGET", budget)
    names = [_register_copy(f, f"Order{f}") for f in FAMILIES]
    calls = _point_calls(names)
    if order == "reversed":
        calls.reverse()
    elif order != "forward":
        calls = [calls[i] for i in np.random.default_rng(13).permutation(len(calls))]
    for call in calls:
        got = _point_call(call)
        assert got.shape == np.shape(call[2]) or call[0] == "basis_row"
        assert got.tobytes() == _reference_call(call).tobytes(), call
    for name in names:
        fam = ts.basis._FAMILIES[name]
        assert fam.point_bytes == sum(r.nbytes for r in fam.points.values())
        assert fam.point_bytes <= ts.basis.POINT_BUDGET
        assert all(not r.flags.writeable for r in fam.points.values())


def test_signed_zero_points_are_two_points():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        basis = ts.BasisSpec(_register_copy(ts.LEGENDRE, "ZeroLegendre"))
        for x in (first, second):  # P_1 = z = c1 * x + c2, c2 = -0.0
            assert np.float64(ts.basis_row(basis, x, 4)[1]).tobytes() == np.float64(x).tobytes()
            s = ts.Series(basis, [-0.0, 1.0])  # -0.0 * P_0 + z
            assert np.float64(ts.evaluate(s, x)).tobytes() == np.float64(x).tobytes()
    # a domain end's zero sign changes neither c1 nor c2, so it shares the rows
    a, b = ts.BasisSpec("ZeroLegendre", (0.0, 1.0)), ts.BasisSpec("ZeroLegendre", (-0.0, 1.0))
    assert (a.c1, a.c2) == (b.c1, b.c2)
    assert ts.basis_row(a, 0.25, 9).tobytes() == ts.basis_row(b, 0.25, 9).tobytes()


def test_point_rows_grow_by_doubling_and_copy_out():
    name = _register_copy(ts.CHEBYSHEV, "GrowChebyshev")
    fam = ts.basis._FAMILIES[name]
    basis = ts.BasisSpec(name, (0.0, 2.0))
    grid = np.linspace(0.0, 2.0, 5)
    key = ((0.0, 2.0), (5,), grid.tobytes())
    for n, kept in ((10, 10), (12, 20), (20, 20), (3, 20), (45, 45)):
        ts.evaluate(ts.Series(basis, np.ones(n)), grid)
        assert fam.points[key].shape == (kept, 5)
    assert list(fam.points) == [key]
    row = ts.basis_row(basis, 0.5, 6)
    row[:] = 7.0  # a copy: the cached rows are read-only and unchanged
    assert ts.basis_row(basis, 0.5, 6).tobytes() == references.basis_row(basis, 0.5, 6).tobytes()
    cached = fam.points[((0.0, 2.0), (), np.float64(0.5).tobytes())]
    with pytest.raises(ValueError):
        cached[0] = 1.0


def test_point_cache_holds_its_budget(monkeypatch):
    """Oldest rows go first; rows larger than the budget are computed, not kept."""
    assert ts.basis.POINT_BUDGET == 32 * 2**20
    monkeypatch.setattr(ts.basis, "POINT_BUDGET", 10_000)
    name = _register_copy(ts.LEGENDRE, "BudgetLegendre")
    fam = ts.basis._FAMILIES[name]
    basis = ts.BasisSpec(name, (0.0, 1.0))
    for k in range(40):
        ts.basis_row(basis, k / 40, 100)  # 800 bytes each
        assert fam.point_bytes == sum(r.nbytes for r in fam.points.values()) <= 10_000
    assert [key[2] for key in fam.points] == [np.float64(k / 40).tobytes() for k in range(28, 40)]
    grid = np.linspace(0.0, 1.0, 20)
    s = ts.Series(basis, np.ones(100))  # 100 x 20 values, 16,000 bytes
    assert ts.evaluate(s, grid).tobytes() == references.evaluate(s, grid).tobytes()
    long = ts.basis_row(basis, 0.5, 2000)  # 16,000 bytes
    assert long.tobytes() == references.basis_row(basis, 0.5, 2000).tobytes()
    assert len(fam.points) == 12 and fam.point_bytes == 9_600


def test_package_series_keep_the_checks_without_the_copy():
    basis = ts.BasisSpec(ts.CHEBYSHEV)
    arr = np.array([1.0, 2.0])
    s = ts.Series(basis, arr)
    arr[0] = 5.0  # the public constructor copies
    assert s.coeffs[0] == 1.0 and arr.flags.writeable
    big = ts.Series(basis, [1e200])
    tiny = ts.BasisSpec(ts.CHEBYSHEV, (0.0, 1e-300))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            ts.product(big, big)
        with pytest.raises(ValueError, match="finite"):
            ts.series_derivative(ts.Series(tiny, [0.0, 1e300]))
    made = [ts.product(s, s), ts.series_derivative(s), ts.series_antiderivative(s),
            ts.basis._through_support(ts.Series(basis, [1.0, 0.0]))]
    for m in made:
        with pytest.raises(ValueError):
            m.coeffs[0] = 1.0


def test_product_hand_cases():
    basis = ts.BasisSpec(ts.CHEBYSHEV)
    t1 = ts.Series(basis, [0.0, 1.0])
    r = ts.product(t1, t1)
    npt.assert_allclose(r.coeffs, [0.5, 0.0, 0.5], atol=1e-15)

    leg = ts.BasisSpec(ts.LEGENDRE)
    p1 = ts.Series(leg, [0.0, 1.0])
    p2 = ts.Series(leg, [0.0, 0.0, 1.0])
    npt.assert_allclose(ts.product(p1, p1).coeffs, [1 / 3, 0.0, 2 / 3], atol=1e-15)
    # inputs are padded to a common length, so a trailing zero survives
    npt.assert_allclose(
        ts.product(p1, p2).coeffs, [0.0, 2 / 5, 0.0, 3 / 5, 0.0], atol=1e-15
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_product_against_oracle(family):
    rng = np.random.default_rng(11)
    basis = ts.BasisSpec(family, (0.0, 1.0))
    for _ in range(20):
        a = rng.standard_normal(rng.integers(1, 8))
        b = rng.standard_normal(rng.integers(1, 8))
        got = ts.product(ts.Series(basis, a), ts.Series(basis, b)).coeffs
        want = [float(c) for c in oracles.product_oracle(family, (0.0, 1.0), a, b)]
        size = max(len(got), len(want))
        ga = np.zeros(size)
        ga[: len(got)] = got
        wa = np.zeros(size)
        wa[: len(want)] = want
        npt.assert_allclose(ga, wa, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_product_commutes_bitwise(family):
    rng = np.random.default_rng(23)
    basis = ts.BasisSpec(family, (-1.0, 1.0))
    for _ in range(50):
        a = ts.Series(basis, rng.standard_normal(rng.integers(1, 11)))
        b = ts.Series(basis, rng.standard_normal(rng.integers(1, 11)))
        pq = ts.product(a, b).coeffs
        qp = ts.product(b, a).coeffs
        assert pq.tobytes() == qp.tobytes()


def _product_factor(rng, kind: int) -> np.ndarray:
    """One seeded factor of a given shape: dense, sparse, short or tiny."""
    a = rng.standard_normal(rng.integers(1, 71))
    if kind == 1:
        a[rng.integers(0, a.size, size=max(1, a.size // 2))] = 0.0
    elif kind == 2:
        a[rng.integers(0, a.size):] = 0.0
    elif kind == 3:
        a[:] = 0.0
    elif kind == 4:
        a = a[:1]
    elif kind == 5:
        a *= 1e-300
    elif kind == 6:
        a = a[:3]
        a[a.size // 2] = -0.0
    return a


# beta varies with j, so every diagonal d = j .. -j of P_j(J) is nonzero
SKEWED = "SkewedBands"


def _skewed_recurrence(j):
    return (0.5, 0.25 / (j + 1), 0.5)


def _register_skewed():
    ts.register_family(SKEWED, _skewed_recurrence)


RECURRENCES = {
    ts.CHEBYSHEV: ts.basis._chebyshev_recurrence,
    ts.LEGENDRE: ts.basis._legendre_recurrence,
    SKEWED: _skewed_recurrence,
}


def _thin_and_long(rng, m: int, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """A factor with support m against one with 1..300 coefficients."""
    thin = np.concatenate([rng.standard_normal(m), np.zeros(rng.integers(0, 3))])
    long = rng.standard_normal(rng.integers(m, 301))
    if kind == 1:
        long[rng.integers(m, long.size + 1):] = 0.0
    elif kind == 2:
        thin[0] = -0.0
        long[rng.integers(0, long.size, size=long.size // 3)] = -0.0
        long[rng.integers(0, long.size, size=long.size // 3)] = 0.0
    elif kind == 3:
        thin *= 1e-300
        long *= 1e-300
    return thin, long


@pytest.mark.parametrize("family", [*FAMILIES, SKEWED])
def test_product_bytes_match_the_pair_loop(family):
    """Restricting the pairs, scattering them in one ordered pass and
    adding a thin factor's band diagonals change no bit.

    Covers trailing, interior and all-zero coefficients, one-coefficient
    factors, signed zeros, 1e-300 scaling and both argument orders, and
    factors of support 1 .. BAND_TERMS against factors of up to 300
    coefficients.
    """
    if family == SKEWED:
        _register_skewed()
    rng = np.random.default_rng(31)
    basis = ts.BasisSpec(family, (0.0, 2.0))
    pairs = [(_product_factor(rng, trial % 7), _product_factor(rng, (trial // 7) % 7))
             for trial in range(120)]
    pairs += [_thin_and_long(rng, 1 + trial % ts.basis.BAND_TERMS, trial // 4 % 4)
              for trial in range(48)]
    for a, b in pairs:
        p, q = ts.Series(basis, a), ts.Series(basis, b)
        for x, y in ((p, q), (q, p)):
            got = ts.product(x, y).coeffs
            assert got.tobytes() == references.pair_loop_product(x, y).coeffs.tobytes()


@pytest.mark.parametrize("family", [*FAMILIES, SKEWED])
def test_bands_hold_the_table_rows(family):
    """Entry (i + d, i) of each band is the table's row (j, i) at i + d, bit for bit,
    and zero where the table stores nothing."""
    if family == SKEWED:
        _register_skewed()
    basis = ts.BasisSpec(family)
    table = ts.LinearizationTable(family)
    bands = ts.basis._bands(basis, 150)
    # live diagonals per j: Chebyshev's d = 0 of P_2 vanishes in every column i >= 2
    live = {ts.CHEBYSHEV: [1, 2, 2, 2], ts.LEGENDRE: [1, 2, 3, 4], SKEWED: [1, 3, 5, 7]}[family]
    for j in range(ts.basis.BAND_TERMS):
        assert len(bands[j]) == live[j]
        assert [d for d, _ in bands[j]] == sorted((d for d, _ in bands[j]), reverse=True)
        for i in range(j, 150):
            idx, vals = table.row(i, j)
            want = dict(zip((idx - i).tolist(), vals))
            for d, values in bands[j]:
                if d in want:
                    assert values[i].tobytes() == want.pop(d).tobytes()
                else:
                    assert values[i] == 0.0
            assert not want


def test_warm_product_scatter_memory_is_bounded():
    """A warm Legendre n=200 full x full product stays under 8 MB of traced memory.

    Its weighted rows hold about 2.7 million entries.  Scattered all at
    once they peak near 34 MB; in chunks of (n + 1)^2 entries near 2.4 MB.
    """
    rng = np.random.default_rng(3)
    basis = ts.BasisSpec(ts.LEGENDRE)
    p = ts.Series(basis, rng.standard_normal(201))
    q = ts.Series(basis, rng.standard_normal(201))
    ts.product(p, q)  # fills the table's rows
    tracemalloc.start()
    try:
        ts.product(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_products_keep_looking_up_rows(monkeypatch):
    """Pair products go through LinearizationTable.row, one hit per column when warm.

    The benchmark's tracer patches that method and counts its lookups, and
    a hit when the key is already in ``_cache``, so a pair product that
    stopped calling it would blind the per-layer metrics.  A pair product
    looks up the deepest pair (j, i), j >= 1, of each column i with a
    nonzero weight, which completes that column's climb; warm, every one
    is a hit.  Column 5 has no nonzero weight here, and no row below the
    shorter support 10 is deeper than 9.  A thin factor (support at most
    BAND_TERMS) reads the band store instead and, once the store is wide
    enough, makes no lookup.
    """
    assert callable(getattr(ts.LinearizationTable, "row", None))
    calls = []
    original = ts.LinearizationTable.row

    def counted(self, i, j):
        calls.append((i, j, (min(i, j), max(i, j)) in self._cache))
        return original(self, i, j)

    monkeypatch.setattr(ts.LinearizationTable, "row", counted)
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        basis = ts.BasisSpec(family)
        a, b = rng.standard_normal(16), np.append(rng.standard_normal(10), np.zeros(3))
        a[5] = b[5] = 0.0
        p, q = ts.Series(basis, a), ts.Series(basis, b)
        thin = ts.Series(basis, rng.standard_normal(ts.basis.BAND_TERMS))
        ts.product(p, q)
        ts.product(thin, q)
        for x, y in ((p, q), (q, p)):
            calls.clear()
            ts.product(x, y)
            assert calls == [(min(i, 9), i, True) for i in range(1, 16) if i != 5]
        calls.clear()
        ts.product(thin, q)
        ts.product(q, thin)
        assert calls == []


@pytest.mark.parametrize("family", [*FAMILIES, SKEWED])
def test_store_filled_out_of_order_keeps_every_bit(family):
    """Rows stored out of order and across regrowths of the packed store keep their bytes.

    On a fresh table, lookups in random order interleave with pair
    products at rising supports, so climbs stop and resume at many depths
    and the store and its index arrays regrow several times.  Every
    product matches the pair loop in both argument orders, with zero and
    -0.0 weights inside the triangle, and every stored row matches its
    climb run in one go.
    """
    name = f"StoreCopy{family}"
    ts.register_family(name, RECURRENCES[family])
    basis = ts.BasisSpec(name, (0.0, 2.0))
    table = ts.linearization_table(name)
    rng = np.random.default_rng(47)
    capacities = set()
    for hi in (6, 11, 24, 40, 75, 110):
        for i, j in rng.integers(0, hi + 12, size=(12, 2)).tolist():
            table.row(i, j)
        a = rng.standard_normal(hi)
        a[rng.integers(0, hi, size=hi // 3)] = 0.0
        a[rng.integers(0, hi, size=hi // 5)] = -0.0
        b = rng.standard_normal(rng.integers(ts.basis.BAND_TERMS + 1, hi + 1))
        b[rng.integers(1, b.size, size=b.size // 4)] = 0.0
        p, q = ts.Series(basis, a), ts.Series(basis, b)
        for x, y in ((p, q), (q, p)):
            got = ts.product(x, y).coeffs
            assert got.tobytes() == references.pair_loop_product(x, y).coeffs.tobytes()
        capacities.add(table._idx.size)
    assert len(capacities) >= 3
    climbs = {}
    for k, j in list(table._cache):
        if j not in climbs:
            climbs[j] = references.linearization_climb(basis, j)
        idx, vals = table.row(k, j)
        assert idx.tobytes() == climbs[j][k][0].tobytes()
        assert vals.tobytes() == climbs[j][k][1].tobytes()
        assert not (idx.flags.writeable or vals.flags.writeable)


def test_cold_product_table_memory_is_bounded():
    """A cold Legendre n=200 full x full product leaves at most 33 MB of table.

    Its climbs store about 1.4 million row entries, 22 MB as positions
    and values, each once, in the packed store, which doubles as it grows:
    about 30 MB in all.  As two numpy arrays per row the same rows hold
    32 MB, so keeping those arrays besides the store would pass the bound.
    """
    name = "ColdLegendre"
    ts.register_family(name, ts.basis._legendre_recurrence)
    basis = ts.BasisSpec(name)
    rng = np.random.default_rng(3)
    p = ts.Series(basis, rng.standard_normal(201))
    q = ts.Series(basis, rng.standard_normal(201))
    ts.recurrence_coefficients(basis, 1024)
    tracemalloc.start()
    try:
        ts.product(p, q)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 33e6


def test_table_index_arrays_grow_by_each_axis_alone():
    """Shallow rows of many climbs keep the index arrays shallow.

    Rows (j, i) with j <= 3 and i < 2051 need 4 rows of 2051 climbs in
    ``_start`` and ``_count``: about 0.26 MB after doubling the climbs'
    axis.  Grown square, to 4096 x 4096, the two arrays would take 268 MB.
    """
    table = ts.LinearizationTable(ts.LEGENDRE)
    for i in range(2051):
        for j in range(min(i, 3) + 1):
            table.row(j, i)
    assert table._start.nbytes + table._count.nbytes < 1e6
    assert table._start.shape == table._count.shape


def test_band_store_memory_is_bounded():
    """The band store at the width of a thin product at N_CAP stays small.

    A thin factor times a Volterra integrand at n = N_CAP has a support of
    about 2 * N_CAP + 3.  The store holds at most BAND_TERMS^2 rows of that
    width, 0.26 MB; filling it walks one comb of 2 * BAND_TERMS columns.
    Filled from the table's rows instead, it would keep one open climb of
    width 2i + 1 per column i, a traced peak of about 110 MB.
    """
    _register_skewed()  # a new family object, so the store starts empty
    basis = ts.BasisSpec(SKEWED)
    rng = np.random.default_rng(4)
    width = 2 * ts.problem.N_CAP + 3
    thin = ts.Series(basis, rng.standard_normal(ts.basis.BAND_TERMS))
    long = ts.Series(basis, rng.standard_normal(width))
    ts.recurrence_coefficients(basis, 2 * width)
    tracemalloc.start()
    try:
        ts.product(thin, long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store_width, bands = ts.basis._FAMILIES[SKEWED].bands
    assert store_width == width
    rows = sum(len(diagonals) for diagonals in bands)
    assert rows == ts.basis.BAND_TERMS ** 2
    assert all(v.nbytes == 8 * width for diagonals in bands for _, v in diagonals)
    assert peak < 2e6


def test_product_basis_mismatch():
    a = ts.Series(ts.BasisSpec(ts.CHEBYSHEV), [1.0])
    b = ts.Series(ts.BasisSpec(ts.LEGENDRE), [1.0])
    with pytest.raises(ValueError):
        ts.product(a, b)


def test_chebyshev_closed_form_matches_recurrence():
    """Rows from the generic recurrence equal T_i T_j = (T_{i+j} + T_{|i-j|}) / 2."""
    table = ts.linearization_table(ts.CHEBYSHEV)
    for i in range(65):
        for j in range(65):
            want = np.zeros(i + j + 1)
            want[i + j] += 0.5
            want[abs(i - j)] += 0.5
            idx, vals = table.row(i, j)
            assert idx.tolist() == np.nonzero(want)[0].tolist()
            assert vals.tobytes() == want[idx].tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_linearization_rows_match_oracle(family):
    """Every P_i * P_j with i, j <= 10 against the exact rational product."""
    basis = ts.BasisSpec(family)
    for i in range(11):
        for j in range(i, 11):
            ei, ej = np.eye(i + 1)[i], np.eye(j + 1)[j]
            want = [float(c) for c in oracles.product_oracle(family, (-1.0, 1.0), ei, ej)]
            got = ts.product(ts.Series(basis, ei), ts.Series(basis, ej)).coeffs
            npt.assert_allclose(got[: i + j + 1], want, rtol=0, atol=1e-14)
            assert not got[i + j + 1 :].any()


def test_linearization_rows_do_not_depend_on_lookup_order():
    """A resumed climb gives the same bytes as a climb run in one go."""
    pairs = [(i, j) for i in range(30) for j in range(i, 40)]
    forward = ts.LinearizationTable(ts.LEGENDRE)
    backward = ts.LinearizationTable(ts.LEGENDRE)
    rows = {p: forward.row(*p) for p in pairs}
    for i, j in reversed(pairs):
        idx, vals = backward.row(j, i)
        assert idx.tobytes() == rows[(i, j)][0].tobytes()
        assert vals.tobytes() == rows[(i, j)][1].tobytes()


def test_reregistered_family_drops_its_caches():
    """The band store (thin products), the table (pair products) and the point rows go."""
    ts.register_family("Fam", lambda j: (1.0, 0.0, 0.0))
    basis = ts.BasisSpec("Fam")
    t1 = ts.Series(basis, [0.0, 1.0])
    t2 = ts.Series(basis, [0.0, 0.0, 1.0])
    t5 = ts.Series(basis, np.eye(6)[5])
    long = ts.Series(basis, np.eye(12)[9])
    npt.assert_array_equal(ts.product(t1, t1).coeffs, [0.0, 0.0, 1.0])
    npt.assert_array_equal(ts.product(t1, long).coeffs, np.eye(23)[10])
    npt.assert_array_equal(ts.product(t5, t5).coeffs, np.eye(11)[10])
    assert ts.evaluate(t2, 0.5) == 0.25 and ts.basis_row(basis, 0.5, 3)[2] == 0.25
    ts.register_family("Fam", lambda j: (1.0, 0.0, 0.0) if j == 0 else (0.5, 0.0, 0.5))
    assert ts.basis._FAMILIES["Fam"].bands is None
    assert not ts.basis._FAMILIES["Fam"].points
    assert ts.evaluate(t2, 0.5) == -0.5 and ts.basis_row(basis, 0.5, 3)[2] == -0.5
    npt.assert_array_equal(ts.product(t1, t1).coeffs, [0.5, 0.0, 0.5])
    npt.assert_array_equal(ts.product(t1, long).coeffs, (np.eye(23)[8] + np.eye(23)[10]) / 2)
    npt.assert_array_equal(ts.product(t5, t5).coeffs, (np.eye(11)[0] + np.eye(11)[10]) / 2)


def test_register_power_family():
    """A recurrence with alpha=1, beta=gamma=0 gives plain monomials."""
    ts.register_family("Monomial", lambda j: (1.0, 0.0, 0.0), aliases=("mono",))
    basis = ts.BasisSpec("mono")
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([3.0, 1.0])
    got = ts.product(ts.Series(basis, a), ts.Series(basis, b)).coeffs
    npt.assert_allclose(got[: a.size + b.size - 1], np.convolve(a, b), atol=1e-14)
    s = ts.Series(basis, a)
    for x in [-0.5, 0.0, 0.75]:
        assert s(x) == pytest.approx(np.polyval(a[::-1], x))
