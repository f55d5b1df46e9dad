"""Orthogonal polynomial bases on an arbitrary interval.

Every family is defined by the coefficients of its three term recurrence
on the reference interval [-1, 1],

    x * P_j(x) = alpha_j * P_{j+1}(x) + beta_j * P_j(x) + gamma_j * P_{j-1}(x),

with P_0 = 1 and P_{-1} = 0.  A basis instance pairs a family with a
working interval [a, b]; members are evaluated through the affine change
of variable z = c1*x + c2 that maps [a, b] onto the reference interval.
All evaluation and multiplication routines run on the recurrence itself,
never through conversion to the power basis, so they stay usable at high
degree where the power basis is hopeless.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigurationError, ExtrapolationWarning

__all__ = [
    "CHEBYSHEV",
    "LEGENDRE",
    "BasisSpec",
    "Series",
    "LinearizationTable",
    "register_family",
    "resolve_family",
    "recurrence_coefficients",
    "evaluate",
    "basis_row",
    "product",
    "linearization_table",
]

CHEBYSHEV = "ChebyshevT"
LEGENDRE = "LegendreP"
BAND_TERMS = 4  # products whose shorter support is at most this add diagonals of P_j(J)
POINT_BUDGET = 32 * 2**20  # bytes of member values one family keeps at points


def _chebyshev_recurrence(j: int) -> tuple[float, float, float]:
    if j == 0:
        return (1.0, 0.0, 0.0)
    return (0.5, 0.0, 0.5)


def _legendre_recurrence(j: int) -> tuple[float, float, float]:
    return ((j + 1.0) / (2 * j + 1.0), 0.0, j / (2 * j + 1.0))


class _Family:
    """A registered family and everything derived from its recurrence.

    ``abg`` holds alpha, beta and gamma as rows of one read-only array,
    ``blocks`` the reference-interval matrices whose leading blocks do not
    depend on their size, ``bands`` those of ``_bands`` and ``points`` the
    member values of ``_point_rows``; all four are rebuilt at double size,
    never patched, when a larger size is asked for, and ``points`` drops
    its oldest entries to stay within POINT_BUDGET bytes.  ``table`` is
    the shared linearization table.  All five fill on first use.
    Registering the name again replaces the object, and with it every cache.
    """

    def __init__(self, name, recurrence):
        self.name = name
        self.recurrence = recurrence
        self.abg = np.zeros((3, 0))
        self.blocks: dict[str, np.ndarray] = {}
        self.bands: tuple[int, list] | None = None
        self.points: dict[tuple, np.ndarray] = {}
        self.point_bytes = 0
        self.table: LinearizationTable | None = None

    def coefficients(self, n: int):
        have = self.abg.shape[1]
        if n > have:
            abg = np.array([self.recurrence(j) for j in range(max(n, 2 * have))], dtype=float).T
            zero = np.flatnonzero(abg[0] == 0.0)
            if zero.size:
                raise ConfigurationError(f"family {self.name!r}: alpha_{zero[0]} is zero")
            abg.flags.writeable = False
            self.abg = abg
        return self.abg[0, :n], self.abg[1, :n], self.abg[2, :n]


_FAMILIES: dict[str, _Family] = {}
_ALIASES: dict[str, str] = {}


def register_family(name: str,
                    recurrence: Callable[[int], tuple[float, float, float]],
                    aliases: tuple[str, ...] = ()) -> None:
    """Register an orthogonal family by its recurrence provider.

    ``recurrence(j)`` must return ``(alpha_j, beta_j, gamma_j)`` with
    ``alpha_j != 0`` for every j.  Registering an existing name replaces
    the family and drops everything cached from the old recurrence.
    """
    a0, _, _ = recurrence(0)
    if a0 == 0.0:
        raise ConfigurationError(f"family {name!r}: alpha_0 must be nonzero")
    _FAMILIES[name] = _Family(name, recurrence)
    _ALIASES[name.lower()] = name
    for alias in aliases:
        _ALIASES[alias.lower()] = name


register_family(CHEBYSHEV, _chebyshev_recurrence, aliases=("chebyshev", "cheb"))
register_family(LEGENDRE, _legendre_recurrence, aliases=("legendre",))


def resolve_family(name: str) -> str:
    """Map a case-insensitive family name or alias to its canonical name."""
    key = str(name).lower()
    if key not in _ALIASES:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigurationError(f"unknown basis family {name!r} (known: {known})")
    return _ALIASES[key]


@dataclass(frozen=True)
class BasisSpec:
    """An orthogonal family attached to a working interval [a, b]."""

    family: str
    domain: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "family", resolve_family(self.family))
        a, b = float(self.domain[0]), float(self.domain[1])
        if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
            raise ConfigurationError(f"domain must satisfy a < b, got [{a}, {b}]")
        object.__setattr__(self, "domain", (a, b))

    @property
    def c1(self) -> float:
        a, b = self.domain
        return 2.0 / (b - a)

    @property
    def c2(self) -> float:
        a, b = self.domain
        return (a + b) / (a - b)


def recurrence_coefficients(basis: BasisSpec, n: int):
    """Reference-domain recurrence arrays (alpha, beta, gamma) for j < n.

    The arrays are read-only views of the family's cache.
    """
    if n < 0:
        raise ValueError(f"recurrence length must be nonnegative, got {n}")
    return _FAMILIES[basis.family].coefficients(n)


def cached_block(basis: BasisSpec, key: str, n: int, build) -> np.ndarray:
    """Read-only leading n x n block of a matrix cached on the family.

    ``build(basis, size)`` makes the matrix at a given size.  Its leading
    blocks must not depend on that size, so one cached matrix serves every
    smaller working size.  A larger size rebuilds the matrix at no less
    than double the size held, so the rebuilds stay amortized.
    """
    fam = _FAMILIES[basis.family]
    mat = fam.blocks.get(key)
    if mat is None or mat.shape[0] < n:
        mat = build(basis, max(n, 0 if mat is None else 2 * mat.shape[0]))
        mat.flags.writeable = False
        fam.blocks[key] = mat
    return mat[:n, :n]


@dataclass
class Series:
    """A finite expansion sum_i coeffs[i] * P_i in a given basis.

    Coefficients are a 1-D float array, frozen after construction.  Two
    Series take part in arithmetic only when their BasisSpec are equal.
    """

    basis: BasisSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = _frozen(np.array(self.coeffs, dtype=float, copy=True))

    def __len__(self):
        return self.coeffs.size

    @property
    def degree(self) -> int:
        return max(_support(self.coeffs) - 1, 0)

    def __call__(self, xs):
        return evaluate(self, xs)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, checked as Series coefficients and made read-only in place."""
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must be a nonempty 1-D array")
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite")
    arr.flags.writeable = False
    return arr


def _owned(basis: BasisSpec, arr: np.ndarray) -> Series:
    """A Series over ``arr`` without a copy, for a float array no caller holds.

    The checks are those of ``Series``: an overflow to inf still raises.
    """
    s = Series.__new__(Series)
    s.basis, s.coeffs = basis, _frozen(arr)
    return s


def _recurrence(basis: BasisSpec, first, x_minus_beta, count: int):
    """Yield P_0(X) first, ..., P_{count-1}(X) first by the three term step.

    X is whatever ``x_minus_beta(v, j)`` makes of it: that call returns
    (X - beta_j) v as a new array or scalar, for a point, the
    multiplication matrix acting on columns, or any other action.  This is
    the only place the step P_{j+1} = ((X - beta_j) P_j - gamma_j P_{j-1}) /
    alpha_j is written; it finishes in place on what the action returned.
    """
    alpha, _, gamma = recurrence_coefficients(basis, count)
    prev, curr = np.zeros_like(first), first
    for j in range(count):
        yield curr
        if j + 1 < count:
            nxt = x_minus_beta(curr, j)
            nxt -= gamma[j] * prev
            nxt /= alpha[j]
            prev, curr = curr, nxt


def _member_values(basis: BasisSpec, z, count: int):
    """Yield P_0(z), ..., P_{count-1}(z) on the reference interval, of the shape of z."""
    beta = recurrence_coefficients(basis, count)[1]
    return _recurrence(basis, np.ones_like(z), lambda p, j: (z - beta[j]) * p, count)


def _member_sum(p, members):
    """sum_j p[j] * members[j], accumulated in index order.

    The first term is a new value, so the sum accumulates in place.
    """
    members = iter(members)
    acc = p[0] * next(members)
    for c, pj in zip(p[1:], members):
        acc += c * pj
    return acc


def _point_rows(basis: BasisSpec, x: np.ndarray, count: int) -> np.ndarray:
    """Read-only P*_0(x), ..., P*_{m-1}(x) for some m >= count, kept on the family.

    Row j holds P*_j at every entry of x.  The rows are the values of
    ``_member_values``, for a 0-d x as for an array, and are kept under
    the domain and the shape and bytes of x, so -0.0 and 0.0 are two
    points.  A longer request recomputes at double the length; the step
    runs forward, so the longer rows start with the same bits.  The
    oldest entries go first when the family's rows would pass POINT_BUDGET
    bytes, and rows that alone exceed it are computed but not kept.
    """
    fam = _FAMILIES[basis.family]
    key = (basis.domain, x.shape, x.tobytes())
    rows = fam.points.get(key)
    if rows is not None and rows.shape[0] >= count:
        return rows
    have = 0 if rows is None else rows.shape[0]
    size = max(count, 2 * have)
    if size * x.nbytes > POINT_BUDGET:
        size = count
    rows = np.empty((size,) + x.shape)
    for j, pj in enumerate(_member_values(basis, basis.c1 * x + basis.c2, size)):
        rows[j] = pj
    rows.flags.writeable = False
    if rows.nbytes <= POINT_BUDGET:
        if have:
            fam.point_bytes -= fam.points.pop(key).nbytes
        while fam.point_bytes + rows.nbytes > POINT_BUDGET:
            fam.point_bytes -= fam.points.pop(next(iter(fam.points))).nbytes
        fam.points[key] = rows
        fam.point_bytes += rows.nbytes
    return rows


def basis_row(basis: BasisSpec, x: float, n: int) -> np.ndarray:
    """Values [P*_0(x), ..., P*_{n-1}(x)] of the shifted members at one point.

    A writable copy of the family's cached values at x (``_point_rows``).
    """
    if n < 1:
        raise ValueError("need at least one basis member")
    return _point_rows(basis, np.asarray(float(x)), n)[:n].copy()


def evaluate(series: Series, xs):
    """Evaluate a Series from the member values at its points.

    Accepts a scalar or an array of points and returns values of matching
    shape, a Python float for a scalar.  The member values come from the
    family's cache (``_point_rows``), so points seen before cost no
    recurrence.  ``np.cumsum`` adds the terms c_j P*_j(x) in index order,
    the order of ``_member_sum``, bit for bit; a sum over rows larger than
    POINT_BUDGET streams through ``_member_sum`` instead.  Points outside
    the basis domain are evaluated anyway but raise an
    ExtrapolationWarning.
    """
    basis = series.basis
    coeffs = series.coeffs
    if coeffs.size == 0:
        raise ValueError("empty coefficient vector")
    x = np.asarray(xs, dtype=float)
    a_dom, b_dom = basis.domain
    slack = 1e-12 * (b_dom - a_dom)
    if x.size and (x.min() < a_dom - slack or x.max() > b_dom + slack):
        warnings.warn(
            f"evaluation points outside [{a_dom}, {b_dom}]",
            ExtrapolationWarning, stacklevel=2)
    if x.ndim and coeffs.size * x.nbytes > POINT_BUDGET:
        return _member_sum(coeffs, _member_values(basis, basis.c1 * x + basis.c2, coeffs.size))
    rows = _point_rows(basis, x, coeffs.size)[: coeffs.size]
    total = np.cumsum(coeffs.reshape((-1,) + (1,) * x.ndim) * rows, axis=0)[-1]
    return float(total) if x.ndim == 0 else total


def _mul_x_matrix(alpha, beta, gamma, a: np.ndarray) -> np.ndarray:
    """Rows of the banded product (multiplication matrix) @ a, any width."""
    n = a.shape[0]
    out = beta[:n, None] * a
    out[1:] += alpha[: n - 1, None] * a[:-1]
    out[:-1] += gamma[1:n, None] * a[1:]
    return out


def _j_minus_beta(basis: BasisSpec, width: int):
    """(v, j) -> (J - beta_j) v for coefficient columns v of ``width`` rows."""
    alpha, beta, gamma = recurrence_coefficients(basis, width)

    def j_minus_beta(v, j):
        out = _mul_x_matrix(alpha, beta, gamma, v)
        out -= beta[j] * v
        return out

    return j_minus_beta


def _basis_member_matrices(basis: BasisSpec, n: int, count: int):
    """Yield P_j evaluated at the multiplication matrix for j = 0..count-1."""
    return _recurrence(basis, np.eye(n), _j_minus_beta(basis, n), count)


class LinearizationTable:
    """Cached access to the coefficients of P_i * P_j = sum_k l(i,j,k) P_k.

    Rows come from the recurrence alone, so every family gets them:
    for a fixed j the table climbs in k through

        P_{k+1} P_j = ((x - beta_k) P_k P_j - gamma_k P_{k-1} P_j) / alpha_k

    with x * (P_k P_j) re-expanded by the banded multiplication by x.  Each
    unfinished climb is a live recurrence at width 2j + 1, resumed where
    it stopped, so a run of lookups costs one step per new row, and row
    (k, j) is stored only once rows (0, j) .. (k - 1, j) are.

    Every row is stored once, in one packed store: its nonzero positions
    and values sit at ``_idx[s:s + c]`` and ``_val[s:s + c]``, with s and
    c in ``_start[k, j]`` and ``_count[k, j]``.  The four arrays grow by
    doubling; ``_cache`` maps each stored key (k, j), k <= j, to its
    slice, which ``row`` takes of the read-only views ``_views`` of
    ``_idx`` and ``_val``.  ``product`` gathers many rows at once from the
    store.
    """

    def __init__(self, family: str):
        self.family = resolve_family(family)
        self._basis = BasisSpec(self.family)
        self._cache: dict[tuple[int, int], slice] = {}
        self._climbs: dict[int, Iterator[tuple[int, np.ndarray]]] = {}
        self._idx = np.zeros(0, dtype=np.intp)
        self._val = np.zeros(0)
        self._size = 0
        self._reserve(0)
        self._start = np.zeros((0, 0), dtype=np.intp)
        self._count = np.zeros((0, 0), dtype=np.intp)

    def row(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero positions and values of the expansion of P_i * P_j.

        Read-only views of the store.
        """
        if i < 0 or j < 0:
            raise ValueError("linearization indices must be nonnegative")
        if i > j:
            i, j = j, i
        key = (i, j)
        while key not in self._cache:
            self._climb(j)
        at = self._cache[key]
        idx, vals = self._views
        return idx[at], vals[at]

    def _climb(self, j: int) -> None:
        """Store the next row P_k * P_j of the climb for this j."""
        climb = self._climbs.get(j)
        if climb is None:
            width = 2 * j + 1
            e_j = np.zeros((width, 1))
            e_j[j] = 1.0
            climb = enumerate(_recurrence(
                self._basis, e_j, _j_minus_beta(self._basis, width), j + 1))
            self._climbs[j] = climb
        k, curr = next(climb)
        if k == j:  # rows past k = j are never asked for
            del self._climbs[j]
        self._cover(k + 1, j + 1)
        idx = np.nonzero(curr[:, 0])[0]
        lo, hi = self._size, self._size + idx.size
        if hi > self._idx.size:
            self._reserve(max(hi, 2 * self._idx.size))
        self._idx[lo:hi], self._val[lo:hi] = idx, curr[idx, 0]
        self._start[k, j], self._count[k, j] = lo, idx.size
        self._size = hi
        self._cache[(k, j)] = slice(lo, hi)

    def _reserve(self, size: int) -> None:
        """Grow ``_idx`` and ``_val`` to ``size`` entries, with new views for ``row``."""
        lo = self._size
        self._idx, self._val = _padded(self._idx[:lo], size), _padded(self._val[:lo], size)
        self._views = self._idx.view(), self._val.view()
        for view in self._views:
            view.flags.writeable = False

    def _cover(self, depth: int, width: int) -> None:
        """Grow ``_start`` and ``_count`` to hold the rows k < depth of the climbs j < width.

        Each axis at least doubles when it grows, on its own need alone.
        """
        have = self._start.shape
        if depth > have[0] or width > have[1]:
            shape = tuple(size if need <= size else max(need, 2 * size)
                          for need, size in zip((depth, width), have))
            self._start, self._count = _grown(self._start, shape), _grown(self._count, shape)


def _grown(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape``, with ``arr`` in the leading corner."""
    out = np.zeros(shape, dtype=arr.dtype)
    out[tuple(slice(0, s) for s in arr.shape)] = arr
    return out


def _padded(a: np.ndarray, width: int) -> np.ndarray:
    """A new 1-D array of ``width`` entries and a's dtype: a, cut or padded with zeros."""
    out = np.zeros(width, dtype=a.dtype)
    out[: a.size] = a[:width]
    return out


def linearization_table(family: str) -> LinearizationTable:
    """The family's shared table, so repeated products reuse cached rows."""
    fam = _FAMILIES[resolve_family(family)]
    if fam.table is None:
        fam.table = LinearizationTable(fam.name)
    return fam.table


def _bands(basis: BasisSpec, width: int) -> list:
    """Diagonals of P_j(J), j < BAND_TERMS, for columns j <= i < width or more.

    Item j lists (d, values[i] = entry (i + d, i)) for d = j .. -j, less
    those zero in every column i >= j.  One walk of ``_recurrence`` on a
    comb, whose column s sums the e_i with i = s mod 2 * BAND_TERMS, makes
    them: entry (i + d, i) of P_j depends on entries of P_k within 2j - k
    rows of i, which no other e_i nor the last row reaches.  So it is the
    table's climb on e_i, bit for bit, or a zero the table does not store.
    """
    fam = _FAMILIES[basis.family]
    if fam.bands is None or fam.bands[0] < width:
        width, step = max(width, 2 * fam.bands[0] if fam.bands else 0), 2 * BAND_TERMS
        comb = np.equal.outer(np.arange(width + step) % step, np.arange(step)) * 1.0
        walk = _recurrence(basis, comb, _j_minus_beta(basis, width + step), BAND_TERMS)
        cols = np.arange(width)
        diags = [[(d, pj[cols + d, cols % step]) for d in range(j, -j - 1, -1)]
                 for j, pj in enumerate(walk)]  # columns i < -d wrap round, unread
        fam.bands = (width, [[(d, v) for d, v in dj if v[j:].any()] for j, dj in enumerate(diags)])
    return fam.bands[1]


def _support(a: np.ndarray) -> int:
    """One past the index of the last nonzero entry (0 if all are zero)."""
    nz = np.flatnonzero(a)
    return int(nz[-1]) + 1 if nz.size else 0


def _through_support(s: Series) -> Series:
    """s cut after its last nonzero coefficient, keeping at least one.

    Its value anywhere on the domain is the value of s but for the sign of
    a zero: the cut terms are signed zeros, and x + (+-0.0) = x for x != 0.
    """
    return _owned(s.basis, s.coeffs[: max(1, _support(s.coeffs))])


def product(p: Series, q: Series) -> Series:
    """Product of two Series, computed entirely in the orthogonal basis.

    Both inputs are padded to a common length n + 1 and the result has
    length 2n + 1.  Contributions are symmetrized over (i, j) pairs, so
    product(p, q) and product(q, p) agree bitwise.  Only pairs j <= i
    with j below the shorter support m and i below the longer one hi can
    have a nonzero weight.  Their weights come from one outer product.
    The first column (j = 0) is a copy, since row (0, i) is exactly e_i.
    For j >= 1 each coefficient sums its terms in (j, i) order: if
    m <= BAND_TERMS, as weighted slices of the diagonals d = j .. -j of
    P_j(J) (``_bands``), j ascending and d descending, whose zeros add
    +-0.0 to sums that start at +0.0; otherwise as the pairs' table rows.
    One ``row`` lookup per column i with a nonzero weight, at its deepest
    such j, stores climb i through every pair of that column.  The rows
    are then gathered from the table's packed store, in the (j, i) order
    of one lookup per pair, and added in one ordered ``np.add.at`` per
    chunk of at most (n + 1)^2 entries, so every coefficient sums the
    same terms in the same order as the pair loop, bit for bit.
    """
    if p.basis != q.basis:
        raise ValueError(f"basis mismatch: {p.basis} vs {q.basis}")
    n = max(p.coeffs.size, q.coeffs.size) - 1
    a, b = _padded(p.coeffs, n + 1), _padded(q.coeffs, n + 1)
    sa, sb = _support(a), _support(b)
    m, hi = max(min(sa, sb), 1), max(sa, sb)
    c = np.zeros(2 * n + 1)
    w = b[:m, None] * a[:hi] + a[:m, None] * b[:hi]  # two outer products
    np.fill_diagonal(w, w.diagonal() * 0.5)
    c[:hi] = 0.0 + w[0]  # -0.0 becomes +0.0, as a scatter onto zeros leaves it
    if m <= BAND_TERMS:
        for j, diagonals in enumerate(_bands(p.basis, hi)[1:m], start=1):
            for d, diag in diagonals:
                c[j + d : hi + d] += w[j, j:hi] * diag[j:hi]
        return _owned(p.basis, c)
    table = linearization_table(p.basis.family)
    live = np.triu(w)[1:] != 0  # row r holds the pairs (r + 1, i)
    deepest = (live * np.arange(1, m)[:, None]).max(axis=0)  # 0: no live pair
    cols = np.flatnonzero(deepest)
    for j, i in zip(deepest[cols].tolist(), cols.tolist()):
        table.row(j, i)  # stores climb i through every pair of column i
    table._cover(m, hi)  # the index arrays span live, though its last columns may hold no pair
    sizes = table._count[1:m, :hi][live]  # the pairs in (j, i) order
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    shifts = table._start[1:m, :hi][live] - bounds[:-1]
    weights = w[1:][live]
    start = 0
    while start < sizes.size:
        stop = int(np.searchsorted(bounds, bounds[start] + (n + 1) ** 2, side="right")) - 1
        at = np.repeat(shifts[start:stop], sizes[start:stop])
        at += np.arange(bounds[start], bounds[stop])
        np.add.at(c, table._idx[at], np.repeat(weights[start:stop], sizes[start:stop]) * table._val[at])
        start = stop
    return _owned(p.basis, c)
