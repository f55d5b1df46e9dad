"""Matrix representations of multiplication, calculus, and integral kernels.

Everything here acts on coefficient vectors of a :class:`~tauspec.basis.Series`.
The multiplication, differentiation, and integration matrices are built
directly from the three term recurrence of the family; the change of
basis to and from powers of x is produced column by column by the same
recurrence.  No matrix is ever obtained by inverting another one.

The calculus matrices live on the reference interval.  Operators for a
problem posed on [a, b] scale them by the interval map: differentiation
picks up a factor c1, integration a factor 1/c1, and coefficient
polynomials of the problem variable act through the recurrence applied
to the shifted multiplication matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .basis import (
    BasisSpec,
    Series,
    _basis_member_matrices,
    _member_sum,
    _member_values,
    _mul_x_matrix,
    _owned,
    _padded,
    _recurrence,
    _through_support,
    basis_row,
    cached_block,
    evaluate,
    product,
    recurrence_coefficients,
)
from .errors import TruncationWarning

__all__ = [
    "KernelPoly",
    "multiplication_matrix",
    "multiplication_matrix_power",
    "basis_to_power_matrix",
    "power_to_basis_matrix",
    "differentiation_matrix",
    "integration_matrix",
    "WorkingSize",
    "polynomial_multiplication_matrix",
    "volterra_operator",
    "fredholm_operator",
    "from_power_series",
    "kernel_from_power",
    "series_derivative",
    "series_antiderivative",
    "apply_order",
    "volterra_apply",
    "fredholm_apply",
]


@dataclass
class KernelPoly:
    """A bivariate polynomial kernel K(x, t), expanded in the shifted basis.

    ``coeffs[i, j]`` multiplies P_i(x) * P_j(t).
    """

    basis: BasisSpec
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("kernel coefficients must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel coefficients must be finite")
        self.coeffs = arr


def _check_size(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"working size must be positive, got {n}")
    return n


def multiplication_matrix(basis: BasisSpec, n: int) -> np.ndarray:
    """Tridiagonal matrix of multiplication by x on the reference interval."""
    return multiplication_matrix_power(basis, 1, n)


def multiplication_matrix_power(basis: BasisSpec, k: int, n: int) -> np.ndarray:
    """k-th power of the multiplication matrix via the banded row update.

    Never forms a dense matrix product; each step combines at most three
    neighbouring rows.
    """
    n = _check_size(n)
    if k < 0:
        raise ValueError("power must be nonnegative")
    alpha, beta, gamma = recurrence_coefficients(basis, n)
    acc = np.eye(n)
    for _ in range(k):
        acc = _mul_x_matrix(alpha, beta, gamma, acc)
    return acc


def basis_to_power_matrix(basis: BasisSpec, n: int) -> np.ndarray:
    """Columns hold the power-basis coefficients of each shifted member.

    Column j satisfies P*_j(x) = sum_i V[i, j] x^i on the working
    interval, built by the recurrence with the interval map folded in.
    """
    n = _check_size(n)
    c1, c2 = basis.c1, basis.c2
    beta = recurrence_coefficients(basis, n)[1]

    def x_minus_beta(v, j):
        shifted = np.zeros(n)
        shifted[1:] = v[:-1]
        if j == 0:
            # adding -0.0 keeps the sign of c2 - beta_0, which is -0.0 on an
            # interval symmetric about 0, in the constant term of P*_1
            shifted[0] = -0.0
        return c1 * shifted + (c2 - beta[j]) * v

    return np.column_stack(list(_recurrence(basis, np.eye(n)[0], x_minus_beta, n)))


def power_to_basis_matrix(basis: BasisSpec, n: int) -> np.ndarray:
    """Columns expand the monomials on the working interval in the basis.

    Column j + 1 comes from column j through the multiplication matrix of
    the interval variable, so the inverse change of basis never involves
    a matrix inversion.
    """
    n = _check_size(n)
    c1, c2 = basis.c1, basis.c2
    alpha, beta, gamma = recurrence_coefficients(basis, n)
    alpha_x = alpha / c1
    beta_x = (beta - c2) / c1
    gamma_x = gamma / c1
    w = np.zeros((n, n))
    w[0, 0] = 1.0
    for j in range(n - 1):
        w[:, j + 1] = _mul_x_matrix(alpha_x, beta_x, gamma_x, w[:, j : j + 1])[:, 0]
    return w


def _build_differentiation(basis: BasisSpec, n: int) -> np.ndarray:
    alpha, beta, gamma = recurrence_coefficients(basis, n)

    def x_minus_beta(d, j):
        col = _mul_x_matrix(alpha, beta, gamma, d)
        col[j] += 1.0
        col -= beta[j] * d
        return col

    return np.column_stack(list(_recurrence(basis, np.zeros((n, 1)), x_minus_beta, n)))


def differentiation_matrix(basis: BasisSpec, n: int) -> np.ndarray:
    """Strictly upper triangular matrix of d/dx on the reference interval.

    Column j + 1 follows from differentiating the recurrence:

        P_j + x P'_j = alpha_j P'_{j+1} + beta_j P'_j + gamma_j P'_{j-1}

    which determines each derivative column from the two before it.  The
    result is a read-only block of the matrix cached on the family.
    """
    return cached_block(basis, "differentiation", _check_size(n), _build_differentiation)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of ``a`` with the same row of ``b``.

    The stacked (m, 1, d) @ (m, d, 1) product makes one BLAS ddot per row
    over the two rows where they lie, the call ``ndarray.dot`` makes for
    one pair of contiguous slices, so each dot keeps its bits.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _build_integration(basis: BasisSpec, n: int) -> np.ndarray:
    # one extra index so the back substitution sees full derivative data;
    # built here, not read from the cache, so the cache does not double for it
    dn = _build_differentiation(basis, n + 1)
    alpha = recurrence_coefficients(basis, n)[0]
    # P_k at the reference origin; z = -0.0 keeps z - beta_k equal to
    # -beta_k bit for bit, signed zeros included
    p_zero = np.fromiter(_member_values(basis, np.float64(-0.0), n + 1), float, n + 1)
    pivot = dn.diagonal(1)
    zeros = -0.0 / pivot
    # a checkerboard d/dx (exact zeros at even offsets) zeroes the entries
    # at odd anti-diagonals; those dots would be +0.0, so they are skipped
    checkerboard = not any(dn.diagonal(k).any() for k in range(0, n + 1, 2))
    # seg[i, k] = dn[i, i + 2 + k]: one row plus one column per step down;
    # the entries read stay inside row i
    seg = as_strided(dn[0, 2:], (max(n - 1, 0),) * 2,
                     (dn.strides[0] + dn.strides[1], dn.strides[1]), writeable=False)
    # row j of work holds column j right-aligned: entry j + 1 - d at work[j, n - d],
    # so anti-diagonal d is column n - d and reads the d columns right of it;
    # cols[j, p] is entry p of column j, and past its end the zeros left of row j + 1
    work = np.zeros((n, n + 1))
    cols = as_strided(work[0, n - 1 :], (n, n), (work.strides[0] - work.strides[1], work.strides[1]))
    work[:, n] = alpha / np.arange(1, n + 1)
    # anti-diagonal by anti-diagonal: entry j + 1 - d of every column j >= d at
    # once, each its own ddot over the slices that one dot per entry takes
    for d in range(1, n):
        rows = slice(0, n - d)
        if checkerboard and d % 2:
            work[d:, n - d] = zeros[rows]
        else:
            work[d:, n - d] = -_row_dots(seg[rows, :d], work[d:, n - d + 1 :]) / pivot[rows]
    for j in range(n):
        work[j, n - 1 - j] = -(work[j, n - j :] @ p_zero[1 : j + 2])
    # the output takes the buffer of d/dx, which nothing reads any more, so
    # no third n x n array is made
    out = dn.reshape(-1)[: n * n].reshape(n, n)
    out[...] = cols.T
    return out


def integration_matrix(basis: BasisSpec, n: int) -> np.ndarray:
    """Antiderivative matrix on the reference interval.

    Column j expands the primitive of P_j that vanishes at the reference
    origin.  The top entry of each column is alpha_j / (j + 1); the rest
    follow by back substitution through the requirement that the
    differentiation matrix sends the column back to e_j, and the free
    constant is fixed by the value at zero.  The primitive of the last
    member needs one coefficient beyond the working size; that entry is
    dropped, which is the only truncation in the construction.  The
    result is a read-only block of the matrix cached on the family.

    Entry p = j + 1 - d of column j lies on anti-diagonal d.  It is

        -(D[i, i+2 : j+2] . col_j[i+2 : j+2]) / D[i, i+1],   i = j - d,

    D the differentiation matrix at n + 1, and reads only entries of the
    same column at smaller d.  So the back substitution runs over d =
    1, ..., n - 1, and one batched call per d makes the dot of that entry
    for every column j >= d at once; the value at the origin, the
    constant entry p = 0, is one dot per column at the end.  The batched
    call is one BLAS ddot per column over the same two contiguous slices
    that a dot per entry takes, and the negation and the division are
    elementwise IEEE operations, so every entry keeps the bits of one dot
    per entry, with all entries finite.

    When every entry of d/dx at even offset k - i is an exact zero
    (beta == 0, as for Chebyshev and Legendre), so is every entry at odd
    d: each product of its dot has a zero factor and BLAS sums them from
    +0.0, so those entries are written as -0.0 / pivot without a dot, and
    a build makes about n / 2 batched calls instead of n - 1.
    """
    return cached_block(basis, "integration", _check_size(n), _build_integration)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class WorkingSize:
    """The operators of one family at one working size n, each made once and kept.

    ``members(count)`` returns P_0(J), ..., P_{count-1}(J), J the
    multiplication matrix, resuming one walk of the recurrence.
    ``power(order)`` returns d^order/dx^order on the working interval,
    or the antiderivative applied -order times below zero, as the one-step
    matrix times the power one order lower.  All are read-only.  The
    store is the one source of the basis and n for every operator built
    from it; a solve makes one and keeps it for its assemblies.
    """

    def __init__(self, basis: BasisSpec, n: int):
        self.basis = basis
        self.n = _check_size(n)
        self._walk = _basis_member_matrices(basis, self.n, self.n)
        self._members: list = []
        self._powers = {0: _read_only(np.eye(self.n))}

    def members(self, count: int) -> list:
        if count > self.n:
            raise ValueError(f"{count} members asked for at working size {self.n}")
        while len(self._members) < count:
            self._members.append(_read_only(next(self._walk)))
        return self._members[:count]

    def power(self, order: int) -> np.ndarray:
        basis, n, powers = self.basis, self.n, self._powers
        sign = 1 if order > 0 else -1
        for k in range(sign, order + sign, sign):
            if k not in powers:
                step = (basis.c1 * differentiation_matrix(basis, n) if sign > 0
                        else integration_matrix(basis, n) / basis.c1)
                # step @ I is step with -0.0 made +0.0, which step + 0.0 does
                powers[k] = _read_only(step + 0.0 if k == sign else step @ powers[k - sign])
        return powers[order]


def polynomial_multiplication_matrix(store: WorkingSize, coeffs) -> np.ndarray:
    """Matrix of multiplication by a polynomial given in the shifted basis.

    ``coeffs`` are the coefficients of the multiplier on the working
    interval.  The matrix is the coefficient-weighted sum of basis
    members evaluated at the multiplication matrix, read from ``store``,
    which fixes the basis and the working size.
    """
    p = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if p.ndim != 1 or p.size == 0:
        raise ValueError("coefficient polynomial must be a nonempty 1-D array")
    if p.size > store.n:
        raise ValueError(
            f"coefficient polynomial has {p.size} coefficients, working size is {store.n}")
    return _member_sum(p, store.members(p.size))


def _clipped_kernel(store: WorkingSize, kernel: KernelPoly) -> np.ndarray:
    """The kernel's coefficients cut to the store's working size, its basis checked."""
    if kernel.basis != store.basis:
        raise ValueError(f"kernel is in {kernel.basis}, operator store in {store.basis}")
    k, n = kernel.coeffs, store.n
    if k.shape[0] > n or k.shape[1] > n:
        warnings.warn(
            f"kernel of shape {k.shape} truncated to working size {n}",
            TruncationWarning, stacklevel=3)
        k = k[:n, :n]
    return k


def volterra_operator(store: WorkingSize, kernel: KernelPoly, lower: float) -> np.ndarray:
    """Operator of y -> integral from ``lower`` to x of K(x, t) y(t) dt.

    Assembled per kernel column: the t dependence acts through basis
    members evaluated at the multiplication matrix, the antiderivative
    supplies the integral, and a rank-one correction subtracts the value
    at the lower limit so the image vanishes there.  The x-side and
    t-side members are read from ``store``, the WorkingSize of the
    kernel's basis.
    """
    k = _clipped_kernel(store, kernel)
    basis, n = store.basis, store.n
    nx, nt = k.shape
    os = store.power(-1)
    row_lo = basis_row(basis, lower, n)
    pm = store.members(max(nx, nt))
    acc = np.zeros((n, n))
    for j, pj in enumerate(pm[:nt]):
        col = _padded(k[:, j], n)
        if not col.any():
            continue
        b = _member_sum(k[:, j], pm) - np.outer(col, row_lo)
        # P_0(J) = I: acc starts at +0.0, so b @ os adds the same bits as b @ os @ I
        acc += b @ os if j == 0 else b @ os @ pj
    return acc


def fredholm_operator(store: WorkingSize, kernel: KernelPoly) -> np.ndarray:
    """Operator of y -> integral over the whole interval of K(x, t) y(t) dt.

    The result of the integral is a polynomial in x of the kernel's x
    degree, so rows beyond that degree are exactly zero.  The t-side
    members are read from ``store`` as in ``volterra_operator``.
    """
    k = _clipped_kernel(store, kernel)
    basis, n = store.basis, store.n
    nx, nt = k.shape
    a_dom, b_dom = basis.domain
    r = (basis_row(basis, b_dom, n) - basis_row(basis, a_dom, n)) @ store.power(-1)
    acc = np.zeros((n, n))
    for j, pj in enumerate(store.members(nt)):
        v = r @ pj
        acc[:nx] += np.outer(k[:, j], v)
    return acc


def from_power_series(basis: BasisSpec, power_coeffs) -> np.ndarray:
    """Shifted-basis coefficients of a polynomial given in powers of x."""
    c = np.atleast_1d(np.asarray(power_coeffs, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("power coefficients must be a nonempty 1-D array")
    w = power_to_basis_matrix(basis, c.size)
    return w @ c


def kernel_from_power(basis: BasisSpec, power_matrix) -> KernelPoly:
    """Kernel from a power-basis coefficient matrix in (x, t).

    ``power_matrix[p, q]`` multiplies x^p t^q on the working interval.
    """
    kx = np.atleast_2d(np.asarray(power_matrix, dtype=float))
    if kx.size == 0:
        raise ValueError("kernel power matrix must be nonempty")
    wx = power_to_basis_matrix(basis, kx.shape[0])
    wt = power_to_basis_matrix(basis, kx.shape[1])
    return KernelPoly(basis, wx @ kx @ wt.T)


def series_derivative(series: Series) -> Series:
    """Exact derivative of a Series on its working interval."""
    n = series.coeffs.size
    dn = differentiation_matrix(series.basis, n)
    return _owned(series.basis, series.basis.c1 * (dn @ series.coeffs))


def series_antiderivative(series: Series) -> Series:
    """Exact antiderivative, one coefficient longer than the input.

    The free constant makes the result vanish at the midpoint of the
    working interval; callers that need a definite integral subtract the
    value at their own anchor point.
    """
    n = series.coeffs.size
    om = integration_matrix(series.basis, n + 1)
    return _owned(series.basis, (om @ _padded(series.coeffs, n + 1)) / series.basis.c1)


def apply_order(series: Series, order: int) -> Series:
    """Differentiate ``order`` times, or integrate ``-order`` times if negative."""
    for _ in range(order):
        series = series_derivative(series)
    for _ in range(-order):
        series = series_antiderivative(series)
    return series


def _row_antiderivatives(kernel: KernelPoly, series: Series):
    """Yield (i, antiderivative of K_i(t) * series(t)) for each nonzero x-row K_i."""
    for i, row in enumerate(kernel.coeffs):
        if row.any():
            yield i, series_antiderivative(product(Series(kernel.basis, row), series))


def volterra_apply(kernel: KernelPoly, lower: float, series: Series) -> Series:
    """Exact image of a Series under the Volterra integral of a kernel.

    Works in expanded coefficient space (no working-size truncation), so
    it is suitable for residual checks against the assembled operator.
    """
    basis = kernel.basis
    pieces = []
    for i, g in _row_antiderivatives(kernel, series):
        anchored = np.array(g.coeffs)
        anchored[0] -= evaluate(_through_support(g), lower)
        e_i = np.zeros(i + 1)
        e_i[i] = 1.0
        pieces.append(product(_owned(basis, e_i), _owned(basis, anchored)).coeffs)
    out = np.zeros(max((piece.size for piece in pieces), default=1))
    for piece in pieces:
        out[: piece.size] += piece
    return _owned(basis, out)


def fredholm_apply(kernel: KernelPoly, series: Series) -> Series:
    """Exact image of a Series under the Fredholm integral of a kernel."""
    out = np.zeros(kernel.coeffs.shape[0])
    for i, g in _row_antiderivatives(kernel, series):
        head = _through_support(g)
        at_a, at_b = (evaluate(head, x) for x in kernel.basis.domain)
        out[i] = at_b - at_a
    return _owned(kernel.basis, out)
