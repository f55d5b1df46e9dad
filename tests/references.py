"""Straightforward versions of rewritten primitives, kept for bit identity.

Each function here is the plain loop that a faster primitive in the
package replaced.  Tests compare the two byte for byte, so a rewrite may
skip work or vectorize it but never change the order of a floating point
operation.
"""

import numpy as np

import tauspec as ts
from tauspec.operators import _basis_member_matrices


def pair_loop_product(p, q):
    """Product over every index pair j <= i, one row addition per pair."""
    n = max(p.coeffs.size, q.coeffs.size) - 1
    a = np.zeros(n + 1)
    a[: p.coeffs.size] = p.coeffs
    b = np.zeros(n + 1)
    b[: q.coeffs.size] = q.coeffs
    table = ts.linearization_table(p.basis.family)
    c = np.zeros(2 * n + 1)
    for j in range(n + 1):
        for i in range(j, n + 1):
            w = a[i] * b[j] + a[j] * b[i]
            if i == j:
                w *= 0.5
            if w == 0.0:
                continue
            idx, vals = table.row(i, j)
            c[idx] += w * vals
    return ts.Series(p.basis, c)


def per_column_volterra_operator(kernel, lower, n):
    """Volterra operator with one multiplication matrix built per t-column."""
    basis = kernel.basis
    k = kernel.coeffs[:n, :n]
    nx, nt = k.shape
    os = ts.integration_matrix(basis, n) / basis.c1
    row_lo = ts.basis_row(basis, lower, n)
    acc = np.zeros((n, n))
    for j, pj in enumerate(_basis_member_matrices(basis, n, nt)):
        col = np.zeros(n)
        col[:nx] = k[:, j]
        if not col.any():
            continue
        b = ts.polynomial_multiplication_matrix(basis, k[:, j], n)
        b = b - np.outer(col, row_lo)
        acc += b @ os @ pj
    return acc
