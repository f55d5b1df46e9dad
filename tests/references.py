"""Straightforward versions of rewritten primitives, kept for bit identity.

Each function here is the plain loop that a faster or shorter primitive
in the package replaced.  Tests compare the two byte for byte, so a
rewrite may skip work, vectorize it or share it but never change the
order of a floating point operation.
"""

from dataclasses import replace

import numpy as np

import tauspec as ts


def _mul_x_matrix(alpha, beta, gamma, a):
    n = a.shape[0]
    out = beta[:n, None] * a
    out[1:] += alpha[: n - 1, None] * a[:-1]
    out[:-1] += gamma[1:n, None] * a[1:]
    return out


# -- the three term step, written out once per use --------------------------


def member_values(basis, z, count):
    """Yield P_0(z), ..., P_{count-1}(z) on the reference interval."""
    alpha, beta, gamma = ts.recurrence_coefficients(basis, count)
    p_prev = np.zeros_like(z)
    p_curr = np.ones_like(z)
    for i in range(count):
        yield p_curr
        if i + 1 < count:
            p_next = ((z - beta[i]) * p_curr - gamma[i] * p_prev) / alpha[i]
            p_prev, p_curr = p_curr, p_next


def basis_member_matrices(basis, n, count):
    """Yield P_j evaluated at the multiplication matrix for j = 0..count-1."""
    alpha, beta, gamma = ts.recurrence_coefficients(basis, n)
    prev = np.zeros((n, n))
    curr = np.eye(n)
    for j in range(count):
        yield curr
        if j + 1 < count:
            nxt = _mul_x_matrix(alpha, beta, gamma, curr)
            nxt -= beta[j] * curr
            nxt -= gamma[j] * prev
            nxt /= alpha[j]
            prev, curr = curr, nxt


def linearization_climb(basis, j):
    """Rows (idx, vals) of P_k * P_j for k = 0..j, each grown one entry wider."""
    rows = []
    k, prev, curr = 0, np.zeros(j), np.zeros(j + 1)
    curr[j] = 1.0
    while True:
        idx = np.nonzero(curr)[0]
        rows.append((idx, curr[idx]))
        if k == j:
            return rows
        alpha, beta, gamma = ts.recurrence_coefficients(basis, k + j + 2)
        wide = np.append(curr, 0.0)
        nxt = _mul_x_matrix(alpha, beta, gamma, wide[:, None])[:, 0]
        nxt = (nxt - beta[k] * wide - gamma[k] * np.append(prev, [0.0, 0.0])) / alpha[k]
        k, prev, curr = k + 1, curr, nxt


def basis_to_power_matrix(basis, n):
    """Columns hold the power-basis coefficients of each shifted member."""
    c1, c2 = basis.c1, basis.c2
    alpha, beta, gamma = ts.recurrence_coefficients(basis, n)
    v = np.zeros((n, n))
    v[0, 0] = 1.0
    if n == 1:
        return v
    v[0, 1] = (c2 - beta[0]) / alpha[0]
    v[1, 1] = c1 / alpha[0]
    for j in range(1, n - 1):
        shifted = np.zeros(n)
        shifted[1:] = v[:-1, j]
        v[:, j + 1] = (c1 * shifted + (c2 - beta[j]) * v[:, j]
                       - gamma[j] * v[:, j - 1]) / alpha[j]
    return v


def differentiation_matrix(basis, n):
    """Strictly upper triangular matrix of d/dx on the reference interval."""
    alpha, beta, gamma = ts.recurrence_coefficients(basis, n)
    d = np.zeros((n, n))
    if n == 1:
        return d
    d[0, 1] = 1.0 / alpha[0]
    for j in range(1, n - 1):
        col = _mul_x_matrix(alpha, beta, gamma, d[:, j : j + 1])[:, 0]
        col[j] += 1.0
        col -= beta[j] * d[:, j]
        col -= gamma[j] * d[:, j - 1]
        d[:, j + 1] = col / alpha[j]
    return d


def integration_matrix(basis, n):
    """Antiderivative matrix by back substitution, one dot per entry."""
    dn = differentiation_matrix(basis, n + 1)
    alpha = ts.recurrence_coefficients(basis, n)[0]
    p_zero = np.fromiter(member_values(basis, np.float64(-0.0), n + 1), float, n + 1)
    out = np.zeros((n, n))
    for j in range(n):
        col = np.zeros(j + 2)
        col[j + 1] = alpha[j] / (j + 1)
        for i in range(j - 1, -1, -1):
            acc = dn[i, i + 2 : j + 2] @ col[i + 2 :]
            col[i + 1] = -acc / dn[i, i + 1]
        col[0] = -(col[1:] @ p_zero[1 : j + 2])
        keep = min(n, j + 2)
        out[:keep, j] = col[:keep]
    return out


# -- callers of the step -----------------------------------------------------


def basis_row(basis, x, n):
    z = np.float64(basis.c1 * float(x) + basis.c2)
    return np.fromiter(member_values(basis, z, n), float, n)


def evaluate(series, xs):
    """Series values by the forward recursion, without the domain warning."""
    basis, coeffs = series.basis, series.coeffs
    x = np.asarray(xs, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    members = member_values(basis, basis.c1 * x + basis.c2, coeffs.size)
    total = coeffs[0] * next(members)
    for c, p in zip(coeffs[1:], members):
        total = total + c * p
    return float(total[0]) if scalar else total


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
    for j, pj in enumerate(basis_member_matrices(basis, n, nt)):
        col = np.zeros(n)
        col[:nx] = k[:, j]
        if not col.any():
            continue
        b = ts.polynomial_multiplication_matrix(ts.WorkingSize(basis, n), k[:, j])
        b = b - np.outer(col, row_lo)
        acc += b @ os @ pj
    return acc


def fredholm_operator(kernel, n):
    """Fredholm operator with the antiderivative divided by c1 on every call."""
    basis = kernel.basis
    k = kernel.coeffs[:n, :n]
    nx, nt = k.shape
    a_dom, b_dom = basis.domain
    os = ts.integration_matrix(basis, n) / basis.c1
    r = (ts.basis_row(basis, b_dom, n) - ts.basis_row(basis, a_dom, n)) @ os
    acc = np.zeros((n, n))
    for j, pj in enumerate(basis_member_matrices(basis, n, nt)):
        acc[:nx] += np.outer(k[:, j], r @ pj)
    return acc


# -- exact integral images and the residual, on every coefficient -------------


def volterra_apply(kernel, lower, series):
    """Volterra image, each antiderivative evaluated in full, padded per piece."""
    basis = kernel.basis
    out = np.zeros(1)
    for i, row in enumerate(kernel.coeffs):
        if not row.any():
            continue
        g = ts.series_antiderivative(ts.product(ts.Series(basis, row), series))
        anchored = np.array(g.coeffs)
        anchored[0] -= ts.evaluate(g, lower)
        e_i = np.zeros(i + 1)
        e_i[i] = 1.0
        piece = ts.product(ts.Series(basis, e_i), ts.Series(basis, anchored)).coeffs
        out = np.pad(out, (0, max(0, piece.size - out.size)))
        out[: piece.size] += piece
    return ts.Series(basis, out)


def fredholm_apply(kernel, series):
    """Fredholm image, each antiderivative evaluated in full at both ends."""
    basis = kernel.basis
    out = np.zeros(kernel.coeffs.shape[0])
    for i, row in enumerate(kernel.coeffs):
        if not row.any():
            continue
        g = ts.series_antiderivative(ts.product(ts.Series(basis, row), series))
        at_a, at_b = (ts.evaluate(g, x) for x in basis.domain)
        out[i] = at_b - at_a
    return ts.Series(basis, out)


def residual_report(spec, iterate, defects):
    """Residual report that samples every coefficient of each defect."""
    solver = ts.solver
    a, b = spec.basis.domain
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    size = solver.RESIDUAL_GRID
    grid = mid - half * np.cos(np.pi * np.arange(size) / (size - 1))
    eq_max = [float(np.max(np.abs(evaluate(d, grid)))) for d in defects]
    cond = [float(x) for x in solver.condition_defects(spec, iterate)]
    return solver.ResidualReport(grid, eq_max, cond, defects)


# -- a Newton sweep that freezes nothing ------------------------------------


def _frozen_product(series_list, n):
    acc = series_list[0]
    for s in series_list[1:]:
        acc = ts.product(acc, s)
        acc = ts.Series(acc.basis, ts.problem._truncated(acc.coeffs, n, "frozen product"))
    return acc


def linearize(spec, iterate):
    """Linearization that recomputes every factor and product it uses."""
    problem = ts.problem
    if spec.is_linear:
        return spec
    n = spec.settings.n
    equations = []
    for eq in spec.equations:
        linear = list(eq.linear)
        rhs = np.zeros(max(len(eq.rhs), n))
        rhs[: len(eq.rhs)] = eq.rhs
        for term in eq.products:
            frozen = [ts.apply_order(iterate[v], o) for v, o in term.factors]
            p = len(term.factors)
            weight = term.coeff[0]
            for i, factor in enumerate(term.factors):
                others = [frozen[j] for j in range(p) if j != i]
                phi = _frozen_product(others, n)
                if term.enclosure is None:
                    phi_n = problem._truncated(phi.coeffs, n, "frozen coefficient")
                    linear.append(ts.TermSpec((factor,), tuple(weight * phi_n)))
                else:
                    new_kernel = problem._kernel_times_t_poly(term.kernel, phi, n)
                    linear.append(ts.TermSpec((factor,), (weight,), term.enclosure,
                                              new_kernel, term.lower))
            whole = _frozen_product(frozen, n)
            moved = problem._apply_integral(term, whole)
            corr = weight * (p - 1) * moved.coeffs
            corr = problem._truncated(corr, rhs.size, "rhs correction")
            rhs[: corr.size] += corr
        equations.append(ts.EquationSpec(tuple(linear), tuple(rhs)))
    return replace(spec, equations=tuple(equations))


def apply_term_exact(term, iterate):
    """Exact term, its factors computed afresh and multiplied in the written order."""
    acc = None
    for v, o in term.factors:
        s = ts.apply_order(iterate[v], o)
        acc = s if acc is None else ts.product(acc, s)
    acc = ts.problem._apply_integral(term, acc)
    if len(term.coeff) == 1:
        return ts.Series(acc.basis, term.coeff[0] * acc.coeffs)
    return ts.product(ts.Series(acc.basis, np.asarray(term.coeff)), acc)


def calculus_powers(basis, n):
    """``power(order)``: d^order/dx^order, or the antiderivative -order times, at size n."""
    powers = {0: np.eye(n)}

    def power(order):
        sign = 1 if order > 0 else -1
        for k in range(sign, order + sign, sign):
            if k not in powers:
                step = (basis.c1 * ts.differentiation_matrix(basis, n) if sign > 0
                        else ts.integration_matrix(basis, n) / basis.c1)
                powers[k] = step @ powers[k - sign]
        return powers[order]

    return power


def _one_term_matrix(term, basis, n, power, where):
    """One term's matrix, every operator walking its own member matrices."""
    try:
        outer = ts.polynomial_multiplication_matrix(ts.WorkingSize(basis, n), term.coeff)
    except ValueError as exc:
        raise ts.ValidationError(
            f"{exc}; increase n to fit the coefficient polynomial", where) from None
    (_, order), = term.factors
    if term.enclosure is None:
        core = power(order)
    else:
        if term.enclosure is ts.Kind.VOLTERRA:
            core = ts.volterra_operator(ts.WorkingSize(basis, n), term.kernel, term.lower)
        else:
            core = ts.fredholm_operator(ts.WorkingSize(basis, n), term.kernel)
        if order:
            core = core @ power(order)
    if len(term.coeff) == 1 and term.coeff[0] == 1.0:
        return core
    return outer @ core


def assemble(spec, store=None):
    """Assembly that builds one matrix per term occurrence.

    ``store`` is accepted and ignored: every call makes its own powers by
    the plain loop, and every operator walks its own member matrices, as
    each call did before a solve shared one store.
    """
    solver = ts.solver
    basis, n = spec.basis, spec.settings.n
    m = len(spec.variables)
    col_of = {v: slice(i * n, (i + 1) * n) for i, v in enumerate(spec.variables)}
    charged = solver._attribution(spec)
    nu_e = [charged.count(e) for e in range(m)]
    power = calculus_powers(basis, n)
    size = m * n
    a = np.zeros((size, size))
    b = np.zeros(size)
    row_map = []
    r = 0
    for ci, cond in enumerate(spec.conditions):
        for t in cond.terms:
            row = ts.basis_row(basis, t.point, n) @ power(t.order)
            a[r, col_of[t.var]] += t.weight * row
        b[r] = cond.value
        row_map.append(("condition", ci))
        r += 1
    for e, eq in enumerate(spec.equations):
        keep = n - nu_e[e]
        blocks = {}
        for ti, term in enumerate(eq.terms):
            mat = _one_term_matrix(term, basis, n, power, f"equations[{e}].terms[{ti}]")
            var = term.factors[0][0]
            if var in blocks:
                blocks[var] = blocks[var] + mat
            else:
                blocks[var] = mat
        for var, mat in blocks.items():
            a[r : r + keep, col_of[var]] = mat[:keep]
        rhs = np.zeros(keep)
        take = min(keep, len(eq.rhs))
        rhs[:take] = eq.rhs[:take]
        b[r : r + keep] = rhs
        row_map.extend(("equation", e, k) for k in range(keep))
        r += keep
    return solver.TauSystem(a, b, row_map, col_of)
