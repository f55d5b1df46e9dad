"""Exact rational references, built independently of the package.

Everything here goes through power-basis coefficients in Fraction
arithmetic: family members come straight from their defining three term
recurrences, operator matrices by conjugating the elementary calculus
operators on monomials with the exact change-of-basis triangles.  The
conjugations run at a padded size and are truncated afterwards, so
finite-size effects cannot leak into the compared block.
"""

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def chebyshev_power(j: int) -> list:
    """Power coefficients of the degree-j first kind member on [-1, 1]."""
    if j == 0:
        return [F1]
    prev, curr = [F1], [F0, F1]
    for _ in range(j - 1):
        nxt = [F0] + [2 * c for c in curr]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, curr = curr, nxt
    return curr


def legendre_power(j: int) -> list:
    if j == 0:
        return [F1]
    prev, curr = [F1], [F0, F1]
    for k in range(1, j):
        nxt = [F0] + [Fraction(2 * k + 1, k + 1) * c for c in curr]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, curr = curr, nxt
    return curr


POWER = {"ChebyshevT": chebyshev_power, "LegendreP": legendre_power}


def shifted_power(family: str, j: int, domain) -> list:
    """Power coefficients in x of the member composed with the map to [-1, 1]."""
    a, b = Fraction(domain[0]), Fraction(domain[1])
    c1 = 2 / (b - a)
    c2 = (a + b) / (a - b)
    out = []
    for c in reversed(POWER[family](j)):
        # Horner step: out <- out * (c1 x + c2) + c
        shifted = [F0] + [c1 * v for v in out]
        for i, v in enumerate(out):
            shifted[i] += c2 * v
        shifted[0] += c
        out = shifted
    return out


def zeros(r: int, c: int) -> list:
    return [[F0] * c for _ in range(r)]


def matmul(a: list, b: list) -> list:
    r, k, c = len(a), len(b), len(b[0])
    out = zeros(r, c)
    for i in range(r):
        for m in range(k):
            x = a[i][m]
            if x:
                row = b[m]
                oi = out[i]
                for jj in range(c):
                    oi[jj] += x * row[jj]
    return out


def basis_to_power(family: str, domain, n: int) -> list:
    v = zeros(n, n)
    for j in range(n):
        for i, c in enumerate(shifted_power(family, j, domain)):
            v[i][j] = c
    return v


def power_to_basis(family: str, domain, n: int) -> list:
    """Exact inverse of the upper triangular change of basis."""
    v = basis_to_power(family, domain, n)
    w = zeros(n, n)
    for col in range(n):
        x = [F0] * n
        x[col] = F1
        for i in range(n - 1, -1, -1):
            s = x[i]
            for j in range(i + 1, n):
                s -= v[i][j] * w[j][col]
            w[i][col] = s / v[i][i]
    return w


def _conjugated(family: str, domain, n: int, core) -> list:
    """Truncated W * core * V with the core built at padded size by ``core``."""
    p = n + 2
    m = matmul(power_to_basis(family, domain, p),
               matmul(core(p), basis_to_power(family, domain, p)))
    return [row[:n] for row in m[:n]]


def mult_oracle(family: str, domain, n: int) -> list:
    """Multiplication by the mapped argument (the reference variable)."""
    a, b = Fraction(domain[0]), Fraction(domain[1])
    c1 = 2 / (b - a)
    c2 = (a + b) / (a - b)

    def core(p):
        x = zeros(p, p)
        for i in range(p - 1):
            x[i + 1][i] = F1
        return x

    m = _conjugated(family, domain, n, core)
    for i in range(n):
        for j in range(n):
            m[i][j] *= c1
        m[i][i] += c2
    return m


def deriv_oracle(family: str, domain, n: int) -> list:
    """Differentiation in problem coordinates (equals c1 times reference)."""

    def core(p):
        d = zeros(p, p)
        for i in range(p - 1):
            d[i][i + 1] = Fraction(i + 1)
        return d

    return _conjugated(family, domain, n, core)


def integ_oracle(family: str, domain, n: int) -> list:
    """Antiderivative in problem coordinates, zero at the domain midpoint."""
    a, b = Fraction(domain[0]), Fraction(domain[1])
    mid = (a + b) / 2

    def core(p):
        o = zeros(p, p)
        for j in range(p - 1):
            o[j + 1][j] = Fraction(1, j + 1)
        for j in range(p):
            o[0][j] = -sum(o[k][j] * mid ** k for k in range(1, p))
        return o

    return _conjugated(family, domain, n, core)


def product_oracle(family: str, domain, a_coeffs, b_coeffs) -> list:
    """Coefficients of the product of two expansions, with no truncation."""
    pa = [Fraction(float(c)) for c in a_coeffs]
    pb = [Fraction(float(c)) for c in b_coeffs]
    size = len(pa) + len(pb) - 1
    v = basis_to_power(family, domain, size)
    w = power_to_basis(family, domain, size)

    def to_power(coeffs):
        out = [F0] * size
        for j, c in enumerate(coeffs):
            if c:
                for i in range(j + 1):
                    out[i] += v[i][j] * c
        return out

    xa, xb = to_power(pa), to_power(pb)
    conv = [F0] * size
    for i, ca in enumerate(xa):
        if ca:
            for j, cb in enumerate(xb):
                if cb and i + j < size:
                    conv[i + j] += ca * cb
    return [sum(w[i][k] * conv[k] for k in range(size)) for i in range(size)]


def eval_oracle(family: str, domain, coeffs, x) -> Fraction:
    """Exact value of an expansion at a rational point."""
    xq = Fraction(x)
    total = F0
    for j, c in enumerate(coeffs):
        cq = Fraction(float(c))
        if cq:
            val = F0
            for i, p in enumerate(shifted_power(family, j, domain)):
                val += p * xq ** i
            total += cq * val
    return total


def as_floats(mat: list) -> list:
    return [[float(x) for x in row] for row in mat]


def _times_x(family: str, k: int) -> tuple:
    """(a, c) with x P_k = a P_{k+1} + c P_{k-1} on [-1, 1], from the defining recurrence."""
    if family == "ChebyshevT":
        return (F1, F0) if k == 0 else (Fraction(1, 2), Fraction(1, 2))
    return Fraction(k + 1, 2 * k + 1), Fraction(k, 2 * k + 1)


def recurrence_product_oracle(family: str, a_coeffs, b_coeffs) -> list:
    """Coefficients of the product of two expansions, with no truncation.

    The same exact rationals as ``product_oracle``, computed without the
    power basis: p P_0, p P_1, ... follow from the defining recurrence,
    each from the two before it, and are summed with the weights of q.
    That is O(size^2) Fraction operations, so it reaches lengths where the
    power route is too slow.  The map to the reference interval is affine,
    so the domain does not enter.
    """
    pa = [Fraction(float(c)) for c in a_coeffs]
    pb = [Fraction(float(c)) for c in b_coeffs]
    size = len(pa) + len(pb) - 1
    prev, curr = [F0] * size, pa + [F0] * (len(pb) - 1)
    total = [F0] * size
    for j, weight in enumerate(pb):
        if weight:
            total = [t + weight * c for t, c in zip(total, curr)]
        if j + 1 == len(pb):
            break
        # p P_{j+1} = (x p P_j - c_j p P_{j-1}) / a_j
        xc = [F0] * size
        for k, c in enumerate(curr):
            if c:
                up, down = _times_x(family, k)
                xc[k + 1] += up * c
                if k:
                    xc[k - 1] += down * c
        up, down = _times_x(family, j)
        prev, curr = curr, [(x - down * p) / up for x, p in zip(xc, prev)]
    return total
