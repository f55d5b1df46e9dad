"""Seeded inputs for the three benchmark workloads.

Every workload is a list of operations drawn from ``--seed`` with
``numpy.random.default_rng``.  The program only ever sees the resulting
problem documents (or CLI argument lists); the exact solutions that go
with them are computed here with numpy alone, never with tauspec.

Working sizes come in mirrored pairs ``c - d`` and ``c + d`` with the
offset ``d`` drawn from the seed.  The cost of a solve grows like a power
of n, so a single draw from the band would move the pass time by tens of
percent from one seed to the next; the pair cancels that to first order
while each seed still gives different inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

# The problem documents the package ships, read without importing it.
PROBLEMS = Path(__file__).resolve().parents[1] / "src" / "tauspec" / "problems"

WORKLOADS = ("newton-cheb", "linear-manufactured", "cli-cold")

# Centre and largest offset of each mirrored size pair.
NEWTON_EXAMPLE1 = (56, 8)        # n in [48, 64]
NEWTON_EXAMPLE2 = (28, 4)        # n in [24, 32]
LINEAR_SIZE = (128, 8)           # n in [120, 136]
CLI_LEGENDRE = (40, 4)           # n in [36, 44]

CLI_BUILTINS = ("example1", "example2", "exp-ode", "volterra-exp")

# Manufactured problems: y'' + p1(x) y' + p0(x) y + Volterra + Fredholm = f.
EXACT_DEGREE = 8
COEFF_DEGREE = 2
KERNEL_DEGREE = 2


def _pair(rng, centre_offset) -> tuple[int, int]:
    centre, offset = centre_offset
    d = int(rng.integers(0, offset + 1))
    return centre - d, centre + d


def shipped_document(name: str, n: int) -> dict:
    """A problem document shipped with the package, read as JSON, at size n."""
    doc = json.loads((PROBLEMS / f"{name}.json").read_text())
    doc["solve"]["n"] = n
    return doc


def _random_kernel(rng) -> list:
    """Power matrix k[i][j] of x^i t^j with total degree at most KERNEL_DEGREE."""
    k = np.zeros((KERNEL_DEGREE + 1, KERNEL_DEGREE + 1))
    for i in range(KERNEL_DEGREE + 1):
        for j in range(KERNEL_DEGREE + 1 - i):
            k[i, j] = rng.uniform(-0.5, 0.5)
    return k.tolist()


def _monomial(k: int) -> np.ndarray:
    return np.eye(k + 1)[k]


def _volterra_image(kernel, u) -> np.ndarray:
    """Power coefficients of x -> integral_0^x K(x, t) u(t) dt."""
    out = np.zeros(1)
    for i, row in enumerate(kernel):
        for j, kij in enumerate(row):
            if kij == 0.0:
                continue
            prim = P.polyint(P.polymul(_monomial(j), u), lbnd=0.0)
            out = P.polyadd(out, kij * P.polymul(_monomial(i), prim))
    return out


def _fredholm_image(kernel, u, length: float) -> np.ndarray:
    """Power coefficients of x -> integral_0^L K(x, t) u(t) dt."""
    out = np.zeros(len(kernel))
    for i, row in enumerate(kernel):
        for j, kij in enumerate(row):
            if kij == 0.0:
                continue
            prim = P.polyint(P.polymul(_monomial(j), u), lbnd=0.0)
            out[i] += kij * P.polyval(length, prim)
    return out


def manufactured_problem(rng, family: str, n: int) -> tuple[dict, np.ndarray]:
    """One seeded linear problem and the power coefficients of its exact solution.

    The solution is a degree-8 polynomial in x / L on the domain [0, L],
    scaled so that the right-hand side has max-norm 1 there; the right-hand
    side follows from the solution by exact polynomial algebra.
    """
    length = float(rng.uniform(0.5, 1.5))
    scaled = rng.uniform(-1.0, 1.0, EXACT_DEGREE + 1)
    scaled[0] = rng.uniform(1.0, 2.0)
    u = scaled / length ** np.arange(EXACT_DEGREE + 1)
    p1 = rng.uniform(-1.0, 1.0, COEFF_DEGREE + 1)
    p0 = rng.uniform(-1.0, 1.0, COEFF_DEGREE + 1)
    kv = _random_kernel(rng)
    kf = _random_kernel(rng)

    def apply(u):
        """Power coefficients of the left-hand side applied to u."""
        out = P.polyder(u, 2)
        out = P.polyadd(out, P.polymul(p1, P.polyder(u)))
        out = P.polyadd(out, P.polymul(p0, u))
        out = P.polyadd(out, _volterra_image(kv, u))
        return P.polyadd(out, _fredholm_image(kf, u, length))

    # The equation is linear, so scaling u scales f. Scaling to max |f| = 1
    # on the domain makes the absolute residual the solver reports a share
    # of |f|, comparable from seed to seed.
    grid = np.linspace(0.0, length, 1001)
    u = u / np.max(np.abs(P.polyval(grid, apply(u))))
    rhs = apply(u)
    doc = {
        "name": "manufactured",
        "basis": {"family": family, "domain": [0.0, length]},
        "variables": ["y"],
        "equations": [{
            "terms": [
                {"var": "y", "deriv": 2},
                {"var": "y", "deriv": 1, "coeff": {"basis": "power", "coeffs": p1.tolist()}},
                {"var": "y", "coeff": {"basis": "power", "coeffs": p0.tolist()}},
                {"var": "y", "volterra": {"kernel": kv, "lower": 0.0}},
                {"var": "y", "fredholm": {"kernel": kf}},
            ],
            "rhs": {"basis": "power", "coeffs": rhs.tolist()},
        }],
        "conditions": [
            {"terms": [{"var": "y", "point": 0.0}], "value": float(u[0])},
            {"terms": [{"var": "y", "point": 0.0, "deriv": 1}], "value": float(u[1])},
        ],
        "solve": {"n": n},
    }
    return doc, u


def inproc_operations(workload: str, seed: int) -> list[dict]:
    """Solve list of an in-process workload: each item is {label, doc, exact}.

    ``exact`` names the reference: a built-in solution name, or
    ``{"power": [...]}`` with the power coefficients of a polynomial.
    """
    rng = np.random.default_rng(seed)
    ops = []
    if workload == "newton-cheb":
        for n in _pair(rng, NEWTON_EXAMPLE1):
            ops.append({"label": f"example1 n={n}", "doc": shipped_document("example1", n),
                        "exact": "example1"})
        for n in _pair(rng, NEWTON_EXAMPLE2):
            ops.append({"label": f"example2 n={n}", "doc": shipped_document("example2", n),
                        "exact": "example2"})
    elif workload == "linear-manufactured":
        # One problem per family; the two families cost about the same per
        # solve, so they share one mirrored pair and the seed picks who gets
        # the larger size.
        sizes = _pair(rng, LINEAR_SIZE)
        if rng.integers(0, 2):
            sizes = sizes[::-1]
        for family, n in zip(("ChebyshevT", "LegendreP"), sizes):
            doc, u = manufactured_problem(rng, family, n)
            ops.append({"label": f"manufactured {family} n={n}", "doc": doc,
                        "exact": {"power": u.tolist()}})
    else:
        raise ValueError(f"not an in-process workload: {workload!r}")
    return ops


def cli_operations(seed: int) -> list[dict]:
    """Argument lists of one cli-cold pass: each item is {label, argv, exact}."""
    rng = np.random.default_rng(seed)
    ops = [{"label": name, "argv": ["solve", name], "exact": name}
           for name in CLI_BUILTINS]
    for n in _pair(rng, CLI_LEGENDRE):
        ops.append({"label": f"example1 legendre n={n}",
                    "argv": ["solve", "example1", "--basis", "legendre", "--n", str(n)],
                    "exact": "example1"})
    return ops
