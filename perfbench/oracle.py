"""Accuracy checks against references computed without tauspec.

Returned coefficients are evaluated with ``numpy.polynomial.Chebyshev`` or
``Legendre`` on the problem domain, never with ``tauspec.evaluate``, so a
defect in the package's own evaluation cannot hide a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Chebyshev, Legendre
from numpy.polynomial import polynomial as P

GRID_POINTS = 1001
# Largest relative max-error an operation may have and still count as correct.
TOLERANCE = 1e-10
DIGITS_CAP = 16.0

_SERIES = {"ChebyshevT": Chebyshev, "LegendreP": Legendre}

_BUILTIN = {
    "example1": {"y": lambda x: np.exp(-x)},
    "example2": {"y1": np.sinh, "y2": np.cosh},
    "exp-ode": {"y": np.exp},
    "volterra-exp": {"y": np.exp},
}


def reference(exact) -> dict:
    """Variable name -> exact solution as a vectorized callable.

    ``exact`` is a built-in problem name or ``{"power": [...]}`` holding the
    power coefficients of a polynomial solution in ``y``.
    """
    if isinstance(exact, str):
        return _BUILTIN[exact]
    coeffs = np.asarray(exact["power"], dtype=float)
    return {"y": lambda x: P.polyval(x, coeffs)}


def relative_error(family: str, domain, coefficients, exact) -> float:
    """Worst over the reference variables of max|approx - exact| / max|exact|.

    Both are sampled on a uniform grid of GRID_POINTS over the domain.
    """
    a, b = float(domain[0]), float(domain[1])
    grid = np.linspace(a, b, GRID_POINTS)
    series = _SERIES[family]
    worst = 0.0
    for var, f in reference(exact).items():
        approx = series(np.asarray(coefficients[var], dtype=float), domain=[a, b])(grid)
        values = f(grid)
        err = float(np.max(np.abs(approx - values)) / np.max(np.abs(values)))
        if not math.isfinite(err):
            return math.inf
        worst = max(worst, err)
    return worst


def digits(value: float) -> float:
    """-log10 of a nonnegative error, capped at DIGITS_CAP."""
    if value <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(value))


class Tally:
    """Operations attempted and failed, and the worst error and residual seen."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.worst_error = 0.0
        self.worst_residual = 0.0

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def check(self, label: str, error: float, residual: float) -> None:
        """Record a solution's error and residual; an error above TOLERANCE fails."""
        self.worst_error = max(self.worst_error, error)
        self.worst_residual = max(self.worst_residual, residual)
        if not error <= TOLERANCE:
            self.fail(label, f"relative error {error:.3e} above {TOLERANCE:g}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures,
                "worst_error": self.worst_error, "worst_residual": self.worst_residual}
