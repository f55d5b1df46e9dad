"""Spectral solver for systems of integro-differential equations.

Linear and nonlinear problems with polynomial coefficients and kernels
are discretized in a shifted orthogonal basis (Chebyshev or Legendre)
by operational recurrences, closed into a square coefficient system by
the point conditions, and solved directly or by Newton sweeps.
"""

from . import basis, errors, operators, problem, solver
from .basis import *
from .errors import *
from .operators import *
from .problem import *
from .solver import *

__version__ = "0.1.0"

__all__ = [*basis.__all__, *errors.__all__, *operators.__all__, *problem.__all__,
           *solver.__all__]
