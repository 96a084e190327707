"""Hypergeometric Sobolev orthogonal polynomial families, verified exactly.

The package builds two families of polynomials from terminating
hypergeometric series -- a Laguerre-side family 2F2(-n, 1; q, r; x) and a
Jacobi-side family 3F2(-n, n-1+a+b, 1; a, c; x), plus multi-parameter
generalizations -- and checks the structure they carry: Sobolev
orthogonality under a lowering operator composed with a classical weight,
operator-pencil eigenfunction equations, third-order differential
equations, mixed five-polynomial recurrences, integral representations,
a large-parameter limit, and discriminant-based root classification.

Coefficients, inner products and recurrence residuals are exact rationals
throughout; floats appear only in the deliberately inexact cross-checks
(Gauss quadrature, root finding, float parameter paths).
"""

from . import analysis, diffop, exactnum, families, recurrence, sobolev
from .analysis import *
from .diffop import *
from .exactnum import *
from .families import *
from .recurrence import *
from .sobolev import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exactnum.__all__,
    *families.__all__,
    *diffop.__all__,
    *recurrence.__all__,
    *sobolev.__all__,
    *analysis.__all__,
]
