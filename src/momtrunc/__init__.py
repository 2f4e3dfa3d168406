"""Truncation experiments on the momentum matrix of a particle in a box.

The momentum operator on [0, pi] with vanishing boundary values has a
Hermitian matrix in the sine basis whose square is exactly diagonal, yet
whose cube is ill defined: the defining double sums are only conditionally
convergent, and the associative law fails.  This package builds the matrix
in closed form, exposes the finite-truncation phenomena (oscillatory
convergence of the triple product, divergent fourth power, eigenvalue
doubling and near-integer drift of the truncated square, the
delete-after-squaring repair), and verifies the boundary-tail cancellation
that makes the triple product converge.  A CLI (``momtrunc``) emits every
experiment as a CSV or JSON report.
"""

from . import operator, products, spectra, tails
from .operator import *
from .products import *
from .spectra import *
from .tails import *

__version__ = "0.1.0"

__all__ = [
    *operator.__all__,
    *products.__all__,
    *spectra.__all__,
    *tails.__all__,
    "__version__",
]
