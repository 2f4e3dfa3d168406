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

from .operator import (
    TruncatedMatrix,
    momentum_array,
    momentum_entry,
    momentum_row,
    p2_exact_entry,
    p3_hermitian_entry,
    p3_naive_entry,
    quadrature_entry,
)
from .products import (
    associativity_gap,
    p2_partial_sum,
    pp2p_partial_sum,
    quad_power_entry,
    triple_product_sum,
)
from .spectra import (
    NearInteger,
    PairingReport,
    SpectrumReport,
    eigen_symmetric,
    near_integer_check,
    repair_convergence,
    singular_spectrum,
    spectrum_pairing,
    squared_momentum,
    truncate_after_squaring,
)
from .tails import (
    TailEstimate,
    boundary_contribution,
    tail_approximation,
    tail_approximation_parts,
    tail_estimate,
    telescoping_closed_form,
    telescoping_sum,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedMatrix",
    "momentum_array",
    "momentum_entry",
    "momentum_row",
    "p2_exact_entry",
    "p3_hermitian_entry",
    "p3_naive_entry",
    "quadrature_entry",
    "associativity_gap",
    "p2_partial_sum",
    "pp2p_partial_sum",
    "quad_power_entry",
    "triple_product_sum",
    "NearInteger",
    "PairingReport",
    "SpectrumReport",
    "eigen_symmetric",
    "near_integer_check",
    "repair_convergence",
    "singular_spectrum",
    "spectrum_pairing",
    "squared_momentum",
    "truncate_after_squaring",
    "TailEstimate",
    "boundary_contribution",
    "tail_approximation",
    "tail_approximation_parts",
    "tail_estimate",
    "telescoping_closed_form",
    "telescoping_sum",
    "__version__",
]
