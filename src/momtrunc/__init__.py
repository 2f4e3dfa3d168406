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

Importing the package loads no numpy.  A submodule loads when it is first
looked up, and a public name loads only the module that defines it, so the
closed forms of ``exact`` load no numpy; ``momtrunc.cli`` loads, for each
command, only the module it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The one list of public names: each of operator, products, spectra and
# tails takes its row as its __all__, and __all__ below keeps this order.
_EXPORTS = {
    "operator": ["momentum_entry", "momentum_array", "quadrature_entry",
                 "p2_exact_entry", "p3_naive_entry", "p3_hermitian_entry"],
    "products": ["triple_product_sum", "p2_partial_sum", "associativity_gap",
                 "pp2p_partial_sum", "quad_power_entry"],
    "spectra": ["SpectrumReport", "PairingReport", "NearInteger", "eigen_symmetric",
                "singular_spectra", "squared_momentum", "spectrum_pairing",
                "near_integer_check", "truncate_after_squaring"],
    "tails": ["boundary_contribution", "tail_approximation", "tail_approximation_parts",
              "telescoping_sum", "telescoping_closed_form", "TailEstimate",
              "tail_estimate"],
}
__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    # ``from . import products`` asks for the attribute first: load it alone.
    if name in (*_EXPORTS, "exact", "cli"):
        return import_module(f"{__name__}.{name}")
    for submodule, names in _EXPORTS.items():
        if name in names:
            module = import_module(f"{__name__}.exact")  # a name it defines: no numpy
            if not hasattr(module, name):
                module = import_module(f"{__name__}.{submodule}")
            return globals().setdefault(name, getattr(module, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
