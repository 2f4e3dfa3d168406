"""Closed-form momentum matrix of a particle in a box, plus a quadrature oracle.

Basis: u_m(x) = sqrt(2/pi) sin(m x) on [0, pi], with 1-based labels m.  The
matrix of -i d/dx in this basis is purely imaginary, so everything is kept in
real arithmetic through "i-factored" storage: the stored real number a_mn
stands for the true entry i * a_mn.  With P = i A, A real antisymmetric, the
square P^2 = -A A is real symmetric, and truncated powers and spectra never
need complex numbers.

The scalar entries are computed in ``exact``, which loads no numpy; this
module builds their arrays.  The quadrature oracle integrates
<u_m| (-i d/dx)^k |u_n> numerically and is kept independent of the closed
forms it validates.
"""

import math
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .exact import (
    _check_cell,
    _check_index,
    _closed_form,
    momentum_entry,
    p2_exact_entry,
    p3_hermitian_entry,
    p3_naive_entry,
)

__all__ = _EXPORTS["operator"]


def _fsum(terms: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float array: its exactly rounded sum.

    A memoryview hands the values over as Python floats one at a time, so no
    list of all N values (32 bytes each) is ever built.
    """
    return math.fsum(memoryview(terms))


def _partners(m: int, size: int) -> np.ndarray:
    """Labels s = 1..size with m + s odd: the only ones where a_ms can be nonzero."""
    return np.arange(1 + m % 2, size + 1, 2.0)


def _w_block(p: int, q: int) -> np.ndarray:
    """Leading p x q block of W: odd labels 1..2p-1 against even labels 2..2q.

    In parity order the truncation is [[0, W], [-W^T, 0]], so W holds every
    nonzero entry.
    """
    m = np.arange(1.0, 2.0 * p, 2.0)
    n = np.arange(2.0, 2.0 * q + 1.0, 2.0)
    return _closed_form(m[:, None], n[None, :])


def momentum_array(size: int) -> np.ndarray:
    """Read-only i-factored array a_mn for 1 <= m, n <= size.

    Assembled from W, so it is antisymmetric to the last bit: negation is
    exact.
    """
    size = _check_index(size, "size")
    w = _w_block((size + 1) // 2, size // 2)
    a = np.zeros((size, size))
    a[0::2, 1::2] = w
    a[1::2, 0::2] = -w.T
    a.flags.writeable = False
    return a


_QUAD_PANELS = 1024
_QUAD_ORDER = 16
# Largest label the quadrature rule resolves to its stated accuracy.
_QUAD_MAX_LABEL = 2048


@lru_cache(maxsize=1)
def _quadrature_nodes() -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    edges = np.linspace(0.0, math.pi, _QUAD_PANELS + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (half[:, None] * nodes[None, :] + mid[:, None]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quadrature_entry(m: int, n: int, derivative_order: int) -> tuple[float, float]:
    """Numerical oracle for <u_m| (-i d/dx)^k |u_n>, k in {1, 2, 3}.

    sin(n x) is differentiated analytically, so the integrand is a smooth
    trigonometric product; a composite 16-point Gauss-Legendre rule on 1024
    panels (16384 nodes) then integrates it.  The error of each part grows
    with the labels like the entry does: it is at most 2.5e-13 max(m, n)^k
    for labels up to 2048 (the largest of about 5000 sampled pairs, most of
    them near 2048, is 1.8e-13).  Larger labels raise ValueError: the nodes
    stop resolving the integrand (6e-11 at 4096, 3e-10 at 5500).

    Returns ``(real_part, i_factored_part)``: the entry is
    ``real_part + i * i_factored_part``.  This path shares no code with the
    closed-form entry functions it is used to validate.
    """
    m, n, derivative_order = _check_cell(m, n, derivative_order, "derivative_order")
    if derivative_order > 3:
        raise ValueError(f"derivative_order must be 1, 2 or 3, got {derivative_order}")
    if max(m, n) > _QUAD_MAX_LABEL:
        raise ValueError(f"labels must be <= {_QUAD_MAX_LABEL}, got ({m}, {n})")
    x, w = _quadrature_nodes()
    k = derivative_order
    # d^k/dx^k sin(n x) = n^k sin(n x + k pi/2)
    derivative = float(n) ** k * np.sin(n * x + k * math.pi / 2.0)
    value = (-1j) ** k * (2.0 / math.pi) * np.dot(w, np.sin(m * x) * derivative)
    return float(value.real), float(value.imag)
