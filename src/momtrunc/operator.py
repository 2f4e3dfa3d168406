"""Closed-form momentum matrix of a particle in a box, plus a quadrature oracle.

Basis: u_m(x) = sqrt(2/pi) sin(m x) on [0, pi], with 1-based labels m.  The
matrix of -i d/dx in this basis is purely imaginary, so everything is kept in
real arithmetic through "i-factored" storage: the stored real number a_mn
stands for the true entry i * a_mn.  With P = i A, A real antisymmetric, the
square P^2 = -A A is real symmetric, and truncated powers and spectra never
need complex numbers.

The quadrature oracle integrates <u_m| (-i d/dx)^k |u_n> numerically and is
kept independent of the closed forms it validates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncatedMatrix",
    "momentum_entry",
    "momentum_row",
    "momentum_array",
    "quadrature_entry",
    "p2_exact_entry",
    "p3_naive_entry",
    "p3_hermitian_entry",
]


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """Dense real matrix truncated to basis labels 1..order.

    ``entries[i, j]`` holds the element for basis labels (i+1, j+1).
    Entries built by this package are read-only; copy before mutating.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        shape = self.entries.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise ValueError(f"entries must be square and nonempty, got shape {shape}")

    @property
    def order(self) -> int:
        return len(self.entries)


def _check_index(value: int, name: str = "index", least: int = 1) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


# Terms that _fsum converts to Python floats at a time.
_FSUM_CHUNK = 65536


def _fsum(terms: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float array: its exactly rounded sum.

    Values are handed over as Python floats one chunk at a time, so no list
    of all N values (32 bytes each) is ever built.
    """
    return math.fsum(
        itertools.chain.from_iterable(
            terms[start : start + _FSUM_CHUNK].tolist()
            for start in range(0, terms.size, _FSUM_CHUNK)
        )
    )


def _closed_form(m, n):
    """a_mn = -4 m n / (pi (m^2 - n^2)) for labels of opposite parity.

    Broadcasts over numpy arrays of labels.  Swapping the arguments negates
    only the denominator, which IEEE arithmetic performs exactly.
    """
    return -4.0 * m * n / (math.pi * (m * m - n * n))


def momentum_entry(m: int, n: int) -> float:
    """I-factored momentum matrix element a_mn (true entry is i * a_mn).

    a_mn = -4 m n / (pi (m^2 - n^2)) when m + n is odd, and 0 when m + n is
    even.  Swapping the arguments negates only the denominator, which IEEE
    arithmetic performs exactly, so a_mn == -a_nm to the last bit.
    """
    m = _check_index(m, "m")
    n = _check_index(n, "n")
    if (m + n) % 2 == 0:
        return 0.0
    return _closed_form(m, n)


def momentum_row(m: int, size: int) -> np.ndarray:
    """Vector of a_ms for s = 1..size, evaluated by the same closed form."""
    m = _check_index(m, "m")
    size = _check_index(size, "size")
    out = np.zeros(size)
    s = np.arange(1 + m % 2, size + 1, 2.0)  # labels of the other parity
    out[m % 2 :: 2] = _closed_form(m, s)
    return out


def _w_block(p: int, q: int) -> np.ndarray:
    """Leading p x q block of W: odd labels 1..2p-1 against even labels 2..2q.

    In parity order the truncation is [[0, W], [-W^T, 0]], so W holds every
    nonzero entry; every dense array here is assembled from it.
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


def _square_array(size: int) -> np.ndarray:
    """Read-only square of the truncated momentum matrix, -A A (symmetric, PSD).

    Built parity-block-wise from W: the odd block is W W^T and the even block
    is W^T W, because the even-odd block of A is exactly -W^T.  Gram products
    keep the square exactly symmetric and exactly zero on opposite-parity
    entries.

    Both blocks come from one W taken at the next even order and sliced: the
    extra even label does not extend the odd middle-index range, so the
    values are unchanged, while the BLAS product for the even block is run
    on identical inputs for adjacent orders.  Deleting the trailing row and
    column of an even-order square therefore reproduces the odd-order
    square's even block entrywise exactly, not merely to rounding.
    """
    half, q = (size + 1) // 2, size // 2
    w = _w_block(half, half)
    out = np.zeros((size, size))
    out[0::2, 0::2] = w[:, :q] @ w[:, :q].T
    out[1::2, 1::2] = (w.T @ w)[:q, :q]
    out.flags.writeable = False
    return out


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
    m = _check_index(m, "m")
    n = _check_index(n, "n")
    derivative_order = _check_index(derivative_order, "derivative_order")
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


def p2_exact_entry(m: int, n: int) -> float:
    """Entry of the exact operator square: m n on the diagonal, else 0."""
    m = _check_index(m, "m")
    n = _check_index(n, "n")
    return float(m * n) if m == n else 0.0


def p3_naive_entry(m: int, n: int) -> float:
    """I-factored entry of the termwise-differentiated cube: n^2 a_mn.

    This is what integrating u_m (-i d/dx)^3 u_n directly produces.  It is
    not Hermitian: swapping the labels rescales the value by m^2/n^2 instead
    of negating it.  The closed form is validated against quadrature_entry
    with derivative_order=3 in the test suite before anything relies on it.
    """
    m = _check_index(m, "m")
    n = _check_index(n, "n")
    return float(n * n) * momentum_entry(m, n)


def p3_hermitian_entry(m: int, n: int) -> float:
    """I-factored Hermitian part of the naive cube: (m^2 + n^2)/2 * a_mn.

    Equals the average of the two one-sided products of the matrix with its
    exact square, and is the limit the square-cutoff triple product is
    observed to converge to.
    """
    m = _check_index(m, "m")
    n = _check_index(n, "n")
    return 0.5 * float(m * m + n * n) * momentum_entry(m, n)
