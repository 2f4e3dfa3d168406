"""Slower references the fast library paths are tested against.

Each builds full size x size arrays, so keep size to a few thousand, except
lowest_squares, whose memory is O(size).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from momtrunc.operator import _w_block, momentum_array
from momtrunc.spectra import eigen_symmetric, squared_momentum


def _triple_terms(m: int, n: int, size: int) -> np.ndarray:
    a = momentum_array(size)
    # terms[r, s] = a_mr a_rs a_sn
    return a[m - 1][:, None] * (a * a[:, n - 1][None, :])


def dense_triple_product(m: int, n: int, size: int) -> tuple[float, float]:
    """-(A^3)_mn over r, s <= size, each term rounded once, summed exactly.

    With a_ij = -4 i j / (pi (i^2 - j^2)) the nonzero terms are

        64 m n / pi^3 * r^2 s^2 / ((m^2 - r^2) (r^2 - s^2) (s^2 - n^2)),

    r of parity opposite to m and s opposite to n.  Numerator and
    denominator are integers below 2^53 for size <= 450, so each quotient is
    correctly rounded; the product of three rounded entries would carry a
    few ulps per term, which cancellation can lift above 1e-12 of the sum.

    Also returns the sum of the absolute terms, sum_{r,s} |a_mr a_rs a_sn|,
    the scale of the rounding error any evaluation from rounded terms
    carries, this one and the closed form alike.
    """
    if (m + n) % 2 == 0:
        return -0.0, 0.0
    if size > 450:
        raise ValueError("integer terms are exact in float only for size <= 450")
    r = np.arange(1 + m % 2, size + 1, 2, dtype=np.int64) ** 2
    s = np.arange(1 + n % 2, size + 1, 2, dtype=np.int64) ** 2
    quotients = (r[:, None] * s) / ((m * m - r)[:, None] * (r[:, None] - s) * (s - n * n))
    prefactor = 64.0 * m * n / math.pi**3
    return (
        prefactor * math.fsum(quotients.ravel().tolist()),
        prefactor * math.fsum(np.abs(quotients).ravel().tolist()),
    )


def plain_triple_product(m: int, n: int, size: int) -> float:
    """The same double sum by plain left-to-right accumulation, r then s."""
    total = 0.0
    for row in _triple_terms(m, n, size):
        row_total = 0.0
        for term in row.tolist():
            row_total += term
        total += row_total
    return -total


def dense_fourth_power_entry(m: int, n: int, size: int) -> tuple[float, float]:
    """(B B)[m, n] of the dense truncated square B = -A A, summed exactly.

    Also returns the sum of the absolute products, the scale of the rounding
    error both this and a closed-form evaluation carry.
    """
    square = squared_momentum(size)
    terms = square[m - 1] * square[:, n - 1]
    return math.fsum(terms.tolist()), math.fsum(np.abs(terms).tolist())


def svd_squares(p: int, q: int) -> np.ndarray:
    """Squared singular values of W(p, q), ascending, from LAPACK's SVD."""
    return np.linalg.svd(_w_block(p, q), compute_uv=False)[::-1] ** 2


# Rows of W(q, q)^-1 built at a time, so that its oracles take O(q) memory.
_SLAB = 512
# Vectors lowest_squares iterates on: the 25th lowest sigma, near 49, sets
# how fast the tenth, near 19, converges.
_BLOCK = 24


def _cauchy_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """prod_k (a_i - b_k) / prod_(k != i) (a_i - a_k) for each i, one ratio per k.

    Taken in ``np.longdouble`` and rounded once: in float64 the q roundings
    leave 5e-15 relative at q = 500 and 1e-14 at q = 1000, which moves the
    lowest singular values as much (Eisenstat and Ipsen, SIAM J. Numer.
    Anal. 32, 1995), while x86-64's 64-bit significand keeps 3e-16.
    """
    a, b = a.astype(np.longdouble), b.astype(np.longdouble)
    out = np.empty(a.size)
    for start in range(0, a.size, _SLAB):
        rows = slice(start, start + _SLAB)
        apart = a[rows, None] - a
        own = np.arange(len(apart))
        apart[own, start + own] = 1.0
        out[rows] = np.prod((a[rows, None] - b) / apart, axis=1)
    return out


def _inverse_factors(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x, y, g and h of :func:`w_inverse`, in O(q) memory.

    alpha is the Cauchy product of x over y, and (-1)^q beta that of y over
    x, whose factor (-1)^q cancels the one in g.
    """
    x = (2.0 * np.arange(1, q + 1) - 1.0) ** 2
    y = (2.0 * np.arange(1, q + 1)) ** 2
    g = (math.pi / 4) * _cauchy_products(y, x) / np.sqrt(y)
    h = _cauchy_products(x, y) / np.sqrt(x)
    return x, y, g, h


def w_inverse(q: int) -> np.ndarray:
    """W(q, q)^-1 in closed form, from the inverse of its Cauchy matrix.

    W = -(4/pi) D_m C D_n with C_ij = 1/(x_i - y_j), x_i = (2i - 1)^2 and
    y_j = (2j)^2, so W^-1_ij = g_i h_j / (x_j - y_i) with h_j = alpha_j /
    sqrt(x_j), alpha_j = prod_k (x_j - y_k) / prod_(k != j) (x_j - x_k), and
    g_i = (-1)^q (pi/4) beta_i / sqrt(y_i), beta_i = prod_k (x_k - y_i) /
    prod_(k != i) (y_i - y_k) (Schechter, MTAC 13, 1959).  Every factor is
    a product of ratios of exact integers, so each entry has a small
    relative error, and the largest singular values of W^-1 give the
    smallest of W independently of any eigensolve of W.
    """
    x, y, g, h = _inverse_factors(q)
    return g[:, None] * h / (x - y[:, None])


def lowest_squares(order: int, count: int) -> np.ndarray:
    """The ``count`` lowest squared singular values of W(ceil(N/2), floor(N/2)).

    For N = ``order`` = 2q the block W(q, q) is square, and the largest
    singular values of W^-1 (:func:`w_inverse`) are the reciprocals of its
    lowest.  For N = 2q + 1 the block W(q + 1, q) is F = W(q + 1, q + 1)
    less its last column.  Its Gram is the leading block of F^T F, so the
    Gram's inverse is the Schur complement Z Z^T - Z e e^T Z^T = (Z P)(Z P)^T,
    for Z the first q rows of F^-1, e its last row normalized and
    P = I - e e^T: the largest singular values of Z P are the reciprocals
    of the lowest of W(q + 1, q).  (At even N, Z = F^-1 and P = I.)

    Block subspace iteration finds them with no eigensolve of W: ``_BLOCK``
    vectors V, kept orthogonal to e, Z applied ``_SLAB`` rows at a time in
    O(N) memory.  The lowest sigma of W lie near the integers of parity
    opposite to N, so with ``count`` 10 the slowest value converges by about
    (20/50)^4, 1/40, per step.  Iteration stops one step after no singular
    value of Z V moved by more than 1e-13 relative: 11 steps at even and 12
    at odd N from 60 to 6000.  The values are then the Rayleigh quotients of the Ritz vectors,
    taken in ``np.longdouble``: the float64 SVD of Z V is off by up to
    eps ||Z P|| / sigma_k, which left 6e-15 at N = 1999, and x86-64's
    64-bit significand leaves about 4e-16.
    """
    q, n = order // 2, (order + 1) // 2
    block = min(_BLOCK, q)
    if not 0 < count <= block:
        raise ValueError(f"need 0 < count <= min({_BLOCK}, floor(N / 2))")
    x, y, g, h = _inverse_factors(n)

    def z_slabs(dtype):  # Z, _SLAB rows at a time
        for first in range(0, q, _SLAB):
            rows = slice(first, min(first + _SLAB, q))
            yield rows, g[rows, None].astype(dtype) * h / (x - y[rows, None])

    # e, none at even N, in long double: P's rounding would move sigma_k too.
    wide_e = g[q:, None].astype(np.longdouble) * h / (x - y[q:, None])
    wide_e /= np.sqrt((wide_e * wide_e).sum(axis=1, keepdims=True))
    e = wide_e.astype(float)
    start = np.random.default_rng(0).standard_normal((n, block))
    basis = np.linalg.qr(start - e.T @ (e @ start))[0]
    image, previous, settled = np.empty((q, block)), np.zeros(count), False
    for _ in range(100):
        back = np.zeros((n, block))
        for rows, slab in z_slabs(float):
            image[rows] = slab @ basis
            back += slab.T @ image[rows]
        _, sigma, turn = np.linalg.svd(image, full_matrices=False)
        sigma = sigma[:count]
        if settled:
            break
        settled = bool(np.all(np.abs(sigma - previous) <= 1e-13 * sigma))
        previous = sigma
        basis = np.linalg.qr(back - e.T @ (e @ back))[0]
    else:
        raise ArithmeticError(f"lowest_squares({order}, {count}) did not converge")
    ritz = (basis @ turn[:count].T).astype(np.longdouble)
    ritz -= wide_e.T @ (wide_e @ ritz)
    images = np.zeros(count, dtype=np.longdouble)
    for _, slab in z_slabs(np.longdouble):
        images += ((slab @ ritz) ** 2).sum(axis=0)
    return ((ritz * ritz).sum(axis=0) / images).astype(float)


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


class DensePairing(NamedTuple):
    pair_count: int
    zero_modes: int
    violations: tuple[str, ...]
    max_pair_gap: float

    @property
    def ok(self) -> bool:
        return not self.violations


def dense_pairing(size: int, tol: float = 1e-6) -> DensePairing:
    """Opposite-pair check from a dense eigensolve of the order-size square.

    Eigenvalues at or below 1e-8 of the largest count as zero modes; the
    rest must pair up as doublets within ``tol`` relative.
    """
    values = eigen_symmetric(squared_momentum(size)).eigenvalues
    violations: list[str] = []
    zero_cut = 1e-8 * max(float(values[-1]), 1.0)
    zero_modes = int(np.count_nonzero(values <= zero_cut))
    expected_zeros = 1 if size % 2 == 1 else 0
    if zero_modes != expected_zeros:
        violations.append(
            f"expected {expected_zeros} zero mode(s) for order {size}, found {zero_modes}"
        )
    rest = values[zero_modes:]
    if len(rest) % 2 == 1:
        violations.append("nonzero eigenvalues do not split into pairs")
        rest = rest[:-1]
    max_gap = 0.0
    for i in range(0, len(rest), 2):
        lo, hi = float(rest[i]), float(rest[i + 1])
        gap = abs(hi - lo) / max(abs(lo), abs(hi), 1e-300)
        max_gap = max(max_gap, gap)
        if not _close(lo, hi, tol):
            violations.append(f"unpaired eigenvalues {lo!r} and {hi!r}")
    return DensePairing(len(rest) // 2, zero_modes, tuple(violations), max_gap)
