"""Dense O(size^2) references the fast library paths are tested against.

Each builds full size x size arrays, so keep size to a few thousand.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from momtrunc.operator import _square_array, _w_block, momentum_array
from momtrunc.spectra import eigen_symmetric


def _triple_terms(m: int, n: int, size: int) -> np.ndarray:
    a = momentum_array(size)
    # terms[r, s] = a_mr a_rs a_sn
    return a[m - 1][:, None] * (a * a[:, n - 1][None, :])


def dense_triple_product(m: int, n: int, size: int) -> float:
    """-(A^3)_mn over r, s <= size: each row r summed exactly, then the rows."""
    rows = [math.fsum(row.tolist()) for row in _triple_terms(m, n, size)]
    return -math.fsum(rows)


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
    square = _square_array(size)
    terms = square[m - 1] * square[:, n - 1]
    return math.fsum(terms.tolist()), math.fsum(np.abs(terms).tolist())


def svd_squares(p: int, q: int) -> np.ndarray:
    """Squared singular values of W(p, q), ascending, from LAPACK's SVD."""
    return np.linalg.svd(_w_block(p, q), compute_uv=False)[::-1] ** 2


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
    x = (2.0 * np.arange(1, q + 1) - 1.0) ** 2
    y = (2.0 * np.arange(1, q + 1)) ** 2
    off = ~np.eye(q, dtype=bool)
    alpha = np.prod((x[:, None] - y) / np.where(off, x[:, None] - x, 1.0), axis=1)
    beta = np.prod((x - y[:, None]) / np.where(off, y[:, None] - y, 1.0), axis=1)
    g = (-1) ** q * (math.pi / 4) * beta / np.sqrt(y)
    h = alpha / np.sqrt(x)
    return g[:, None] * h / (x - y[:, None])


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
    values = eigen_symmetric(_square_array(size)).eigenvalues
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
