"""Dense O(size^2) references the fast library paths are tested against.

Each builds full size x size arrays, so keep size to a few thousand.
"""

from __future__ import annotations

import math

import numpy as np

from momtrunc.operator import _square_array, _w_block, momentum_array
from momtrunc.spectra import PairingReport, eigen_symmetric


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


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


def dense_pairing(size: int, tol: float = 1e-6) -> PairingReport:
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
    return PairingReport(
        order=size,
        pair_count=len(rest) // 2,
        zero_modes=zero_modes,
        violations=tuple(violations),
        max_pair_gap=max_gap,
    )
