"""Dense O(size^2) reference sums the O(size) library paths are tested against.

Each builds full size x size arrays, so keep size to a few thousand.
"""

from __future__ import annotations

import math

import numpy as np

from momtrunc.operator import _square_array, momentum_array


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
