"""Finite truncations of momentum-matrix products.

The square-cutoff triple product converges (delicately) while the direct
middle-index expansion of P P^2 P and the fourth power of the truncated
matrix diverge; the operations here expose both behaviours with fixed,
reproducible summation orders.

Sign bookkeeping: with P = i A the cube is P^3 = -i A^3, so the real number
reported for a triple product is -(A^3)_mn, and the square is P^2 = -A A.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .exact import _check_cell, _check_labels, _check_middle_sum
from .exact import _closed_form, associativity_gap
from .operator import _fsum, _partners

__all__ = [
    "triple_product_sum",
    "p2_partial_sum",
    "associativity_gap",
    "pp2p_partial_sum",
    "quad_power_entry",
]


# Chunk length of the prefix sums behind a square column: each chunk is a
# plain running sum on top of an exactly rounded offset.
_PREFIX_CHUNK = 1024


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Running sums ``out[k] = terms[0] + ... + terms[k - 1]``, ``out[0] = 0``.

    Inside a chunk the sums are a plain ``np.cumsum``; each chunk starts from
    the exactly rounded sum of every earlier term, carried as a (hi, lo)
    pair refreshed by ``math.fsum`` over the chunk's memoryview (no list is
    built), so rounding error does not build up across chunks.
    """
    out = np.zeros(terms.size + 1)
    hi = lo = 0.0
    for start in range(0, terms.size, _PREFIX_CHUNK):
        chunk = terms[start : start + _PREFIX_CHUNK]
        out[start + 1 : start + 1 + chunk.size] = hi + np.cumsum(chunk)
        total = math.fsum(chain((hi, lo), memoryview(chunk)))
        lo = math.fsum(chain((hi, lo, -total), memoryview(chunk)))
        hi = total
    return out


def _square_columns(size: int, *labels: int) -> list[np.ndarray]:
    """Columns n of the truncated square B = -A A on their nonzero rows, in O(size).

    The labels n share one parity, and so the prefix sums below.  Column n's
    nonzero rows are the labels r <= size with r + n even, ascending from
    2 - n % 2; on the others B_rn is exactly zero.  With middle labels s of
    parity opposite to n, up to the largest such s_N <= size, partial
    fractions give for r != n

        B_rn = 16 r n / (pi^2 (n^2 - r^2)) * [r^2 S(r) - n^2 S(n)],
        S(x) = sum_s 1/(x^2 - s^2) = (D(x) - [x odd]/x) / (2x),

    where D(x) sums 1/k over odd k in (s_N - x, s_N + x].  Stepping x by one
    adds exactly one positive term to D, so D is a prefix sum; the [x odd]
    terms cancel between r and n.  The diagonal B_nn = sum_s a_ns^2 is summed
    directly.
    """
    parity = labels[0] % 2
    s_top = size if (size + parity) % 2 == 1 else size - 1
    # Step x adds 1/k with k the odd one of s_top + 1 - x and s_top + x.
    steps = np.arange(1.0, size + 1.0)
    below = slice((s_top + 1) % 2, None, 2)
    steps[below] = s_top + 1.0 - steps[below]
    steps[s_top % 2 :: 2] += s_top
    d = _prefix_sums(np.reciprocal(steps, out=steps))  # d[x] = D(x)
    del steps  # peak memory stays at a few columns
    r = np.arange(2 - parity, size + 1, 2.0)
    with np.errstate(invalid="ignore"):  # 0/0 at r = n, replaced below
        columns = [
            8.0 * r * n * (r * d[2 - parity :: 2] - n * d[n])
            / (math.pi**2 * (n * n - r * r))
            for n in labels
        ]
    del d, r  # before the diagonal's partners are built
    for n, column in zip(labels, columns):
        column[(n - 1) // 2] = _fsum(_closed_form(n, _partners(n, size)) ** 2)
    return columns


def triple_product_sum(m: int, n: int, size: int) -> float:
    """Square-cutoff triple product T = -(A^3)_mn summed over r, s = 1..size.

    This is the real number conventionally reported for the i-factored cube
    (the remaining factor of the stored matrices is i^3 = -i).  Summing the
    middle label s first,

        T = -sum_{r,s<=size} a_mr a_rs a_sn = sum_r a_mr B_rn,
        B_rn = -sum_{s<=size} a_rs a_sn,

    with column n of the truncated square B taken in closed form (see
    :func:`_square_columns`), in O(size) time and memory, so sizes up to
    about 10^7 are practical.  Each s-sum is a prefix sum of reciprocals of
    odd integers taken outward from the cutoff, with exactly rounded chunk
    offsets; the r-sum is one exactly rounded ``math.fsum``.  Rounding
    leaves a few eps times sum_r |a_mr B_rn|, large beside T only where the
    r-sum cancels: at (m, n, N) = (252, 183, 253) that is 1.35e6 |T|, and
    T = -0.326 is 2.5e-10 off, its 6 printed digits intact.  For m + n even
    every product pairs labels of opposite parity and the result is -0.0.

    For m + n odd the error alternates in sign with the size N:

        T(N) - (m^2 + n^2)/2 a_mn
            = (-1)^(N+m) (8 m n / pi^3) (ln 4N + gamma) / N + O(ln N / N^2),

    with gamma Euler's constant; (ln 4N + gamma) / 2 is the asymptotic sum
    of 1/k over odd k <= 2N, from the prefix sums of the square's column.
    The tests pin it for N from 10^4 to 10^6 + 1.
    """
    m, n, size = _check_labels(m, n, size)
    if (m + n) % 2 == 0:
        return -0.0
    # The rows where column n is nonzero are the partners of m.
    (column,) = _square_columns(size, n)
    return _fsum(_closed_form(m, _partners(m, size)) * column)


def p2_partial_sum(m: int, n: int, size: int) -> float:
    """Partial sum of the square's entry: -sum_{s<=size} a_ms a_sn.

    Converges to m n on the diagonal and to 0 off it, with error O(1/size).
    Terms ascend in s and are summed exactly (math.fsum).
    """
    m, n, size = _check_cell(m, n, size)
    if (m + n) % 2 == 1:
        return 0.0  # every term a_ms a_ns is exactly zero
    # a_sn = -a_ns, so -a_ms a_sn = a_ms a_ns.
    s = _partners(m, size)
    return _fsum(_closed_form(m, s) * _closed_form(n, s))


def pp2p_partial_sum(m: int, n: int, s_max: int) -> float:
    """Partial sum of the middle-index expansion of P P^2 P.

    Value: -16 m n / pi^2 * sum_s s^4 / ((m^2 - s^2)(s^2 - n^2)) over s of
    parity opposite to m and n, s <= s_max.  Each summand tends to -1 as s
    grows, so the partial sums diverge linearly in s_max.  Requires m + n
    even (for odd m + n the expansion has no common middle parity).
    """
    m, n, s_max = _check_middle_sum(m, n, s_max)
    s = _partners(m, s_max)
    if s.size == 0:
        return 0.0
    terms = s**4 / ((m * m - s**2) * (s**2 - n * n))
    return -16.0 * m * n / math.pi**2 * _fsum(terms)


def quad_power_entry(m: int, n: int, size: int) -> float:
    """Entry (m, n) of the fourth power of the size-truncated matrix.

    With B = -A A truncated at ``size``, the entry is

        (A^4)_mn = (B B)_mn = sum_{s<=size} B_sm B_sn,

    the dot product of two closed-form columns of B (:func:`_square_columns`)
    summed by one exactly rounded ``math.fsum``, in O(size) time and memory.
    Rounding leaves a few eps times sum_s |B_sm B_sn|, large beside the
    entry only where that sum cancels.  Unlike the exact fourth power, whose
    entries are m^2 n^2 on the diagonal and 0 elsewhere, this diverges as
    the truncation grows: the middle sum picks up contributions from s of
    the order of the truncation size.  For m + n even the entry grows
    linearly, entry / N -> 8 m n / (3 pi^2), with a gap that alternates in
    sign with N and is O(ln^2 N / N), not O(ln N / N): N gap / ln N keeps
    growing, as the tests pin for N from 10^4 to 10^6 + 1.  Odd m + n give 0.0.
    """
    m, n, size = _check_labels(m, n, size)
    if (m + n) % 2 == 1:
        return 0.0
    columns = _square_columns(size, *{m, n})  # one column when m == n
    return _fsum(columns[0] * columns[-1])


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log10 ys against log10 xs: a divergence's rate.

    In closed form, fsum(du dv) / fsum(du^2) with u, v the logs less their
    means; every sum is exactly rounded, so the slope is within about one
    rounding of the exact fit of the rounded logs.
    """
    u = [math.log10(x) for x in xs]
    v = [math.log10(y) for y in ys]
    u_mean, v_mean = math.fsum(u) / len(u), math.fsum(v) / len(v)
    du = [x - u_mean for x in u]
    numerator = math.fsum(d * (y - v_mean) for d, y in zip(du, v))
    return numerator / math.fsum(d * d for d in du)
