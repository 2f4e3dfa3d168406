"""Tail cancellation at the boundary of the square summation cutoff.

The last column and last row of the cutoff window contribute two sums to the
triple product whose terms are individually of order 1/size; the sums grow
logarithmically on their own but cancel jointly, leaving a contribution of
order log(size)/size^2.  That cancellation is what lets the square-cutoff
triple product converge at all, and the functions here let it be measured.
"""

from typing import NamedTuple

from . import _EXPORTS
from .exact import _check_boundary, _check_index
from .operator import _fsum, _partners

__all__ = _EXPORTS["tails"]


def boundary_contribution(m: int, n: int, size: int) -> float:
    """Exact boundary contribution to the square-cutoff triple product.

    For odd m, even n and even cutoff ``size``, this evaluates the bracketed
    contribution of the last column (r = size) and last row (s = size - 1)
    of the cutoff window, without the common prefactor 64 i m n / pi^3:

        size^2/(m^2 - size^2) * sum_{s odd, 1..size-1} s^2/((size^2 - s^2)(s^2 - n^2))
      + (size-1)^2/((size-1)^2 - n^2) * sum_{r even, 2..size-2} r^2/((m^2 - r^2)(r^2 - (size-1)^2))

    The second sum stops at r = size - 2 so the corner element is not
    counted twice.  Scales as O(log(size) / size^2): size^2 times it tends
    to (log(4 size) + gamma - 1)/4, gamma being Euler's constant.  Requires
    size >= 10 (m + n) so the asymptotic regime applies.
    """
    m, n, size = _check_boundary(m, n, size)
    big = float(size)
    s = _partners(n, size - 1)
    first = (
        big**2
        / (m * m - big**2)
        * _fsum(s**2 / ((big**2 - s**2) * (s**2 - n * n)))
    )
    edge = big - 1.0
    r = _partners(m, size - 2)
    second = (
        edge**2
        / (edge**2 - n * n)
        * _fsum(r**2 / ((m * m - r**2) * (r**2 - edge**2)))
    )
    return first + second


def tail_approximation_parts(size: int, k_max: int) -> tuple[float, float]:
    """The two near-boundary sums approximating the boundary contribution.

    Writing r = size - 2k and s = size - 1 - 2k and dropping the m^2, n^2
    terms turns the boundary contribution into

        -sum_{k=0}^{k_max-1} 1/((2k+1)(2 size - 2k - 1))
        +sum_{k=1}^{k_max}   1/((2k-1)(2 size - 2k - 1)),

    each sum taking the same number of boundary-adjacent terms.  Both sums
    individually grow like log(k_max)/(2 size); their combination does not.
    Returns ``(column_part, row_part)`` whose sum is
    :func:`tail_approximation`.  Requires k_max <= size // 10 so both
    indices stay close to the boundary.
    """
    size = _check_index(size, "size")
    k_max = _check_index(k_max, "k_max")
    if size % 2 == 1:
        raise ValueError(f"size must be even, got {size}")
    if k_max > size // 10:
        raise ValueError(f"k_max must be <= size // 10 = {size // 10}, got {k_max}")
    j = _partners(2, 2 * k_max - 1)
    column = -_fsum(1.0 / (j * (2.0 * size - j)))
    row = _fsum(1.0 / (j * (2.0 * size - 2.0 - j)))
    return column, row


def tail_approximation(size: int, k_max: int) -> float:
    """Combined near-boundary approximation (sum of the two parts)."""
    column, row = tail_approximation_parts(size, k_max)
    return column + row


def telescoping_sum(k_max: int) -> float:
    """Partial sum sum_{k=0}^{k_max} 1/(4 k^2 - 1).

    Telescopes to -1/2 - 1/(2 (2 k_max + 1)); the shifted quantity
    1/2 + telescoping_sum(k_max) therefore vanishes at exactly that rate,
    which is what makes the scaled near-boundary combination vanish.
    """
    k_max = _check_index(k_max, "k_max", least=0)
    j = _partners(2, 2 * k_max + 1)
    return _fsum(1.0 / ((j - 2.0) * j))


def telescoping_closed_form(k_max: int) -> float:
    """Closed form of :func:`telescoping_sum`."""
    k_max = _check_index(k_max, "k_max", least=0)
    return -0.5 - 0.5 / (2.0 * k_max + 1.0)


class TailEstimate(NamedTuple):
    """Boundary contribution with its two approximants, taken to ``k_max``."""

    k_max: int
    exact: float
    near_boundary: float
    telescoped: float


def tail_estimate(m: int, n: int, size: int) -> TailEstimate:
    """Exact boundary contribution alongside both approximation stages.

    ``near_boundary`` drops the m^2, n^2 terms (:func:`tail_approximation`),
    ``telescoped`` additionally freezes the slowly varying denominator:
    (1/2 + telescoping_sum(k_max)) / size.  Both take the largest k_max
    :func:`tail_approximation` accepts, size // 10, which is reported.
    """
    size = _check_index(size, "size")
    k_max = size // 10
    return TailEstimate(
        k_max=k_max,
        exact=boundary_contribution(m, n, size),
        near_boundary=tail_approximation(size, k_max),
        telescoped=(0.5 + telescoping_sum(k_max)) / size,
    )
