"""Eigenvalue experiments on the truncated momentum matrix and its square.

The truncated matrix is antisymmetric in i-factored storage, so its true
(real) eigenvalues come in opposite pairs obtained from the square's
spectrum.  The square decouples into an odd-label and an even-label block;
squaring first and then deleting trailing rows and columns repairs the
spectrum toward the exact 1, 4, 9, ...

In parity order the truncation is ``A = [[0, W], [-W^T, 0]]`` with
``W = a[odd labels, even labels]``, so the square's odd block is ``W W^T``
and its even block ``W^T W``.  Every spectrum reported here is therefore a
union of squared singular values of leading blocks of ``W``
(:func:`singular_spectrum`); the dense eigensolve (:func:`eigen_symmetric`
on :func:`squared_momentum`) is kept as the independent reference.  The
opposite pairs and the zero mode at odd order are structural too, and W
has full rank by Cauchy's determinant formula, so :func:`spectrum_pairing`
computes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operator import TruncatedMatrix, _check_index, _square_array

__all__ = [
    "SpectrumReport",
    "PairingReport",
    "NearInteger",
    "eigen_symmetric",
    "singular_spectrum",
    "squared_momentum",
    "spectrum_pairing",
    "near_integer_check",
    "truncate_after_squaring",
    "repair_convergence",
    "dense_bytes",
]

_SYMMETRY_TOL = 1e-12
_RESIDUAL_TOL = 1e-8
# Relative gap below which adjacent eigenvalues share a degeneracy group.
_GROUPING_TOL = 1e-6
# Peak float64 arrays of ceil(N/2)^2 entries live during one block SVD: W,
# LAPACK's copy and workspace, the singular vectors and the residual
# temporaries (measured: about 9 at N = 2000..4000, above the interpreter's
# own ~30 MiB; 12 keeps a margin).
_BLOCK_ARRAYS = 12


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a symmetric matrix with degeneracy bookkeeping."""

    order: int
    eigenvalues: np.ndarray
    degeneracy_groups: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if len(self.eigenvalues) != self.order:
            raise ValueError("eigenvalue count must equal order")
        if sum(mult for _, mult in self.degeneracy_groups) != self.order:
            raise ValueError("degeneracy multiplicities must sum to order")


@dataclass(frozen=True)
class PairingReport:
    """Opposite-pair structure of the truncated matrix's eigenvalues.

    ``pair_count`` opposite pairs +/-sigma and ``zero_modes`` zero
    eigenvalues; ``ok`` when no violation was recorded.  From
    :func:`spectrum_pairing` the counts are proven, so there is no violation
    and ``max_pair_gap`` is 0.0; the sigma themselves come from
    :func:`near_integer_check`.
    """

    order: int
    pair_count: int
    zero_modes: int
    violations: tuple[str, ...]
    max_pair_gap: float

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class NearInteger:
    """A positive eigenvalue magnitude and its nearest reference integer."""

    magnitude: float
    reference: int
    error: float


def _as_array(matrix: TruncatedMatrix | np.ndarray) -> np.ndarray:
    if isinstance(matrix, TruncatedMatrix):
        return matrix.entries
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


def _degeneracy_groups(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or not _close(float(values[i]), float(values[i - 1]), tol):
            block = values[start:i]
            groups.append((float(block.mean()), len(block)))
            start = i
    return tuple(groups)


def eigen_symmetric(matrix: TruncatedMatrix | np.ndarray) -> SpectrumReport:
    """All eigenvalues of a dense real symmetric matrix, ascending.

    Backed by LAPACK's symmetric solver (numpy.linalg.eigh); the contract is
    the verified residual bound ||M v - lambda v|| <= 1e-8 ||M|| per pair,
    not the algorithm.  Raises ValueError if the input is asymmetric beyond
    1e-12 (relative to its largest entry).
    """
    mat = _as_array(matrix)
    scale = max(1.0, float(np.abs(mat).max()))
    asymmetry = float(np.abs(mat - mat.T).max())
    if asymmetry > _SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asymmetry:.3e}")
    values, vectors = np.linalg.eigh(mat)
    norm = max(abs(float(values[0])), abs(float(values[-1])), 1e-300)
    residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
    worst = float(residuals.max())
    if worst > _RESIDUAL_TOL * norm:
        raise ArithmeticError(
            f"eigensolve residual {worst:.3e} exceeds {_RESIDUAL_TOL:.0e} * ||M||"
        )
    return SpectrumReport(
        order=mat.shape[0],
        eigenvalues=values,
        degeneracy_groups=_degeneracy_groups(values, _GROUPING_TOL),
    )


def _w_block(p: int, q: int) -> np.ndarray:
    """Leading p x q block of W: odd labels 1..2p-1 against even labels 2..2q.

    Evaluated straight from the closed form a_mn (same expression, so the
    same bits, as the dense entry array), with no order-N array.
    """
    m = np.arange(1.0, 2.0 * p, 2.0)
    n = np.arange(2.0, 2.0 * q + 1.0, 2.0)
    return -4.0 * np.outer(m, n) / (math.pi * (m[:, None] ** 2 - n[None, :] ** 2))


@lru_cache(maxsize=8)
def _block_svd(p: int, q: int) -> tuple[np.ndarray, float, float]:
    """Squared singular values of W(p, q), ascending, with their residual.

    Returns ``(squares, worst, scale)``: ``worst`` is the largest two-sided
    residual max(||W v - sigma u||, ||W^T u - sigma v||) over the singular
    triples and ``scale`` is sigma_max.  For the symmetric matrix
    [[0, W], [W^T, 0]], whose eigenpairs are +/-sigma with eigenvectors
    (u, +/-v)/sqrt(2), this is the eigen-residual against its norm.  Only
    the O(p + q) result is cached; callers compare it with the tolerance.
    """
    if min(p, q) == 0:
        return np.zeros(0), 0.0, 1.0
    w = _w_block(p, q)
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    v = vt.T
    left = np.linalg.norm(w @ v - u * sigma, axis=0)
    right = np.linalg.norm(w.T @ u - v * sigma, axis=0)
    worst = float(max(left.max(), right.max()))
    squares = (sigma * sigma)[::-1].copy()
    squares.flags.writeable = False
    return squares, worst, max(float(sigma[0]), 1e-300)


def _block_squares(p: int, q: int) -> np.ndarray:
    """Verified squared singular values of W(p, q), ascending (read-only)."""
    squares, worst, scale = _block_svd(p, q)
    if worst > _RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"eigensolve residual {worst:.3e} exceeds {_RESIDUAL_TOL:.0e} * ||M||"
        )
    return squares


def _check_deleted_tail(build_order: int, deleted_tail: int) -> int:
    if (
        not isinstance(deleted_tail, (int, np.integer))
        or isinstance(deleted_tail, bool)
        or deleted_tail < 0
    ):
        raise ValueError(f"deleted_tail must be a nonnegative integer, got {deleted_tail!r}")
    if deleted_tail >= build_order:
        raise ValueError(
            f"deleted_tail must be < build_order ({build_order}), got {deleted_tail}"
        )
    return int(deleted_tail)


def singular_spectrum(order: int, deleted_tail: int = 0) -> np.ndarray:
    """Eigenvalues of the squared truncation, ascending, from blocks of W.

    The square of order N is built, then its ``deleted_tail`` = d trailing
    rows and columns are deleted, keeping K = N - d labels (d = 0 is the
    complete square).  Its odd block is W(ceil(K/2), floor(N/2)) times its
    transpose and its even block is W(ceil(N/2), floor(K/2))^T times itself,
    so the spectrum is the union of their squared singular values, each
    block padded with zeros to its order.  At d = 0 that is every sigma^2
    of W(ceil(N/2), floor(N/2)) twice, plus one zero at odd N.

    Values agree with ``eigen_symmetric(truncate_after_squaring(N, d))``
    to within a few times 1e-15 ||B||.  Every singular triple passes the residual
    check max(||W v - sigma u||, ||W^T u - sigma v||) <= 1e-8 sigma_max,
    otherwise ArithmeticError is raised.  No order-N array is built; the
    work is one SVD per distinct block, and the squared singular values of
    recent blocks are cached (O(N) each).
    """
    order = _check_index(order, "order")
    keep = order - _check_deleted_tail(order, deleted_tail)
    odd = _block_squares((keep + 1) // 2, order // 2)
    even = _block_squares((order + 1) // 2, keep // 2)
    zeros = np.zeros(keep - odd.size - even.size)
    return np.sort(np.concatenate([zeros, odd, even]))


def dense_bytes(sizes: list[int]) -> int:
    """Bytes the spectra at these orders may hold at once, estimated.

    One order is solved at a time and only O(N) values are cached, so the
    estimate is that of the largest order: ``_BLOCK_ARRAYS`` float64 arrays
    of ceil(N/2)^2 entries for the SVD of W and its residual check.
    Computed from the orders alone, before anything is allocated.
    """
    half = (max(sizes, default=0) + 1) // 2
    return _BLOCK_ARRAYS * 8 * half * half


def squared_momentum(size: int) -> TruncatedMatrix:
    """Square of the size-truncated momentum matrix (plain, symmetric, PSD)."""
    size = _check_index(size, "size")
    return TruncatedMatrix(order=size, entries=_square_array(size))


def spectrum_pairing(size: int) -> PairingReport:
    """Opposite-pair structure of the truncated matrix's eigenvalues.

    In parity order the truncation is [[0, W], [-W^T, 0]] with
    W = W(ceil(N/2), floor(N/2)), so its real eigenvalues are +/-sigma for
    the singular values sigma of W plus ceil(N/2) - floor(N/2) structural
    zeros: the pairs, and the doublets of the square, are structural and
    ``max_pair_gap`` is 0.0.  No sigma is zero either, because W has full
    column rank at every order.  Its entries are
    -4 m n / (pi (m^2 - n^2)) for odd m = 2i - 1 and even n = 2j, so
    W = -(4/pi) D_m C D_n with positive diagonal D_m, D_n and the Cauchy
    matrix C_ij = 1/(x_i - y_j), x_i = m^2, y_j = n^2.  By Cauchy's formula
    the leading q x q block of C has determinant

        prod_{i<j} (x_j - x_i)(y_i - y_j) / prod_{i,j} (x_i - y_j),

    which is nonzero: the x are distinct, the y are distinct, and every
    x_i - y_j is odd.  So every square leading block of W is nonsingular.
    The report therefore has ``pair_count`` = floor(N/2) pairs,
    ``zero_modes`` = N mod 2 (the one nondegenerate zero mode at odd
    order) and no violations, with no matrix built or factored.
    """
    size = _check_index(size, "size")
    return PairingReport(
        order=size,
        pair_count=size // 2,
        zero_modes=size % 2,
        violations=(),
        max_pair_gap=0.0,
    )


def _nearest_with_parity(x: float, odd: bool) -> int:
    if odd:
        return max(2 * round((x - 1.0) / 2.0) + 1, 1)
    return max(2 * round(x / 2.0), 0)


def near_integer_check(size: int) -> list[NearInteger]:
    """Distance of each eigenvalue magnitude from opposite-parity integers.

    The positive eigenvalue magnitudes of the truncation sit close to
    integers whose parity is opposite to that of the truncation order; the
    low-lying ones are within 0.01 for orders around 1000.  Returns one
    record per opposite pair +/-sigma, that is per singular value sigma of
    W(ceil(N/2), floor(N/2)) (see :func:`singular_spectrum`): floor(N/2)
    records, ascending in sigma.
    """
    size = _check_index(size, "size")
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    magnitudes = np.sqrt(_block_squares((size + 1) // 2, size // 2))
    odd_targets = size % 2 == 0
    records = []
    for magnitude in magnitudes.tolist():
        reference = _nearest_with_parity(magnitude, odd_targets)
        records.append(
            NearInteger(
                magnitude=magnitude,
                reference=reference,
                error=abs(magnitude - reference),
            )
        )
    return records


def truncate_after_squaring(build_order: int, deleted_tail: int) -> TruncatedMatrix:
    """Square the truncation first, then delete trailing rows and columns.

    ``deleted_tail`` rows and columns with the largest basis labels are
    removed from the squared matrix (labels in the original 1..build_order
    ordering).  With one deletion the surviving spectrum is nondegenerate
    and close to the exact squares 1, 4, 9, ...; more deletions improve the
    agreement further.
    """
    build_order = _check_index(build_order, "build_order")
    keep = build_order - _check_deleted_tail(build_order, deleted_tail)
    return TruncatedMatrix(order=keep, entries=_square_array(build_order)[:keep, :keep])


def repair_convergence(
    build_order: int, deleted_tails: list[int]
) -> list[tuple[int, float]]:
    """Accuracy of the delete-after-squaring repair for each deletion count.

    For each d the metric is the maximum relative error of the ten lowest
    eigenvalues of the repaired matrix against the exact values 1, 4, 9,
    ..., 100.  Empirically the metric does not increase with d; callers can
    verify that on the returned series.
    """
    build_order = _check_index(build_order, "build_order")
    if not deleted_tails:
        raise ValueError("deleted_tails must be nonempty")
    if max(deleted_tails) >= build_order:
        raise ValueError("every deleted_tail must be < build_order")
    if build_order - max(deleted_tails) < 10:
        raise ValueError("need at least 10 surviving rows to compare eigenvalues")
    exact = np.arange(1.0, 11.0) ** 2
    series = []
    for d in deleted_tails:
        lowest = singular_spectrum(build_order, d)[:10]
        series.append((int(d), float(np.max(np.abs(lowest - exact) / exact))))
    return series
