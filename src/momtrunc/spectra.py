"""Eigenvalue experiments on the truncated momentum matrix and its square.

The truncated matrix is antisymmetric in i-factored storage, so its true
(real) eigenvalues come in opposite pairs obtained from the square's
spectrum.  The square decouples into an odd-label and an even-label block;
squaring first and then deleting trailing rows and columns repairs the
spectrum toward the exact 1, 4, 9, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import Convention, TruncatedMatrix, _check_index, _square_array

__all__ = [
    "SpectrumReport",
    "PairingReport",
    "NearInteger",
    "eigen_symmetric",
    "squared_momentum",
    "spectrum_pairing",
    "near_integer_check",
    "parity_permutation",
    "parity_reorder",
    "parity_blocks",
    "truncate_after_squaring",
    "repair_convergence",
    "dense_bytes",
]

_SYMMETRY_TOL = 1e-12
_RESIDUAL_TOL = 1e-8
# Fraction of the largest eigenvalue below which an eigenvalue of the
# (positive semidefinite) square counts as an exact zero mode.
_ZERO_FRACTION = 1e-8
# Peak float64 arrays of order N live during one dense spectrum: the cached
# entry arrays and square, the eigenvectors and the residual temporaries
# (measured: about 6 at even N, 7 at odd N with a deletion, above the
# interpreter's own ~30 MiB).
_ARRAYS_PER_SIZE = 8


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
    """Opposite-pair structure of the truncated matrix's eigenvalues."""

    order: int
    magnitudes: tuple[float, ...]
    zero_modes: int
    violations: tuple[str, ...]
    max_pair_gap: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def pair_count(self) -> int:
        return len(self.magnitudes)


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


def eigen_symmetric(
    matrix: TruncatedMatrix | np.ndarray, *, grouping_tol: float = 1e-6
) -> SpectrumReport:
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
        degeneracy_groups=_degeneracy_groups(values, grouping_tol),
    )


def dense_bytes(sizes: list[int]) -> int:
    """Bytes the dense spectra at these orders may hold at once, estimated.

    Cached arrays of every order stay alive, so the estimate sums over the
    orders.  Computed from the orders alone, before anything is allocated.
    """
    return sum(_ARRAYS_PER_SIZE * 8 * size * size for size in sizes)


def squared_momentum(size: int) -> TruncatedMatrix:
    """Square of the size-truncated momentum matrix (plain, symmetric, PSD)."""
    size = _check_index(size, "size")
    return TruncatedMatrix(
        order=size, entries=_square_array(size), convention=Convention.PLAIN
    )


def spectrum_pairing(size: int, tol: float = 1e-6) -> PairingReport:
    """Opposite-pair check for the truncated matrix's eigenvalues.

    The real eigenvalues of the truncation are +/-sqrt of the square's
    eigenvalues.  Each positive magnitude must occur as a doublet of the
    square; a nondegenerate zero mode must appear exactly when the order is
    odd.  Failures are recorded as violations in the report, not raised.
    """
    size = _check_index(size, "size")
    values = eigen_symmetric(_square_array(size)).eigenvalues
    violations: list[str] = []
    zero_cut = _ZERO_FRACTION * max(float(values[-1]), 1.0)
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
    magnitudes = []
    max_gap = 0.0
    for i in range(0, len(rest), 2):
        lo, hi = float(rest[i]), float(rest[i + 1])
        gap = abs(hi - lo) / max(abs(lo), abs(hi), 1e-300)
        max_gap = max(max_gap, gap)
        if not _close(lo, hi, tol):
            violations.append(f"unpaired eigenvalues {lo!r} and {hi!r}")
        magnitudes.append(math.sqrt(0.5 * (lo + hi)))
    return PairingReport(
        order=size,
        magnitudes=tuple(magnitudes),
        zero_modes=zero_modes,
        violations=tuple(violations),
        max_pair_gap=max_gap,
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
    record per distinct positive magnitude, ascending.
    """
    size = _check_index(size, "size")
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    report = eigen_symmetric(_square_array(size))
    zero_cut = _ZERO_FRACTION * max(float(report.eigenvalues[-1]), 1.0)
    odd_targets = size % 2 == 0
    records = []
    for value, _ in report.degeneracy_groups:
        if value <= zero_cut:
            continue
        magnitude = math.sqrt(value)
        reference = _nearest_with_parity(magnitude, odd_targets)
        records.append(
            NearInteger(
                magnitude=magnitude,
                reference=reference,
                error=abs(magnitude - reference),
            )
        )
    return records


def parity_permutation(order: int) -> np.ndarray:
    """0-based permutation listing odd basis labels first, then even."""
    order = _check_index(order, "order")
    return np.concatenate([np.arange(0, order, 2), np.arange(1, order, 2)])


def parity_reorder(matrix: TruncatedMatrix) -> TruncatedMatrix:
    """Similarity transform by the odd-labels-first permutation.

    For the square of a truncation the result is exactly block diagonal:
    entries coupling opposite parities vanish identically.
    """
    perm = parity_permutation(matrix.order)
    return TruncatedMatrix(
        order=matrix.order,
        entries=matrix.entries[np.ix_(perm, perm)],
        convention=matrix.convention,
    )


def parity_blocks(matrix: TruncatedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The (odd-labels, even-labels) diagonal blocks of a matrix."""
    odd = np.arange(0, matrix.order, 2)
    even = np.arange(1, matrix.order, 2)
    return (
        matrix.entries[np.ix_(odd, odd)],
        matrix.entries[np.ix_(even, even)],
    )


def truncate_after_squaring(build_order: int, deleted_tail: int) -> TruncatedMatrix:
    """Square the truncation first, then delete trailing rows and columns.

    ``deleted_tail`` rows and columns with the largest basis labels are
    removed from the squared matrix (labels in the original 1..build_order
    ordering).  With one deletion the surviving spectrum is nondegenerate
    and close to the exact squares 1, 4, 9, ...; more deletions improve the
    agreement further.
    """
    build_order = _check_index(build_order, "build_order")
    if not isinstance(deleted_tail, (int, np.integer)) or deleted_tail < 0:
        raise ValueError(f"deleted_tail must be a nonnegative integer, got {deleted_tail!r}")
    if deleted_tail >= build_order:
        raise ValueError(
            f"deleted_tail must be < build_order ({build_order}), got {deleted_tail}"
        )
    keep = build_order - int(deleted_tail)
    return TruncatedMatrix(
        order=keep,
        entries=_square_array(build_order)[:keep, :keep],
        convention=Convention.PLAIN,
    )


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
        repaired = truncate_after_squaring(build_order, d)
        lowest = eigen_symmetric(repaired).eigenvalues[:10]
        series.append((int(d), float(np.max(np.abs(lowest - exact) / exact))))
    return series
