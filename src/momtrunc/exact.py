"""The scalar closed forms, which need no matrix and load no numpy.

The entries of the momentum matrix and of its exact square and cube, the
two one-sided products with the exact square, the opposite-pair structure
of the truncation's spectrum, which Cauchy's determinant formula proves,
the checks of the (m, n, size) cells each truncated sum is defined on, and
the CLI's two size limits.  ``assoc`` and ``spectrum-pairs`` run on this
module alone, and ``cli`` takes both limits and every cell check from it, so
no refused cell loads numpy; ``operator``, ``products`` and ``spectra``
export its names as their own.
"""

import math
import numbers
from typing import NamedTuple

# Peak float64 arrays of ceil(N/2)^2 entries live while one block is factored:
# five while eigh runs, the Gram matrix, eigh's copy of it, its workspace (two
# arrays' worth) and the eigenvectors, W being let go until eigh returns,
# and four after it (measured for table2 with delete-tail 3: 5.6 at N = 2000
# and 5.3 at N = 4000, above the interpreter's own ~30 MiB; 12 keeps a
# margin).  Blocks derived from it add only spectra._ROWS x ceil(N/2) work
# arrays.
_BLOCK_ARRAYS = 12
# Memory limit of one factorization, checked before anything is allocated:
# order N factors W(ceil(N/2), floor(N/2)), so table2's max_size is twice the
# largest ceil(N/2) whose _BLOCK_ARRAYS arrays of ceil(N/2)^2 float64 fit it.
_MAX_DENSE_BYTES = 4 * 2**30
_MAX_FACTORED_ORDER = 2 * math.isqrt(_MAX_DENSE_BYTES // (8 * _BLOCK_ARRAYS))


def _check_index(value: int, name: str = "index", least: int = 1) -> int:
    # numpy registers its integer types as numbers.Integral.
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _check_cell(m: int, n: int, size: int, name: str = "size") -> tuple[int, int, int]:
    """Labels m, n and the cutoff (called ``name``), each an integer >= 1."""
    return _check_index(m, "m"), _check_index(n, "n"), _check_index(size, name)


def _check_labels(m: int, n: int, size: int) -> tuple[int, int, int]:
    """A square-cutoff cell: the cutoff holds both labels."""
    m, n, size = _check_cell(m, n, size)
    if size < max(m, n):
        raise ValueError(f"size must be >= max(m, n) = {max(m, n)}, got {size}")
    return m, n, size


def _check_middle_sum(m: int, n: int, s_max: int) -> tuple[int, int, int]:
    """A middle-index cell: m + n even, so m and n have the same partners s."""
    m, n, s_max = _check_cell(m, n, s_max, "s_max")
    if (m + n) % 2 == 1:
        raise ValueError(f"m + n must be even, got m={m}, n={n}")
    return m, n, s_max


def _check_boundary(m: int, n: int, size: int) -> tuple[int, int, int]:
    """A boundary-tail cell: odd m, even n, even size >= 10 (m + n)."""
    m, n, size = _check_cell(m, n, size)
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    if n % 2 == 1:
        raise ValueError(f"n must be even, got {n}")
    if size % 2 == 1:
        raise ValueError(f"size must be even, got {size}")
    if size < 10 * (m + n):
        raise ValueError(f"size must be >= 10 * (m + n) = {10 * (m + n)}, got {size}")
    return m, n, size


# Largest pair label, and the largest size every command but table2 accepts:
# up to it m^2 <= 2^52 is exact in float64, so every closed-form evaluation
# of a_mn agrees bit for bit.
_MAX_LABEL = 2**26


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
    entry = momentum_entry(m, n)
    return float(int(n) ** 2) * entry


def p3_hermitian_entry(m: int, n: int) -> float:
    """I-factored Hermitian part of the naive cube: (m^2 + n^2)/2 * a_mn.

    Equals the average of the two one-sided products of the matrix with its
    exact square, and is the limit the square-cutoff triple product is
    observed to converge to.
    """
    entry = momentum_entry(m, n)
    return 0.5 * float(int(m) ** 2 + int(n) ** 2) * entry


def associativity_gap(m: int, n: int) -> tuple[float, float]:
    """Both one-sided products with the exact square, i-factored.

    The exact square is diagonal, so each infinite sum collapses to a single
    term: multiplying by the square on the right gives n^2 a_mn, on the left
    m^2 a_mn.  For m + n odd the two sides differ by the factor n^2/m^2 --
    the associative law fails for the infinite matrices.  For m + n even
    both sides vanish.
    """
    entry = momentum_entry(m, n)
    return (float(int(n) ** 2) * entry, float(int(m) ** 2) * entry)


class PairingReport(NamedTuple):
    """Opposite-pair structure of the truncated matrix's eigenvalues.

    ``pair_count`` opposite pairs +/-sigma and ``zero_modes`` zero
    eigenvalues among ``order``; ``ok`` when the counts account for every
    eigenvalue.  From :func:`spectrum_pairing` the counts are proven; the
    sigma themselves come from :func:`spectra.near_integer_check`.
    """

    order: int
    pair_count: int
    zero_modes: int

    @property
    def ok(self) -> bool:
        return 2 * self.pair_count + self.zero_modes == self.order


def spectrum_pairing(size: int) -> PairingReport:
    """Opposite-pair structure of the truncated matrix's eigenvalues.

    In parity order the truncation is [[0, W], [-W^T, 0]] with
    W = W(ceil(N/2), floor(N/2)), so its real eigenvalues are +/-sigma for
    the singular values sigma of W plus ceil(N/2) - floor(N/2) structural
    zeros: the pairs, and the doublets of the square, are structural.  No
    sigma is zero either, because W has full column rank at every order.
    Its entries are
    -4 m n / (pi (m^2 - n^2)) for odd m = 2i - 1 and even n = 2j, so
    W = -(4/pi) D_m C D_n with positive diagonal D_m, D_n and the Cauchy
    matrix C_ij = 1/(x_i - y_j), x_i = m^2, y_j = n^2.  By Cauchy's formula
    the leading q x q block of C has determinant

        prod_{i<j} (x_j - x_i)(y_i - y_j) / prod_{i,j} (x_i - y_j),

    which is nonzero: the x are distinct, the y are distinct, and every
    x_i - y_j is odd.  So every square leading block of W is nonsingular.
    The report therefore has ``pair_count`` = floor(N/2) pairs and
    ``zero_modes`` = N mod 2 (the one nondegenerate zero mode at odd
    order), with no matrix built or factored.
    """
    size = _check_index(size, "size")
    return PairingReport(size, size // 2, size % 2)
