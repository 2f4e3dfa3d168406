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
(:func:`singular_spectra`).  A block is factored by one eigensolve of its
half-size Gram matrix, with Rayleigh quotients as values and its last rows
corrected to first order, and residual-checked.  Within one call, the
largest block's factorization serves every block within two deleted
trailing rows or columns of it, whose values are the roots of secular
equations in those last rows (Cauchy interlacing); nothing is kept between
calls.  The dense eigensolve (:func:`eigen_symmetric` on
:func:`squared_momentum`, whose blocks are Gram products of the same W) is
kept as the independent reference.  The opposite pairs and the zero mode
at odd order are structural too, and W has full rank by Cauchy's
determinant formula, so :func:`spectrum_pairing` computes nothing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exact import PairingReport, _check_index, spectrum_pairing
from .operator import _w_block

__all__ = [
    "SpectrumReport",
    "PairingReport",
    "NearInteger",
    "eigen_symmetric",
    "singular_spectra",
    "squared_momentum",
    "spectrum_pairing",
    "near_integer_check",
    "truncate_after_squaring",
]

_SYMMETRY_TOL = 1e-12
_RESIDUAL_TOL = 1e-8
# Relative gap below which adjacent eigenvalues share a degeneracy group.
_GROUPING_TOL = 1e-6


class SpectrumReport(NamedTuple):
    """Eigenvalues of a symmetric matrix with degeneracy bookkeeping."""

    eigenvalues: np.ndarray
    degeneracy_groups: tuple[tuple[float, int], ...]


class NearInteger(NamedTuple):
    """A positive eigenvalue magnitude and its nearest reference integer."""

    magnitude: float
    reference: int
    error: float


def _as_array(matrix: np.typing.ArrayLike) -> np.ndarray:
    arr = np.asarray(matrix).astype(float, casting="same_kind", copy=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix has entries that are not finite")
    return arr


def _degeneracy_groups(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
    # Split where adjacent values are not close, so that a NaN splits too.
    close = np.abs(np.diff(values)) <= tol * np.maximum(
        np.abs(values[1:]), np.abs(values[:-1])
    )
    blocks = np.split(values, np.flatnonzero(~close) + 1)
    return tuple((float(block.mean()), len(block)) for block in blocks)


def _check_residual(residual: np.ndarray, norm: float) -> None:
    """Raise ArithmeticError unless every column of ``residual`` is within tolerance.

    A column is one eigenpair's residual; its norm must be at most the
    tolerance times ``norm`` (||M||).  Fails closed: a NaN residual or ||M||
    is not within it.
    """
    worst = float(np.sqrt(np.einsum("ij,ij->j", residual, residual).max()))
    if not worst <= _RESIDUAL_TOL * norm:
        raise ArithmeticError(
            f"eigensolve residual {worst:.3e} exceeds {_RESIDUAL_TOL:.0e}"
            f" * ||M|| = {norm:.3e}"
        )


def eigen_symmetric(matrix: np.typing.ArrayLike) -> SpectrumReport:
    """All eigenvalues of a dense real symmetric matrix (any array-like), ascending.

    Backed by LAPACK's symmetric solver (numpy.linalg.eigh); the contract is
    the verified residual bound ||M v - lambda v|| <= 1e-8 ||M|| per pair,
    not the algorithm.  Both checks run on M divided by the power of two at
    or below its largest |entry|, exact and keeping every product finite.
    Raises TypeError if an entry is not real, ValueError if M is asymmetric
    beyond 1e-12 of that power, empty, not square or not finite, and
    ArithmeticError if an eigenvalue overflows once scaled back.
    """
    mat = _as_array(matrix)
    unit = math.ldexp(1.0, math.frexp(float(np.abs(mat).max()))[1] - 1)
    mat = mat / unit
    asymmetry = float(np.abs(mat - mat.T).max())
    if not asymmetry <= _SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: asymmetry {asymmetry * unit:.3e}")
    values, vectors = np.linalg.eigh(mat)
    _check_residual(mat @ vectors - vectors * values, float(np.abs(values).max()))
    with np.errstate(over="ignore"):  # refused below
        values *= unit
    if not np.isfinite(values).all():
        raise ArithmeticError("an eigenvalue overflows: it is not finite")
    return SpectrumReport(values, _degeneracy_groups(values, _GROUPING_TOL))


# Rows of every (rows x ceil(N/2)) work array: rows of R = M / (lambda_i -
# lambda_j) formed at a time, so that no gap matrix is built, and roots of a
# secular equation solved together.  A root's last bit depends on it only
# through BLAS's matrix-vector kernel, which takes rows in small groups (four
# with OpenBLAS on x86-64): every multiple of the group gives the same bits.
_ROWS = 64
# The cap on model steps per secular root (4 to 6 are typical).
_MAX_STEPS = 40
# Trailing rows of U and V (W = U diag(sigma) V^T) kept per factored block:
# derived blocks lie within this many deleted rows or columns of it.
_TAIL_ROWS = 2
_EPS = float(np.finfo(float).eps)


class _Factored(NamedTuple):
    """What :func:`_factor_block` leaves behind of W(p, q), all O(p + q).

    ``squares`` are the squared singular values, ascending.  ``columns`` and
    ``rows`` describe W^T W = V diag(poles) V^T and W W^T = U diag(poles) U^T
    (zeros first, then ``squares``) as (poles, the last ``_TAIL_ROWS`` rows of
    V or U with their columns in the same order), corrected to first order.
    """

    squares: np.ndarray
    columns: tuple[np.ndarray, np.ndarray]
    rows: tuple[np.ndarray, np.ndarray]


def _factor_block(p: int, q: int) -> _Factored:
    """Squared singular values of W(p, q), ascending, residual-checked.

    T is W, or W^T when p > q, so that ``eigh`` of T^T T, of order max(p, q),
    gives the basis B of the longer side, its |p - q| null vectors first.
    Its eigenvalues are off by about eps ||W||^2, so each value is reported as
    the Rayleigh quotient lambda_i = M_ii of M = X^T X, X = T B, whose error
    is second order in B's (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    If B is the true basis rotated by I + A, M_ij = (lambda_i - lambda_j) A_ij,
    so R_ij = M_ij / (lambda_i - lambda_j) corrects the kept tail rows to
    first order: B's to B - B R, the other side's to (X - X R) / sigma.

    Raises ArithmeticError when the largest residual ||T^T u - sigma b||,
    u = T b / sigma, exceeds the tolerance times sigma_max: the eigen-residual
    of [[0, W], [W^T, 0]], whose other side ||T b - sigma u|| is zero here.

    T is not held while ``eigh`` runs, which reads only the Gram; it is built
    again afterwards, bit for bit.  Then R is formed ``_ROWS`` rows at a time
    and X and B are rescaled in place, so at most four block arrays live.
    """
    if min(p, q) == 0:
        empty = (np.zeros(0), np.zeros((0, 0)))
        return _Factored(np.zeros(0), empty, empty)
    null = abs(p - q)
    basis = np.linalg.eigh(_gram(p, q))[1]
    t = _oriented_block(p, q)
    x = t @ basis
    m = x.T @ x  # from X, not the Gram: rounding eps ||W|| (sigma_i + sigma_j)
    quotients = m.diagonal().copy()
    squares, sigma = quotients[null:], np.sqrt(quotients[null:])
    for start in range(0, len(m), _ROWS):  # R, in place
        gap = quotients[start : start + _ROWS, None] - quotients
        # The null block's rotation is free, and so is each vector's own.
        gap[: max(null - start, 0), :null] = np.inf
        gap.ravel()[start :: len(m) + 1] = np.inf  # at (i, start + i)
        m[start : start + _ROWS] /= gap
        del gap  # before the next slab's is built
    tails = (basis[-_TAIL_ROWS:], x[-_TAIL_ROWS:])
    long_tail, short_tail = (tail - tail @ m for tail in tails)
    del m
    long_side = (np.concatenate([np.zeros(null), squares]), long_tail)
    short_side = (squares, short_tail[:, null:] / sigma)
    x[:, null:] /= sigma  # U, with the tail rows taken
    basis[:, null:] *= sigma
    back = t.T @ x[:, null:]
    back -= basis[:, null:]
    _check_residual(back, float(sigma[-1]))
    sides = (long_side, short_side) if p <= q else (short_side, long_side)
    return _Factored(squares, *sides)


def _oriented_block(p: int, q: int) -> np.ndarray:
    """T of :func:`_factor_block`: W(p, q), or W(p, q)^T when p > q."""
    return _w_block(p, q) if p <= q else _w_block(p, q).T


def _gram(p: int, q: int) -> np.ndarray:
    """T^T T, with T let go on return: the eigensolve needs only the Gram."""
    t = _oriented_block(p, q)
    return t.T @ t


@np.errstate(divide="ignore", invalid="ignore")  # a bad root fails its bracket
def _derived_squares(
    side: tuple[np.ndarray, np.ndarray], depth: int
) -> list[np.ndarray]:
    """Squared singular values of W(P, Q) less 1 to ``depth`` trailing columns.

    ``side`` is the ``columns`` of a factored W(P, Q), or its ``rows`` to
    delete trailing rows instead; ``depth`` is at most ``_TAIL_ROWS``.  One
    array per deletion is returned, each derived once from the one before.

    Deleting the trailing column of W deletes the trailing row and column of
    W^T W = V diag(poles) V^T, whose remaining eigenvalues are the roots of
    sum_i v_i^2 / (poles_i - mu) = 0 for the last row v of V, one between
    each pair of adjacent poles (Cauchy interlacing; Golub, "Some modified
    matrix eigenvalue problems", SIAM Rev. 15, 1973).  Rows are deleted the
    same way from W W^T = U diag(poles) U^T, whose pole at zero (when W has
    one row more than columns) carries the null vector's weight.  At each
    further deletion the new eigenvectors are the Cauchy-like vectors
    (diag(poles) - mu_k)^-1 v, normalized, which give the next row's weights
    in O(n^2) without forming an eigenvector matrix.
    """
    poles, tail = side
    tail = tail[len(tail) - depth :]
    derived = []
    while len(tail):
        origin, tau, _, tail = _secular_roots(poles, tail[-1], tail[:-1])
        poles = origin + tau
        derived.append(poles)
    return derived


def _reciprocals(shifted: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """1 / (shifted - tau), row by row, for poles shifted to each root's origin."""
    r = shifted - tau[:, None]
    return np.reciprocal(r, out=r)


def _secular_roots(
    poles: np.ndarray, last: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of f(mu) = sum_i weights_i / (poles_i - mu), one per pole gap.

    ``weights`` are ``last**2``, for ``last`` the row being deleted and
    ``tail`` the rows kept above it.  ``poles`` ascend strictly and the
    weights are positive, so f rises from -inf to +inf between adjacent
    poles and each gap holds one root.  A root is kept in shifted
    coordinates mu = origin + tau, with origin the end of its gap nearer to
    it (the sign of f at the gap's midpoint says which), so that
    poles_i - mu = (poles_i - origin) - tau keeps its relative accuracy
    however close mu is to a pole.  tau is found by Li's "middle way"
    (SIAM J. Sci. Comput. 1994): f's parts left and right of mu are each
    modelled by one pole at the gap's end and a constant, matching value and
    slope, and the model's root is the next iterate; a step leaving the
    bracket of iterates where f was found negative and positive bisects
    instead.  Iteration stops when the step is at rounding level or |f| is
    below 8 eps sum_i |weights_i / (poles_i - mu)|.

    Returns (origin, tau, radius, rotated): both ends tau -/+ radius lie
    inside the gap, and f evaluated there is negative and positive by more
    than the bound on its rounding error, so f changes sign between them in
    exact arithmetic too.  radius starts where f's slope should carry it
    past that bound and widens 16-fold where it does not.  Raises
    ArithmeticError when no such bracket is found.  ``rotated`` holds the
    rows of ``tail`` in the eigenbasis left after the deletion, whose vector
    for root mu_k is (diag(poles) - mu_k)^-1 last, normalized, with
    poles_i - mu_k taken in the root's shifted coordinates.
    """
    count = poles.size - 1
    weights = last * last
    origin, tau, radius = np.empty(count), np.empty(count), np.empty(count)
    rotated = np.empty((len(tail), count))
    # Bound on |computed f - f| over sum_i |weights_i / (poles_i - mu)|: a
    # few roundings per term, then a sum of poles.size terms in any order.
    rounding = (poles.size + 8) * _EPS
    for start in range(0, count, _ROWS):
        k = slice(start, min(start + _ROWS, count))
        left, right = poles[k], poles[k.start + 1 : k.stop + 1]
        gap = right - left
        near_left = _reciprocals(poles - left[:, None], gap / 2) @ weights >= 0
        origin[k] = np.where(near_left, left, right)
        shifted = poles - origin[k, None]
        # Gap ends in shifted coordinates; the root lies in the half at 0.
        low_end = np.where(near_left, 0.0, -gap)
        high_end = low_end + gap
        lo, hi = low_end / 2, high_end / 2
        t = (lo + hi) / 2
        for _ in range(_MAX_STEPS):
            r = _reciprocals(shifted, t)
            below, above = np.minimum(r, 0.0), np.maximum(r, 0.0)
            psi, phi = below @ weights, above @ weights
            below *= below
            above *= above
            dpsi, dphi = below @ weights, above @ weights
            f = psi + phi
            lo, hi = np.where(f > 0, lo, t), np.where(f > 0, t, hi)
            # psi ~ c1 + s1 / (low_end - t'), phi ~ c2 + s2 / (high_end - t'):
            # the model's root t + eta solves c eta^2 - a eta + b = 0.
            el, eh = low_end - t, high_end - t
            c = psi - dpsi * el + phi - dphi * eh
            a = c * (el + eh) + dpsi * el * el + dphi * eh * eh
            b = el * eh * f
            disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
            eta = np.where(a <= 0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc))
            done = (np.abs(eta) <= 4 * _EPS * np.abs(t)) | (
                np.abs(f) <= 8 * _EPS * (phi - psi)
            )
            step = t + eta
            step = np.where((step >= lo) & (step <= hi), step, (lo + hi) / 2)
            t = np.where(done, t, step)
            if done.all():
                break
        # Where f's slope should carry it past the rounding bound, at least.
        width = np.maximum(
            4 * _EPS * np.abs(t),
            (np.abs(f) + 2 * rounding * (phi - psi)) / (dpsi + dphi),
        )
        for _ in range(8):
            ok = (t - width > low_end) & (t + width < high_end)
            for end, sign in ((t - width, -1.0), (t + width, 1.0)):
                r = _reciprocals(shifted, end)
                ok &= sign * (r @ weights) > rounding * (np.abs(r) @ weights)
            if ok.all():
                break
            width = np.where(ok, width, 16 * width)
        else:
            raise ArithmeticError(
                f"secular equation: no checked bracket for {int((~ok).sum())} "
                f"of {count} roots"
            )
        tau[k], radius[k] = t, width
        if len(tail):  # the eigenvectors at the roots, normalized
            r = _reciprocals(shifted, t) * last
            rotated[:, k] = tail @ (r / np.sqrt((r * r).sum(1, keepdims=True))).T
    return origin, tau, radius, rotated


def _check_deleted_tail(build_order: int, deleted_tail: int) -> int:
    deleted_tail = _check_index(deleted_tail, "deleted_tail", least=0)
    if deleted_tail >= build_order:
        raise ValueError(
            f"deleted_tail must be < build_order ({build_order}), got {deleted_tail}"
        )
    return deleted_tail


def singular_spectra(requests: list[tuple[int, int]]) -> list[np.ndarray]:
    """Eigenvalues of squared truncations, ascending, one array per request.

    A request (N, d) builds the square of order N and deletes its d trailing
    rows and columns, keeping K = N - d labels (d = 0 is the complete
    square).  Its odd block is W(ceil(K/2), floor(N/2)) times its transpose
    and its even block is W(ceil(N/2), floor(K/2))^T times itself, so the
    spectrum is the union of their squared singular values, each block
    padded with zeros to its order.  At d = 0 that is every sigma^2 of
    W(ceil(N/2), floor(N/2)) twice, plus one zero at odd N.

    The call factors W(P, Q) = W(ceil(B/2), floor(B/2)), for B the largest
    requested order, at most once: one eigensolve of its Gram matrix of
    order ceil(B/2), values as Rayleigh quotients (:func:`_factor_block`).
    Every block with up to two fewer rows, or up to two fewer columns, is
    derived from that factorization by secular equations in O(B^2)
    (:func:`_derived_squares`); that covers d <= 3 at order B and the
    complete square of order B - 1.  Every other distinct block is factored
    on its own.  Nothing is kept between calls.  Values agree with
    ``eigen_symmetric(truncate_after_squaring(N, d))`` to within a few times
    1e-15 ||B||.  Every factored block passes the residual check
    max(||W v - sigma u||, ||W^T u - sigma v||) <= 1e-8 sigma_max and every
    derived value a sign check of its secular equation at both ends of its
    bracket; otherwise ArithmeticError is raised.  No order-N array is built.
    """
    kept = []
    for order, deleted_tail in requests:
        order = _check_index(order, "order")
        kept.append((order, order - _check_deleted_tail(order, deleted_tail)))
    largest = max((order for order, _ in kept), default=0)
    big_p, big_q = base = ((largest + 1) // 2, largest // 2)
    blocks = [
        (((keep + 1) // 2, order // 2), ((order + 1) // 2, keep // 2))
        for order, keep in kept
    ]
    distinct = set().union(*blocks)
    near = {
        (p, q)
        for p, q in distinct
        if (p == big_p and big_q - _TAIL_ROWS <= q <= big_q)
        or (q == big_q and big_p - _TAIL_ROWS <= p <= big_p)
    }
    squares = {block: _factor_block(*block).squares for block in distinct - near}
    if near:
        factored = _factor_block(*base)
        squares[base] = factored.squares
        # Every near block shares P or Q with the base, so the deepest one on
        # each side sets how many deletions that side derives.
        depth = max(big_q - q for _, q in near)
        for k, values in enumerate(_derived_squares(factored.columns, depth), 1):
            squares[big_p, big_q - k] = values
        depth = max(big_p - p for p, _ in near)
        for k, values in enumerate(_derived_squares(factored.rows, depth), 1):
            squares[big_p - k, big_q] = values
    spectra = []
    for (_, keep), (odd, even) in zip(kept, blocks):
        odd, even = squares[odd], squares[even]
        zeros = np.zeros(keep - odd.size - even.size)
        spectra.append(np.sort(np.concatenate([zeros, odd, even])))
    return spectra


def squared_momentum(size: int) -> np.ndarray:
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
    size = _check_index(size, "size")
    half, q = (size + 1) // 2, size // 2
    w = _w_block(half, half)
    out = np.zeros((size, size))
    out[0::2, 0::2] = w[:, :q] @ w[:, :q].T
    out[1::2, 1::2] = (w.T @ w)[:q, :q]
    out.flags.writeable = False
    return out


def near_integer_check(size: int) -> list[NearInteger]:
    """Distance of each eigenvalue magnitude from opposite-parity integers.

    The positive eigenvalue magnitudes of the truncation are the integers
    r_k of parity opposite to the order N, shrunk by one factor:
    sigma_k = r_k (1 - c(N)/N), with c the mean over the ten lowest.  Fitted
    through N = 6000 and 40000, c(N) = (2/pi^2)(ln N + kappa) - 0.564 ln N / N
    with kappa ~ 1.3497, from these values of the closed-form inverse of W:

        N        c(N)       spread over k <= 10   c - (2/pi^2) ln N
        6000     2.035576   4.4e-6                0.27269
        13376    2.19844    1.0e-6                0.27309
        20000    2.280082   4.7e-7                0.27322
        40000    2.420681   1.3e-7                0.27335
        100000   2.606454   2.8e-8                0.27345

    The law gives c as measured at N = 999, 1000, 2000 and 4000 (1.6696,
    1.6698, 1.8117, 1.9531) within 4.4e-4, 4.3e-4, 1.3e-4 and 2.1e-5, where
    the spread over k <= 20 is below 1e-3.  So the error r_k c(N)/N is about
    1.67e-3 r at order 1000 (1.67e-3 at r = 1, 1.17e-2 at r = 7).
    Returns one record per opposite pair +/-sigma, that is per singular
    value sigma of W(ceil(N/2), floor(N/2)): the square roots of every other
    value of the complete square's spectrum (:func:`singular_spectra`), past
    its zero mode at odd N, so floor(N/2) records, ascending.
    """
    size = _check_index(size, "size")
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    magnitudes = np.sqrt(singular_spectra([(size, 0)])[0][size % 2 :: 2]).tolist()
    parity = 1 - size % 2
    references = [2 * round((x - parity) / 2) + parity for x in magnitudes]
    return [NearInteger(x, r, abs(x - r)) for x, r in zip(magnitudes, references)]


def truncate_after_squaring(build_order: int, deleted_tail: int) -> np.ndarray:
    """Square the truncation first, then delete trailing rows and columns.

    ``deleted_tail`` rows and columns with the largest basis labels are
    removed from the squared matrix (labels in the original 1..build_order
    ordering); the result is a read-only view of it.  With one deletion the
    surviving spectrum is nondegenerate and close to the exact squares 1, 4,
    9, ...: at build order 1000 the ten lowest, k^2, are within a relative
    3.337e-3 at odd k and 3.340e-3 at even k.  Odd k come from the odd-label
    block, even k from the even-label one, and a further deletion shrinks
    one block only: d = 2 takes W(500, 500) to W(499, 500) (odd k 2.936e-3;
    W(500, 499) and its 3.340e-3 stay), d = 3 takes W(500, 499) to
    W(500, 498) (worst 2.939e-3).
    """
    build_order = _check_index(build_order, "build_order")
    keep = build_order - _check_deleted_tail(build_order, deleted_tail)
    return squared_momentum(build_order)[:keep, :keep]

