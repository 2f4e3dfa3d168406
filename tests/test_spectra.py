import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momtrunc import spectra
from momtrunc.operator import _w_block, momentum_array, momentum_entry
from momtrunc.spectra import (
    PairingReport,
    eigen_symmetric,
    near_integer_check,
    singular_spectra,
    spectrum_pairing,
    squared_momentum,
    truncate_after_squaring,
)
from oracles import dense_pairing, lowest_squares, svd_squares, w_inverse

A12_SQ = (8.0 / (3.0 * math.pi)) ** 2


class TestEigenSymmetric:
    def test_two_by_two_exchange(self):
        report = eigen_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert report.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            eigen_symmetric(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]))
        with pytest.raises(ValueError):
            eigen_symmetric(momentum_array(8))  # antisymmetric storage

    def test_order_two_square_is_a_doublet(self):
        report = eigen_symmetric(squared_momentum(2))
        assert report.eigenvalues == pytest.approx([A12_SQ, A12_SQ], rel=1e-14)
        assert report.degeneracy_groups == ((pytest.approx(A12_SQ, rel=1e-14), 2),)

    def test_residuals_hold_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((80, 80))
        report = eigen_symmetric(raw + raw.T)
        assert len(report.eigenvalues) == 80

    def test_degeneracy_groups_sum_to_order(self):
        report = eigen_symmetric(squared_momentum(31))
        assert sum(mult for _, mult in report.degeneracy_groups) == 31

    @pytest.mark.parametrize(
        "matrix",
        [
            np.full((2, 2), np.nan),
            np.array([[0.0, np.inf], [np.inf, 0.0]]),
            np.zeros((0, 0)),
            np.zeros((2, 3)),
            np.zeros(4),
        ],
        ids=["nan", "inf", "empty", "non-square", "one-dimensional"],
    )
    def test_rejects_empty_non_square_and_non_finite_input(self, matrix):
        with pytest.raises(ValueError, match="finite|square"):
            eigen_symmetric(matrix)

    def test_rejects_complex_input(self):
        # A cast to float would drop P's imaginary entries and report zeros.
        with pytest.raises(TypeError):
            eigen_symmetric(1j * momentum_array(4))

    def test_nan_residual_fails_the_check(self):
        with pytest.raises(ArithmeticError, match="residual nan"):
            spectra._check_residual(np.full((2, 2), np.nan), 1.0)

    def test_infinite_residual_column_fails_the_check(self):
        residual = np.zeros((3, 2))
        residual[:, 1] = np.inf
        with pytest.raises(ArithmeticError, match="residual inf"):
            spectra._check_residual(residual, 1.0)

    def test_residual_check_measures_columns_not_entries(self):
        # Every entry is within 1e-8 * ||M||; one column's norm, 2e-8, is not.
        residual = np.full((4, 3), 0.5e-9)
        residual[:, 2] = 1e-8
        spectra._check_residual(residual[:, :2], 1.0)
        with pytest.raises(ArithmeticError, match="residual 2.000e-08"):
            spectra._check_residual(residual, 1.0)

    @settings(deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        st.lists(st.integers(0, 29), max_size=10),
    )
    def test_degeneracy_groups_split_exactly_between_distant_neighbours(
        self, values, ties
    ):
        # Plant near-ties: some values get a neighbour within a relative 1e-9.
        values += [values[i % len(values)] * (1 + 1e-9) for i in ties]
        values = np.sort(np.array(values))
        tol = spectra._GROUPING_TOL
        groups = spectra._degeneracy_groups(values, tol)
        assert sum(count for _, count in groups) == len(values)

        def close(x, y):
            return abs(x - y) <= tol * max(abs(x), abs(y))

        start = 0
        for mean, count in groups:
            block = values[start : start + count]
            assert count >= 1 and mean == float(block.mean())
            assert all(close(x, y) for x, y in zip(block[1:], block[:-1]))
            if start:
                assert not close(values[start - 1], values[start])
            start += count

    @pytest.mark.parametrize(
        "matrix",
        [[[1e308, 1e308], [1e308, 1e308]], [[1.7e308, 1e308], [1e308, 1.7e308]]],
        ids=["inf-eigenvalue", "nan-residual"],
    )
    def test_rejects_finite_input_that_overflows(self, matrix):
        # No RuntimeWarning may escape either: the suite turns them into errors.
        with pytest.raises(ArithmeticError, match="is not finite"):
            eigen_symmetric(np.array(matrix))

    @staticmethod
    def random_symmetric():
        raw = np.random.default_rng(3).standard_normal((3, 3))
        return raw + raw.T

    def test_power_of_two_scaling_is_exact(self):
        s = self.random_symmetric()
        scaled = eigen_symmetric(2.0**1000 * s).eigenvalues
        assert np.array_equal(scaled, 2.0**1000 * eigen_symmetric(s).eigenvalues)

    def test_large_finite_entries_pass(self):
        values = eigen_symmetric(1e300 * self.random_symmetric()).eigenvalues
        assert np.isfinite(values).all()

    def test_tiny_asymmetric_input_is_refused(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigen_symmetric(np.array([[1e-15, 1e-20], [0.0, 1e-15]]))


class TestSquaredMomentum:
    def test_order_two_matches_hand_computation(self):
        square = squared_momentum(2)
        assert square[0, 0] == pytest.approx(A12_SQ, rel=1e-14)
        assert square[1, 1] == pytest.approx(A12_SQ, rel=1e-14)
        assert square[0, 1] == 0.0 and square[1, 0] == 0.0

    def test_symmetric_and_positive_semidefinite(self):
        square = squared_momentum(51)
        assert np.array_equal(square, square.T)
        values = np.linalg.eigvalsh(square)
        assert values[0] >= -1e-9 * values[-1]

    def test_squares_are_read_only(self):
        for square in (squared_momentum(6), truncate_after_squaring(6, 2)):
            with pytest.raises(ValueError, match="read-only"):
                square[0, 0] = 1.0

    def test_matches_direct_matrix_product(self):
        a = momentum_array(40)
        direct = -(a @ a)
        assert np.allclose(squared_momentum(40), direct, rtol=1e-12, atol=1e-12)


def parity_blocks(entries):
    """The (odd-labels, even-labels) diagonal blocks of a square array."""
    odd, even = np.arange(0, len(entries), 2), np.arange(1, len(entries), 2)
    return entries[np.ix_(odd, odd)], entries[np.ix_(even, even)]


class TestParityStructure:
    def test_reordered_square_is_block_diagonal_exactly(self):
        odd_first = np.r_[0:12:2, 1:12:2]
        reordered = squared_momentum(12)[np.ix_(odd_first, odd_first)]
        assert np.array_equal(reordered[:6, 6:], np.zeros((6, 6)))
        assert np.array_equal(reordered[6:, :6], np.zeros((6, 6)))

    def test_reordering_preserves_spectrum(self):
        square = squared_momentum(12)
        odd_first = np.r_[0:12:2, 1:12:2]
        before = eigen_symmetric(square).eigenvalues
        after = eigen_symmetric(square[np.ix_(odd_first, odd_first)]).eigenvalues
        assert np.allclose(before, after, rtol=1e-10)

    def test_block_sizes(self):
        odd, even = parity_blocks(squared_momentum(9))
        assert odd.shape == (5, 5)
        assert even.shape == (4, 4)

    def test_union_of_block_spectra_is_full_spectrum(self):
        square = squared_momentum(12)
        odd, even = parity_blocks(square)
        merged = np.sort(
            np.concatenate([np.linalg.eigvalsh(odd), np.linalg.eigvalsh(even)])
        )
        full = eigen_symmetric(square).eigenvalues
        assert np.allclose(merged, full, rtol=1e-8, atol=1e-12)

    def test_even_order_blocks_share_eigenvalues(self):
        odd, even = parity_blocks(squared_momentum(12))
        assert np.allclose(
            np.linalg.eigvalsh(odd), np.linalg.eigvalsh(even), rtol=1e-8, atol=1e-12
        )


class TestSpectrumPairing:
    def test_order_two(self):
        report = spectrum_pairing(2)
        assert report.ok
        assert report.zero_modes == 0
        assert report.pair_count == 1
        magnitude = near_integer_check(2)[0].magnitude
        assert magnitude == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-12)

    def test_odd_order_has_single_zero_mode(self):
        report = spectrum_pairing(5)
        assert report.ok
        assert report.zero_modes == 1
        assert report.pair_count == 2

    def test_even_order_has_no_zero_mode(self):
        report = spectrum_pairing(10)
        assert report.ok
        assert report.zero_modes == 0
        assert report.pair_count == 5
        # ok means the counts account for all ``order`` eigenvalues.
        assert report.order == 10
        assert not PairingReport(10, 5, 1).ok

    def test_large_orders_take_the_structural_counts(self):
        report = spectrum_pairing(10**12 + 1)
        assert (report.pair_count, report.zero_modes) == (5 * 10**11, 1)
        assert report.ok and report.order == 10**12 + 1


def cauchy_determinant(q):
    """det C for the leading q x q block of C_ij = 1/(x_i - y_j), two ways.

    x_i = (2i - 1)^2 and y_j = (2j)^2, so that
    W = -(4/pi) diag(2i - 1) C diag(2j).  Returns the exact determinant from
    Gaussian elimination in rational arithmetic and Cauchy's product formula.
    """
    x = [Fraction((2 * i - 1) ** 2) for i in range(1, q + 1)]
    y = [Fraction((2 * j) ** 2) for j in range(1, q + 1)]
    rows = [[1 / (xi - yj) for yj in y] for xi in x]
    eliminated = Fraction(1)
    for k in range(q):
        pivot = next(i for i in range(k, q) if rows[i][k] != 0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            eliminated = -eliminated
        eliminated *= rows[k][k]
        for i in range(k + 1, q):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    formula = Fraction(1)
    for i in range(q):
        for j in range(i + 1, q):
            formula *= (x[j] - x[i]) * (y[i] - y[j])
        for j in range(q):
            formula /= x[i] - y[j]
    return eliminated, formula


class TestFullRankWitnesses:
    """Numerical witnesses of the Cauchy-determinant proof that W has full rank."""

    def test_w_is_a_scaled_cauchy_matrix(self):
        m, n = np.arange(1.0, 14.0, 2.0), np.arange(2.0, 13.0, 2.0)
        cauchy = 1.0 / (m[:, None] ** 2 - n[None, :] ** 2)
        scaled = -4.0 / math.pi * m[:, None] * cauchy * n[None, :]
        assert np.allclose(spectra._w_block(7, 6), scaled, rtol=1e-15, atol=0.0)

    def test_exact_determinant_is_cauchys_product(self):
        for q in range(1, 13):  # orders N <= 24
            eliminated, formula = cauchy_determinant(q)
            assert eliminated == formula != 0, q

    def test_singular_values_are_nonzero(self):
        for order in range(1, 61):
            w = spectra._w_block((order + 1) // 2, order // 2)
            sigma = np.linalg.svd(w, compute_uv=False)
            assert sigma.min(initial=np.inf) ** 2 > 0.0, order

    @pytest.mark.parametrize("order", [1000, 2000, 4000])
    def test_shifted_cholesky_of_the_scaled_gram_completes(self, order):
        # H = D^-1 W^T W D^-1 has a unit diagonal and lambda_min(H) ~ 0.2/N
        # (5e-5 at N = 4000).  Forming and factoring H rounds by at most
        # about N q u ~ 1e-9 (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., Thm 10.3, with trace H = q), so a completed
        # Cholesky of H - shift I shows lambda_min(H) > 0.
        shift = 1e-7
        w = spectra._w_block((order + 1) // 2, order // 2)
        w /= np.linalg.norm(w, axis=0)
        gram = w.T @ w
        gram[np.diag_indices_from(gram)] -= shift
        np.linalg.cholesky(gram)


class TestNearInteger:
    def test_records_are_structured(self):
        records = near_integer_check(100)
        assert all(r.error == abs(r.magnitude - r.reference) for r in records)
        mags = [r.magnitude for r in records]
        assert mags == sorted(mags)
        # even order: references are odd integers
        assert all(r.reference % 2 == 1 for r in records)

    def test_odd_order_targets_even_integers(self):
        records = near_integer_check(99)
        assert all(r.reference % 2 == 0 for r in records)

    def test_low_magnitudes_sit_near_targets(self):
        records = near_integer_check(100)
        assert records[0].error < 0.05

    def test_rejects_tiny_orders(self):
        with pytest.raises(ValueError):
            near_integer_check(1)

    def test_one_record_per_singular_value(self):
        for order in range(2, 61):
            assert len(near_integer_check(order)) == order // 2

    def test_small_singular_values_are_kept(self, monkeypatch):
        # sigma^2 spans 1e-10 of the largest: no relative cut may drop it.
        monkeypatch.setattr(spectra, "_w_block", lambda p, q: np.diag([1e-5, 1.0]))
        records = near_integer_check(4)
        assert [r.magnitude for r in records] == pytest.approx([1e-5, 1.0], rel=1e-12)


def factors(order, squares):
    """c_k from sigma_k = r_k (1 - c_k / N) for the lowest squares sigma_k^2."""
    references = np.arange(len(squares)) * 2 + (1 if order % 2 == 0 else 2)
    return order * (1 - np.sqrt(squares) / references)


@functools.cache
def scale_factors(order):
    """c_k for the 20 lowest sigma_k, from the closed-form inverse of W."""
    return factors(order, lowest_squares(order, 20))


def fitted_law(order):
    """c(N) = (2/pi^2)(ln N + kappa) - 0.564 ln N / N, as near_integer_check states."""
    log = math.log(order)
    return 2 / math.pi**2 * (log + 1.3497) - 0.564 * log / order


class TestScaleLaw:
    # The low levels are the opposite-parity integers shrunk by one factor.
    @pytest.mark.parametrize("order, c", [(999, 1.6696), (1000, 1.6698), (2000, 1.8117)])
    def test_fitted_factor(self, order, c):
        assert np.mean(scale_factors(order)[:10]) == pytest.approx(c, abs=1e-4)

    @pytest.mark.parametrize("order", [999, 1000, 2000])
    def test_one_factor_for_the_twenty_lowest(self, order):
        assert np.ptp(scale_factors(order)) <= 1e-3

    @pytest.mark.parametrize("order", [999, 1000, 2000])
    def test_fitted_law_gives_the_factor(self, order):
        c = np.mean(scale_factors(order)[:10])
        assert c == pytest.approx(fitted_law(order), abs=5e-4)

    def test_fitted_law_at_6000_through_the_oracle(self):
        # No block of W is factored: the ten lowest come from its inverse.
        found = factors(6000, lowest_squares(6000, 10))
        assert np.mean(found) == pytest.approx(2.035576, abs=1e-6)
        assert np.mean(found) == pytest.approx(fitted_law(6000), abs=1e-5)
        assert np.ptp(found) <= 1e-5

    def test_law_gives_table2s_rank_one_cell(self):
        c = np.mean(scale_factors(1000)[:10])
        assert f"{(1 - c / 1000) ** 2:.6f}" == "0.996663"


class TestClosedFormInverse:
    """The lowest singular values against the closed form of W(q, q)^-1."""

    @pytest.mark.parametrize("q", [30, 60])
    def test_inverts_the_block(self, q):
        product = w_inverse(q) @ _w_block(q, q)
        assert np.abs(product - np.eye(q)).max() <= 1e-14

    @pytest.mark.parametrize("order", [1000, 2000])
    def test_ten_lowest_values(self, order):
        lowest = singular_spectra([(order, 0)])[0][:20:2]
        largest = np.linalg.svd(w_inverse(order // 2), compute_uv=False)[:10]
        assert np.abs(lowest * largest**2 - 1.0).max() <= 3e-14

    def test_subspace_iteration_finds_the_largest_of_the_inverse(self):
        largest = np.linalg.svd(w_inverse(500), compute_uv=False)[:10]
        assert np.abs(lowest_squares(1000, 10) * largest**2 - 1.0).max() <= 3e-14

    def test_subspace_iteration_gates_the_ten_lowest_at_4000(self):
        lowest = singular_spectra([(4000, 0)])[0][:20:2]
        assert np.abs(lowest / lowest_squares(4000, 10) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("order", [999, 1999, 3999])
    def test_subspace_iteration_gates_the_ten_lowest_at_odd_orders(self, order):
        # Every other value past the zero mode: each sigma^2 of W(q + 1, q).
        lowest = singular_spectra([(order, 0)])[0][1:21:2]
        assert np.abs(lowest / lowest_squares(order, 10) - 1.0).max() <= 1e-14

    def test_subspace_iteration_at_an_odd_order_against_forty_digits(self):
        expected = np.array(forty_digit_squares(31, 30)[:10])
        assert np.abs(lowest_squares(61, 10) / expected - 1.0).max() <= 2e-15

    @pytest.mark.parametrize("q", [30, 60])
    def test_schur_complement_inverts_the_odd_gram_at_forty_digits(self, q):
        # (W^T W)^-1 of W(q + 1, q) is (Z P)(Z P)^T, with Z, e from W(q + 1, q + 1)^-1.
        with mpmath.workdps(40):
            w = mpmath.matrix(q + 1, q)
            for i in range(q + 1):
                for j in range(q):
                    m, n = 2 * i + 1, 2 * j + 2
                    w[i, j] = -4 * m * n / (mpmath.pi * (m * m - n * n))
            exact = np.array(((w.T * w) ** -1).tolist(), dtype=float)
        inverse = w_inverse(q + 1)
        e = inverse[q] / np.linalg.norm(inverse[q])
        zp = inverse[:q] - np.outer(inverse[:q] @ e, e)
        assert np.abs(zp @ zp.T - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_subspace_iteration_refuses_a_count_beyond_its_block(self):
        for count in (0, 25):
            with pytest.raises(ValueError, match="count"):
                lowest_squares(999, count)


def ten_lowest_errors(build_order, deleted_tails):
    """Worst relative error of the ten lowest eigenvalues against 1, 4, ..., 100.

    One error per deletion count, for the square of ``build_order`` repaired
    by deleting that many trailing rows and columns.
    """
    found = singular_spectra([(build_order, d) for d in deleted_tails])
    if not found or min(values.size for values in found) < 10:
        raise ValueError("need a deletion count leaving at least 10 eigenvalues")
    exact = np.arange(1.0, 11.0) ** 2
    return [float(np.max(np.abs(values[:10] - exact) / exact)) for values in found]


class TestRepair:
    def test_zero_deletion_is_identity(self):
        assert np.array_equal(truncate_after_squaring(10, 0), squared_momentum(10))

    def test_deletion_slices_trailing_labels(self):
        repaired = truncate_after_squaring(10, 3)
        assert len(repaired) == 7
        assert np.array_equal(repaired, squared_momentum(10)[:7, :7])

    def test_block_identity_at_small_order(self):
        for order in (2, 4, 10, 16, 64):
            repaired = truncate_after_squaring(order, 1)
            odd = np.arange(0, order - 1, 2)
            even = np.arange(1, order - 1, 2)
            full, smaller = squared_momentum(order), squared_momentum(order - 1)
            assert np.array_equal(
                repaired[np.ix_(odd, odd)], full[np.ix_(odd, odd)]
            ), order
            assert np.array_equal(
                repaired[np.ix_(even, even)], smaller[np.ix_(even, even)]
            ), order

    def test_validates_deletion_count(self):
        with pytest.raises(ValueError):
            truncate_after_squaring(10, 10)
        with pytest.raises(ValueError):
            truncate_after_squaring(10, -1)

    def test_error_metric_non_increasing_in_deletions(self):
        errors = ten_lowest_errors(200, [1, 10, 50])
        assert errors[0] >= errors[1] >= errors[2]

    def test_each_deletion_moves_only_the_block_that_loses_a_label(self):
        # Odd k come from the odd-label block, even k from the even-label one.
        found = singular_spectra([(1000, 1), (1000, 2), (1000, 3)])
        one, two, three = (values[:10] for values in found)
        # d = 2 takes W(500, 500) to W(499, 500); W(500, 499) stays.
        assert np.array_equal(one[1::2], two[1::2])
        assert not np.array_equal(one[::2], two[::2])
        # d = 3 takes W(500, 499) to W(500, 498); W(499, 500) stays.
        assert np.array_equal(two[::2], three[::2])
        assert not np.array_equal(two[1::2], three[1::2])
        exact = np.arange(1.0, 11.0) ** 2
        worst = [
            [f"{np.max(np.abs(v - exact)[k::2] / exact[k::2]):.3e}" for k in (0, 1)]
            for v in (one, two, three)
        ]
        assert worst == [
            ["3.337e-03", "3.340e-03"],
            ["2.936e-03", "3.340e-03"],
            ["2.936e-03", "2.939e-03"],
        ]

    def test_unrepaired_spectrum_is_flagged_by_large_error(self):
        [err0] = ten_lowest_errors(200, [0])
        [err1] = ten_lowest_errors(200, [1])
        # without deletion the doubled eigenvalues sit far from 1, 4, 9, ...
        assert err0 > 0.5
        assert err1 < 0.1

    def test_takes_one_svd_for_nearby_deletions(self, eigh_calls):
        ten_lowest_errors(200, [1, 2, 3])
        assert eigh_calls == [(100, 100)], eigh_calls  # one, of order N/2

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            ten_lowest_errors(100, [])
        with pytest.raises(ValueError):
            ten_lowest_errors(100, [100])
        with pytest.raises(ValueError):
            ten_lowest_errors(15, [10])
        with pytest.raises(ValueError):
            ten_lowest_errors(100, ["a"])
        with pytest.raises(ValueError):
            ten_lowest_errors(100, [None])


def blocks_of(order, deleted_tail):
    """The (odd, even) blocks W(p, q) of the repaired square's spectrum."""
    keep = order - deleted_tail
    return [((keep + 1) // 2, order // 2), ((order + 1) // 2, keep // 2)]


@functools.lru_cache(maxsize=None)
def forty_digit_squares(p, q):
    """Nonzero squared singular values of W(p, q) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        w = mpmath.matrix(p, q)
        for i in range(p):
            for j in range(q):
                m, n = 2 * i + 1, 2 * j + 2
                w[i, j] = -4 * m * n / (mpmath.pi * (m * m - n * n))
        gram = w.T * w if p >= q else w * w.T
        return [float(value) for value in mpmath.eigsy(gram, eigvals_only=True)]


class TestSingularSpectrum:
    """The W-block path against the dense eigensolve it replaces."""

    @staticmethod
    def assert_matches_dense(order, deleted_tail):
        fast = singular_spectra([(order, deleted_tail)])[0]
        dense = eigen_symmetric(truncate_after_squaring(order, deleted_tail)).eigenvalues
        assert fast.shape == dense.shape
        norm = float(np.abs(dense).max())
        assert np.abs(fast - dense).max() <= 1e-13 * norm

    @settings(deadline=None)
    @given(st.integers(1, 60), st.integers(0, 5))  # d > 3 passes the derived reach
    def test_matches_dense_eigensolve(self, order, deleted_tail):
        self.assert_matches_dense(order, min(deleted_tail, order - 1))

    @pytest.mark.parametrize("order", [999, 1000])
    @pytest.mark.parametrize("deleted_tail", [0, 1, 3])
    def test_matches_dense_eigensolve_at_table_sizes(self, order, deleted_tail):
        self.assert_matches_dense(order, deleted_tail)

    @staticmethod
    def forty_digit_error(order, deleted_tail):
        """Worst relative error of the spectrum against 40-digit values."""
        keep = order - deleted_tail
        squares = [
            value
            for p, q in blocks_of(order, deleted_tail)
            for value in forty_digit_squares(p, q)
        ]
        expected = np.array(sorted([0.0] * (keep - len(squares)) + squares))
        fast = singular_spectra([(order, deleted_tail)])[0]
        assert np.array_equal(fast == 0.0, expected == 0.0), deleted_tail
        nonzero = expected != 0.0
        return (np.abs(fast[nonzero] - expected[nonzero]) / expected[nonzero]).max()

    @pytest.mark.parametrize("order", [20, 41, 60])
    def test_matches_forty_digit_eigenvalues(self, order):
        # d = 1..3 derive blocks from the factored W(ceil(N/2), floor(N/2)).
        for deleted_tail in range(4):
            assert self.forty_digit_error(order, deleted_tail) <= 1e-13, deleted_tail

    @pytest.mark.parametrize("order", [20, 41, 60])
    def test_derived_values_match_forty_digits_to_1e_14(self, order):
        # Without the first-order correction of the factored block's tail
        # rows the derived values are off by up to 1.4e-13 at N = 41.
        for deleted_tail in range(1, 4):
            assert self.forty_digit_error(order, deleted_tail) <= 1e-14, deleted_tail

    @pytest.mark.parametrize(
        "order, deleted_tail",
        [(order, d) for order in (999, 1000) for d in range(4)] + [(2000, 3)],
    )
    def test_derived_blocks_match_their_own_svd(
        self, order, deleted_tail, eigh_calls
    ):
        # At d = 0 the complete square comes from the next order's block, as
        # table2 takes it.
        nearby = [(order + 1, 0)] if deleted_tail == 0 else []
        derived = singular_spectra([(order, deleted_tail)] + nearby)[0]
        assert len(eigh_calls) == 1, eigh_calls
        blocks = blocks_of(order, deleted_tail)
        direct = [svd_squares(p, q) for p, q in blocks]
        zeros = np.zeros(order - deleted_tail - sum(block.size for block in direct))
        expected = np.sort(np.concatenate([zeros, *direct]))
        assert np.abs(derived - expected).max() <= 1e-13 * expected[-1]

    @pytest.mark.parametrize("order", [20, 41, 999, 1000])
    def test_derived_values_interlace_strictly(self, order):
        factored = spectra._factor_block((order + 1) // 2, order // 2)
        for side in (factored.columns, factored.rows):
            poles = side[0]
            derived = spectra._derived_squares(side, 2)
            assert len(derived) == 2
            for values in derived:
                assert values.size == poles.size - 1
                assert np.all(poles[:-1] < values) and np.all(values < poles[1:])
                poles = values

    def test_each_deletion_is_derived_once(self, monkeypatch):
        # W(10, 9) is the first step towards W(10, 8): one secular solve each,
        # and one more for the row deleted in W(9, 10).
        calls = []
        secular_roots = spectra._secular_roots

        def counting_secular_roots(poles, last, tail):
            calls.append(poles.size)
            return secular_roots(poles, last, tail)

        monkeypatch.setattr(spectra, "_secular_roots", counting_secular_roots)
        singular_spectra([(19, 0), (20, 3), (20, 0)])
        assert sorted(calls) == [9, 10, 10], calls

    @pytest.mark.parametrize("rows", [1, 7, 10**6])
    def test_work_array_rows_change_no_value_beyond_rounding(self, rows, monkeypatch):
        # BLAS's matrix-vector kernel takes rows in small groups (four with
        # OpenBLAS on x86-64), and a row's last bit depends on its place in
        # one.  One chunk of every row groups them as 64 does; 1 and 7 rows
        # move a secular root by about an ulp.
        def outputs():
            columns = spectra._factor_block(300, 300).columns
            return singular_spectra([(41, 3), (40, 0), (20, 1)]) + (
                spectra._derived_squares(columns, 2)
            )

        default = outputs()
        monkeypatch.setattr(spectra, "_ROWS", rows)
        for got, expected in zip(outputs(), default, strict=True):
            if rows == 10**6:
                assert np.array_equal(got, expected)
            else:
                assert np.allclose(got, expected, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("block", [(300, 300), (301, 300)])
    def test_eigensolve_holds_one_block_array(self, block, monkeypatch):
        # numpy reports its array memory to tracemalloc; LAPACK's own copy and
        # workspace are not traced, so this counts what the caller holds: the
        # Gram, and W too if it were kept.
        traced = []
        eigh = np.linalg.eigh

        def tracing_eigh(*args, **kwargs):
            traced.append(tracemalloc.get_traced_memory()[0])
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", tracing_eigh)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            spectra._factor_block(*block)
        finally:
            tracemalloc.stop()
        [at_eigh] = traced
        arrays = (at_eigh - start) / (8 * max(block) ** 2)
        assert arrays < 1.5, arrays

    @pytest.mark.parametrize("block", [(300, 300), (301, 300)])
    def test_rest_of_the_factorization_holds_four_block_arrays(
        self, block, monkeypatch
    ):
        # After eigh: B, T, X and M while R is formed a slab at a time, then B,
        # T, X and the residual; the peak is traced from eigh's return on.
        eigh = np.linalg.eigh

        def resetting_eigh(*args, **kwargs):
            try:
                return eigh(*args, **kwargs)
            finally:
                tracemalloc.reset_peak()

        monkeypatch.setattr(np.linalg, "eigh", resetting_eigh)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            spectra._factor_block(*block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (peak - start) / (8 * max(block) ** 2)
        assert arrays <= 4.5, arrays

    @pytest.mark.parametrize("order", [20, 41])
    def test_secular_brackets_hold_the_exact_roots(self, order):
        factored = spectra._factor_block((order + 1) // 2, order // 2)
        for poles, tail in (factored.columns, factored.rows):
            weights = tail[-1] ** 2
            origin, tau, radius, _ = spectra._secular_roots(poles, tail[-1], tail[:-1])
            with mpmath.workdps(40):
                exact_poles = [mpmath.mpf(float(x)) for x in poles]

                def secular(mu):
                    return mpmath.fsum(
                        float(w) / (x - mu) for w, x in zip(weights, exact_poles)
                    )

                for k in range(tau.size):
                    at = mpmath.mpf(float(origin[k])) + mpmath.mpf(float(tau[k]))
                    low, high = at - float(radius[k]), at + float(radius[k])
                    assert exact_poles[k] < low and high < exact_poles[k + 1]
                    assert secular(low) < 0 < secular(high)
                    assert radius[k] <= 1e-11 * abs(tau[k])

    def test_block_is_the_dense_entry_block(self):
        # W(ceil(N/2), floor(N/2)) at odd and even N, and off-shape blocks.
        for p, q in [(7, 6), (3, 5), (150, 149), (150, 150)]:
            entries = [
                [momentum_entry(m, n) for n in range(2, 2 * q + 1, 2)]
                for m in range(1, 2 * p, 2)
            ]
            assert np.array_equal(spectra._w_block(p, q), np.array(entries)), (p, q)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            singular_spectra([(0, 0)])
        with pytest.raises(ValueError):
            singular_spectra([(10, 10)])
        with pytest.raises(ValueError):
            singular_spectra([(10, -1)])

    def test_no_state_is_kept_between_calls(self, monkeypatch):
        singular_spectra([(12, 0)])
        monkeypatch.setattr(spectra, "_w_block", lambda p, q: 2.0 * _w_block(p, q))
        scaled = singular_spectra([(12, 0)])[0]
        monkeypatch.undo()
        unscaled = singular_spectra([(12, 0)])[0]
        assert np.allclose(scaled, 4.0 * unscaled, rtol=1e-14, atol=0.0)

    def test_rejects_boolean_deletion(self):
        with pytest.raises(ValueError):
            singular_spectra([(10, True)])
        with pytest.raises(ValueError):
            truncate_after_squaring(10, True)

    def test_residual_is_checked_on_cached_blocks(self, monkeypatch):
        singular_spectra([(12, 0)])  # a block factored before is factored again
        monkeypatch.setattr(spectra, "_RESIDUAL_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="eigensolve residual"):
            singular_spectra([(12, 0)])

    @settings(deadline=None)
    @given(st.integers(1, 60))
    @example(999)
    @example(1000)
    def test_pairing_matches_dense_oracle(self, order):
        fast, dense = spectrum_pairing(order), dense_pairing(order)
        assert (fast.zero_modes, fast.pair_count) == (dense.zero_modes, dense.pair_count)
        assert fast.ok == dense.ok
        assert fast.order == order
