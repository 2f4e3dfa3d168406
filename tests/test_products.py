import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TABLE1, tol_from_printed
from momtrunc import operator, products
from momtrunc.operator import (
    momentum_array,
    momentum_entry,
    p3_hermitian_entry,
)
from momtrunc.products import (
    associativity_gap,
    p2_partial_sum,
    pp2p_partial_sum,
    quad_power_entry,
    triple_product_sum,
)
from momtrunc.spectra import squared_momentum
from momtrunc.tails import boundary_contribution
from oracles import dense_fourth_power_entry, dense_triple_product, plain_triple_product

U = Fraction(1, 2**53)  # the unit roundoff


def brute_triple(m: int, n: int, size: int) -> float:
    """Independent O(size^2) oracle built from scalar entries only."""
    row_sums = [
        math.fsum(
            momentum_entry(m, r) * momentum_entry(r, s) * momentum_entry(s, n)
            for s in range(1, size + 1)
        )
        for r in range(1, size + 1)
    ]
    return -math.fsum(row_sums)


class TestTripleProduct:
    @pytest.mark.parametrize("m,n,size", [(1, 2, 40), (2, 3, 55), (4, 7, 60)])
    def test_matches_brute_force_oracle(self, m, n, size):
        lib = triple_product_sum(m, n, size)
        ref = brute_triple(m, n, size)
        assert lib == pytest.approx(ref, rel=1e-13)

    def test_matches_printed_reference_cells(self):
        for (m, n), size in [((1, 2), 100), ((2, 3), 999), ((60, 91), 99)]:
            printed = TABLE1[(m, n)][size]
            value = triple_product_sum(m, n, size)
            assert value == pytest.approx(float(printed), abs=tol_from_printed(printed))

    def test_diagonal_cancels_exactly(self):
        # terms are antisymmetric under swapping the two middle labels, so
        # exact summation returns a signed zero
        assert triple_product_sum(1, 1, 50) == 0.0
        assert triple_product_sum(3, 3, 60) == 0.0

    def test_swap_antisymmetry(self):
        for m, n, size in [(1, 2, 60), (2, 5, 60)]:
            assert triple_product_sum(m, n, size) == pytest.approx(
                -triple_product_sum(n, m, size), rel=1e-12
            )

    @settings(deadline=None)
    @given(
        st.integers(2, 10**5).flatmap(
            lambda size: st.tuples(
                st.integers(1, min(size, 300)), st.integers(1, min(size, 300)), st.just(size)
            )
        )
    )
    @example((183, 252, 253))
    @example((1, 2, 10**6))
    @example((20, 31, 10**6))
    def test_swapped_labels_cancel_to_rounding(self, case):
        # The truncated A is antisymmetric, so T(m, n) = -T(n, m) exactly, but
        # the two come from different columns, often of different parity: a
        # witness that needs no oracle, at sizes beyond the dense ones.  Its
        # bound is 8u times the rounding scales S_mn = sum_r |a_mr B_rn|.
        m, n, size = case
        assume((m + n) % 2 == 1)

        def scale(m, n):
            row = operator._closed_form(m, operator._partners(m, size))
            return operator._fsum(np.abs(row * products._square_columns(size, n)[0]))

        witness = triple_product_sum(m, n, size) + triple_product_sum(n, m, size)
        assert abs(witness) <= 8 * U * (scale(m, n) + scale(n, m))

    def test_compensated_vs_naive(self):
        comp = triple_product_sum(1, 2, 2000)
        naive = plain_triple_product(1, 2, 2000)
        assert abs(comp - naive) <= 1e-9 * abs(comp)

    def test_oscillation_straddles_target(self):
        # consecutive odd/even truncation sizes land on opposite sides of the
        # limit once the size is well beyond the labels
        for m, n, sizes in [
            (1, 2, [99, 100, 999, 1000]),
            (2, 3, [99, 100]),
            (20, 31, [999, 1000]),
        ]:
            target = p3_hermitian_entry(m, n)
            errors = [triple_product_sum(m, n, size) - target for size in sizes]
            for err_odd, err_even in zip(errors[::2], errors[1::2]):
                assert err_odd * err_even < 0

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 8)])
    def test_error_follows_the_harmonic_law(self, m, n):
        # N (T - target) / (8 m n / pi^3) = (-1)^(N+m) (ln 4N + gamma) up to
        # O(ln N / N): the bound's constant is fitted at N = 10^4 and 10^4 + 1.
        target = p3_hermitian_entry(m, n)

        def law_residual(size):
            error = triple_product_sum(m, n, size) - target
            scaled = size * error * math.pi**3 / (8 * m * n)
            return scaled - (-1) ** (size + m) * (math.log(4 * size) + np.euler_gamma)

        fitted = max(
            abs(law_residual(size)) * size / math.log(size) for size in (10**4, 10**4 + 1)
        )
        for size in (10**5, 10**5 + 1, 10**6, 10**6 + 1):
            assert abs(law_residual(size)) <= fitted * math.log(size) / size, size

    def test_requires_size_at_least_max_label(self):
        with pytest.raises(ValueError):
            triple_product_sum(3, 5, 4)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            triple_product_sum(0, 1, 10)


class TestSweep:
    def test_matches_fresh_evaluations(self):
        # each size is evaluated afresh: the sweep order does not matter
        sizes = [50, 99, 100]
        ascending = [triple_product_sum(1, 2, size) for size in sizes]
        descending = [triple_product_sum(1, 2, size) for size in reversed(sizes)]
        assert ascending == descending[::-1]

    def test_printed_pair(self):
        assert triple_product_sum(1, 2, 99) == pytest.approx(2.156, abs=5e-4)
        assert triple_product_sum(1, 2, 100) == pytest.approx(2.088, abs=5e-4)

    @pytest.mark.parametrize("m,n", [(1, 2), (3, 4), (7, 12)])
    def test_steps_equal_boundary_contribution(self, m, n):
        # stepping N by two adds exactly the window's boundary column and row
        for size in (200, 400, 1000, 2000):
            value = triple_product_sum(m, n, size)
            step = value - triple_product_sum(m, n, size - 2)
            boundary = 64.0 * m * n / math.pi**3 * boundary_contribution(m, n, size)
            assert abs(step - boundary) <= 1e-12 * abs(value)

    def test_diagonal_sweep_is_zero(self):
        assert [triple_product_sum(1, 1, size) for size in (50, 51, 99)] == [0.0] * 3


class TestSquarePartialSums:
    def test_diagonal_converges_to_square(self):
        value = p2_partial_sum(1, 1, 10**5)
        assert abs(value - 1.0) <= 1e-3
        # the error is genuinely O(1/size), not rounding noise
        assert 1e-7 <= abs(value - 1.0) <= 2e-5

    def test_off_diagonal_same_parity_converges_to_zero(self):
        assert abs(p2_partial_sum(1, 3, 10**5)) <= 1e-3

    def test_opposite_parity_vanishes_exactly(self):
        assert p2_partial_sum(1, 2, 1000) == 0.0

    def test_chunked_sum_is_bit_identical(self):
        # fsum is exactly rounded, so handing the terms over one at a time
        # through a memoryview cannot change a bit
        size = 300_001
        rows = np.zeros((2, size))
        s = np.arange(2.0, size + 1, 2.0)  # where a_1s and a_3s can be nonzero
        rows[:, 1::2] = [operator._closed_form(1, s), operator._closed_form(3, s)]
        terms = rows[0] * rows[1]
        assert p2_partial_sum(1, 3, size).hex() == math.fsum(terms.tolist()).hex()

    def test_monotone_from_below_on_diagonal(self):
        values = [p2_partial_sum(2, 2, size) for size in range(1, 11)]
        assert all(v < 4.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 4)])
    def test_error_decays_like_one_over_size(self, m, n):
        sizes = [10**3, 10**4, 10**5]
        exact = float(m * n) if m == n else 0.0
        errors = [abs(p2_partial_sum(m, n, size) - exact) for size in sizes]
        slope = np.polyfit(np.log10(sizes), np.log10(errors), 1)[0]
        assert -1.2 <= slope <= -0.8


class TestAssociativityGap:
    def test_odd_pair_collapses_to_scaled_entries(self):
        left, right = associativity_gap(1, 2)
        assert left == pytest.approx(4.0 * 8.0 / (3.0 * math.pi), rel=1e-14)
        assert right == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-14)
        left, right = associativity_gap(2, 3)
        a23 = 24.0 / (5.0 * math.pi)
        assert left == pytest.approx(9.0 * a23, rel=1e-14)
        assert right == pytest.approx(4.0 * a23, rel=1e-14)

    def test_even_pair_vanishes(self):
        assert associativity_gap(3, 3) == (0.0, 0.0)
        assert associativity_gap(2, 4) == (0.0, 0.0)

    def test_ratio_is_square_of_label_ratio(self):
        for m, n in [(1, 2), (3, 8), (5, 12)]:
            left, right = associativity_gap(m, n)
            assert left / right == pytest.approx(n * n / (m * m), rel=1e-12)


class TestMiddleSumDivergence:
    def test_summand_tends_to_minus_one(self):
        s = 10**6
        term = s**4 / ((1 - s**2) * (s**2 - 9))
        assert term == pytest.approx(-1.0, abs=1e-5)

    def test_linear_growth_rate(self):
        # one term per parity step, each tending to -1, times -48/pi^2
        v1 = pp2p_partial_sum(1, 3, 2000)
        v2 = pp2p_partial_sum(1, 3, 4000)
        slope = (v2 - v1) / 2000.0
        assert slope == pytest.approx(24.0 / math.pi**2, rel=0.01)

    def test_equal_labels_diverges_positively(self):
        # the two denominator factors have opposite signs for every middle
        # label, so the prefactor -16/pi^2 makes the total positive
        v1 = pp2p_partial_sum(1, 1, 1000)
        v2 = pp2p_partial_sum(1, 1, 2000)
        assert 0.0 < v1 < v2

    def test_rejects_odd_label_sum(self):
        with pytest.raises(ValueError):
            pp2p_partial_sum(1, 2, 100)


class TestQuadPower:
    def test_matches_matrix_power_oracle(self):
        size = 30
        fourth = np.linalg.matrix_power(momentum_array(size), 4)
        for m, n in [(1, 1), (1, 3), (2, 2), (3, 7)]:
            assert quad_power_entry(m, n, size) == pytest.approx(
                fourth[m - 1, n - 1], rel=1e-10
            )

    def test_diverges_from_exact_value(self):
        deviations = [abs(quad_power_entry(1, 1, size) - 1.0) for size in (60, 120, 240)]
        assert deviations[0] < deviations[1] < deviations[2]

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 4)])
    def test_growth_rate_and_its_gap(self, m, n):
        # quad_power_entry / N -> 8 m n / (3 pi^2) with a gap of O(ln^2 N / N),
        # not O(ln N / N): the bound's constant is fitted at N = 10^4, 10^4 + 1.
        rate = 8 * m * n / (3 * math.pi**2)

        def gap(size):
            return quad_power_entry(m, n, size) / size - rate

        fitted = max(
            abs(gap(size)) * size / math.log(size) ** 2 for size in (10**4, 10**4 + 1)
        )
        for size in (10**5, 10**5 + 1, 10**6, 10**6 + 1):
            assert abs(gap(size)) <= fitted * math.log(size) ** 2 / size, size

    def test_opposite_parity_entry_vanishes_exactly(self):
        assert quad_power_entry(1, 2, 100) == 0.0

    def test_requires_size_at_least_max_label(self):
        with pytest.raises(ValueError):
            quad_power_entry(1, 40, 30)


labels_and_size = st.integers(1, 300).flatmap(
    lambda size: st.tuples(st.integers(1, size), st.integers(1, size), st.just(size))
)


def d_terms(size: int, parity: int) -> np.ndarray:
    """The terms of D, as products._square_columns builds them for labels of
    this parity: reciprocals of odd integers taken outward from the cutoff."""
    s_top = size if (size + parity) % 2 == 1 else size - 1
    steps = np.arange(1.0, size + 1.0)
    below = slice((s_top + 1) % 2, None, 2)
    steps[below] = s_top + 1.0 - steps[below]
    steps[s_top % 2 :: 2] += s_top
    return np.reciprocal(steps, out=steps)


def exact_prefixes(terms: np.ndarray) -> list[Fraction]:
    """Every prefix sum of the float terms, in exact rational arithmetic."""
    return list(accumulate(map(Fraction, terms.tolist()), initial=Fraction(0)))


def one_square_column(n: int, size: int) -> np.ndarray:
    """products' square column as it was built one label at a time, each
    with its own prefix array: the reference the shared prefix must match."""
    d = products._prefix_sums(d_terms(size, n % 2))
    r = np.arange(2 - n % 2, size + 1, 2.0)
    with np.errstate(invalid="ignore"):
        column = (
            8.0 * r * n * (r * d[2 - n % 2 :: 2] - n * d[n])
            / (math.pi**2 * (n * n - r * r))
        )
    partners = operator._partners(n, size)
    column[(n - 1) // 2] = operator._fsum(operator._closed_form(n, partners) ** 2)
    return column


class TestSharedPrefix:
    @settings(deadline=None)
    @given(
        st.integers(1, 30_000).flatmap(
            lambda size: st.tuples(
                st.integers(1, min(size, 300)), st.integers(1, min(size, 300)), st.just(size)
            )
        )
    )
    @example((1, 1, 2000))
    @example((2, 4, 999))
    @example((1, 3, 3))
    @example((1, 3, 100_001))
    def test_products_keep_the_bits_of_one_prefix_per_column(self, case):
        # quad_power_entry's two same-parity columns share one prefix array;
        # the fourth power and the triple product keep every bit of the form
        # that built a prefix array per column.
        m, n, size = case
        column_n = one_square_column(n, size)
        if (m + n) % 2 == 0:
            expected = operator._fsum(one_square_column(m, size) * column_n)
            assert quad_power_entry(m, n, size).hex() == expected.hex()
        else:
            row = operator._closed_form(m, operator._partners(m, size))
            expected = operator._fsum(row * column_n)
            assert triple_product_sum(m, n, size).hex() == expected.hex()


class TestClosedFormAgainstDense:
    @settings(deadline=None)
    @given(labels_and_size)
    @example((35, 2, 36))
    @example((252, 183, 253))
    @example((63, 54, 63))
    def test_triple_product(self, case):
        # near the cutoff the r-sum can cancel a millionfold, which no float
        # evaluation survives in relative terms: the bound also scales with
        # the sum of absolute terms, as the fourth power's does
        m, n, size = case
        dense, scale = dense_triple_product(m, n, size)
        error = abs(triple_product_sum(m, n, size) - dense)
        assert error <= max(1e-12 * abs(dense), 64 * np.finfo(float).eps * scale)

    @settings(deadline=None)
    @given(labels_and_size)
    def test_fourth_power(self, case):
        # off-diagonal entries cancel, so the bound scales with the sum of
        # absolute products; on the diagonal that is the entry itself
        m, n, size = case
        dense, scale = dense_fourth_power_entry(m, n, size)
        assert abs(quad_power_entry(m, n, size) - dense) <= 1e-12 * scale

    @settings(deadline=None)
    @given(labels_and_size)
    def test_square_column(self, case):
        _, n, size = case
        square = squared_momentum(size)
        rows = np.arange(2 - n % 2, size + 1, 2) - 1  # r + n even
        error = np.abs(products._square_columns(size, n)[0] - square[rows, n - 1]).max()
        assert error <= 1e-13 * np.abs(square).max()
        assert not np.delete(square[:, n - 1], rows).any()

    @settings(deadline=None)
    @given(labels_and_size)
    def test_sums_skip_only_exact_zeros(self, case):
        # Each O(N) sum runs over the labels where its terms can be nonzero;
        # math.fsum over the full-length vectors, zeros included, rounds the
        # same exact sum.
        m, n, size = case
        a = momentum_array(size)
        columns = np.zeros((2, size))
        for column, label in zip(columns, (m, n)):
            column[1 - label % 2 :: 2] = products._square_columns(size, label)[0]

        def full(x, y):
            return math.fsum((x * y).tolist()).hex()

        assert quad_power_entry(m, n, size).hex() == full(columns[0], columns[1])
        p2 = p2_partial_sum(m, n, size)
        assert p2.hex() == full(a[m - 1], a[n - 1])
        if (m + n) % 2 == 1:
            assert triple_product_sum(m, n, size).hex() == full(a[m - 1], columns[1])
            assert p2 == 0.0 and math.copysign(1.0, p2) == 1.0

    @settings(deadline=None)
    @given(labels_and_size)
    def test_same_parity_triple_product_is_negative_zero(self, case):
        m, n, size = case
        assume((m + n) % 2 == 0)
        value = triple_product_sum(m, n, size)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
        assert format(value, ".6g") == "-0"

    def test_prefix_sums_do_not_drift(self):
        # D-style terms: reciprocals of odd integers taken outward from a
        # cutoff; a bare np.cumsum drifts to ~1e-14 relative here
        size = 200_000
        k = np.arange(1.0, size + 1.0)
        k[::2] = size - k[::2]
        k[1::2] += size - 1
        terms = 1.0 / k
        prefix = products._prefix_sums(terms.copy())
        for end in np.linspace(1, size, 40).astype(int):
            exact = math.fsum(terms[:end].tolist())
            assert abs(prefix[end] - exact) <= 2**-52 * exact

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(deadline=None)
    @given(st.integers(1, 3000))
    @example(1)
    @example(2)
    @example(1000)
    @example(1001)
    def test_prefix_sums_of_d_are_within_two_units_of_exact(self, parity, size):
        # Every D(x) is within 2u of the exact sum of its rounded terms.
        terms = d_terms(size, parity)
        exact = exact_prefixes(terms)
        got = products._prefix_sums(terms)
        assert all(abs(Fraction(x) - s) <= 2 * U * s for x, s in zip(got.tolist(), exact))

    @settings(deadline=None)
    @given(st.integers(0, 2000), st.integers(0, 2**32 - 1))
    def test_prefix_sums_keep_the_sum2_bound(self, size, seed):
        # Terms of mixed sign spread over 20 decades either side of 1: every
        # prefix is within u |S_k| + gamma_k^2 sum_{j<=k} |t_j| of the exact
        # S_k, gamma_k = k u / (1 - k u) (Ogita, Rump and Oishi 2005,
        # Proposition 4.5).
        rng = np.random.default_rng(seed)
        terms = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 21, size)
        exact = exact_prefixes(terms)
        magnitudes = exact_prefixes(np.abs(terms))
        got = products._prefix_sums(terms)
        for k, (x, s, a) in enumerate(zip(got.tolist(), exact, magnitudes)):
            gamma = k * U / (1 - k * U)
            assert abs(Fraction(x) - s) <= U * abs(s) + gamma**2 * a, k
