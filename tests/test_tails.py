import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momtrunc.tails import (
    boundary_contribution,
    tail_approximation,
    tail_approximation_parts,
    tail_estimate,
    telescoping_closed_form,
    telescoping_sum,
)

# frozen from a 40-digit evaluation of the same sums
BOUNDARY_REFERENCE = {
    (1, 2, 200): 3.952033224766242e-05,
    (1, 2, 1000): 1.971191521288045e-06,
    (3, 4, 400): 1.0952202813002398e-05,
}


class TestTelescoping:
    def test_single_term(self):
        assert telescoping_sum(0) == -1.0

    def test_two_terms(self):
        assert telescoping_sum(1) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert telescoping_closed_form(1) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("k_max", [0, 1, 10, 1000, 10**6])
    def test_matches_closed_form(self, k_max):
        assert abs(telescoping_sum(k_max) - telescoping_closed_form(k_max)) <= 1e-14

    @given(k_max=st.integers(0, 20000))
    def test_closed_form_property(self, k_max):
        assert abs(telescoping_sum(k_max) - telescoping_closed_form(k_max)) <= 1e-14

    def test_shifted_sum_vanishes_at_exact_rate(self):
        for k_max in (10, 100, 1000):
            shifted = 0.5 + telescoping_sum(k_max)
            assert shifted == pytest.approx(-0.5 / (2 * k_max + 1), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            telescoping_sum(-1)

    @pytest.mark.parametrize("k_max", [True, 2.5, -1])
    def test_closed_form_rejects_what_the_sum_rejects(self, k_max):
        with pytest.raises(ValueError):
            telescoping_sum(k_max)
        with pytest.raises(ValueError):
            telescoping_closed_form(k_max)


class TestTailApproximation:
    def test_single_pair_of_terms(self):
        # k = 0 of the column sum and k = 1 of the row sum
        expected = 1.0 / 1997.0 - 1.0 / 1999.0
        assert tail_approximation(1000, 1) == pytest.approx(expected, rel=1e-12)
        assert tail_approximation(1000, 1) == pytest.approx(5.01e-7, abs=5e-10)

    def test_parts_grow_individually(self):
        sizes = [10, 100, 1000]
        columns, rows = zip(*(tail_approximation_parts(10**4, k) for k in sizes))
        assert abs(columns[0]) < abs(columns[1]) < abs(columns[2])
        assert rows[0] < rows[1] < rows[2]

    def test_combination_cancels(self):
        column, row = tail_approximation_parts(10**4, 1000)
        assert abs(column + row) < 1e-3 * abs(column)

    def test_scaled_combination_vanishes_monotonically(self):
        scaled = [
            abs(size * tail_approximation(size, size // 10))
            for size in (10**3, 10**4, 10**5)
        ]
        assert scaled[0] > scaled[1] > scaled[2]

    def test_validates_regime(self):
        with pytest.raises(ValueError):
            tail_approximation(1000, 101)  # beyond size // 10
        with pytest.raises(ValueError):
            tail_approximation(999, 10)  # odd size
        with pytest.raises(ValueError):
            tail_approximation(1000, 0)


class TestBoundaryContribution:
    @pytest.mark.parametrize("m,n,size", sorted(BOUNDARY_REFERENCE))
    def test_matches_high_precision_reference(self, m, n, size):
        assert boundary_contribution(m, n, size) == pytest.approx(
            BOUNDARY_REFERENCE[(m, n, size)], rel=1e-10
        )

    @pytest.mark.parametrize("m,n", [(1, 2), (3, 4)])
    def test_quadratic_decay_ratio_window(self, m, n):
        for size in (200, 400, 800):
            ratio = boundary_contribution(m, n, 2 * size) / boundary_contribution(
                m, n, size
            )
            assert 0.15 <= ratio <= 0.40

    @pytest.mark.parametrize("m,n", [(1, 2), (3, 4)])
    def test_cancellation_leaves_log_over_size_squared(self, m, n):
        for size in (10**4, 10**5, 10**6):
            scaled = size**2 * boundary_contribution(m, n, size)
            limit = (math.log(4 * size) + np.euler_gamma - 1.0) / 4.0
            assert abs(scaled - limit) <= math.log(size) / size, size

    def test_near_boundary_approximation_tracks_exact(self):
        exact = boundary_contribution(1, 2, 1000)
        approx = tail_approximation(1000, 100)
        assert abs(approx - exact) <= 0.2 * abs(exact)

    def test_validates_parities_and_regime(self):
        with pytest.raises(ValueError):
            boundary_contribution(2, 2, 200)  # m must be odd
        with pytest.raises(ValueError):
            boundary_contribution(1, 3, 200)  # n must be even
        with pytest.raises(ValueError):
            boundary_contribution(1, 2, 201)  # size must be even
        with pytest.raises(ValueError):
            boundary_contribution(1, 2, 20)  # size below 10 (m + n)


class TestTailEstimate:
    def test_bundles_all_three_stages(self):
        estimate = tail_estimate(1, 2, 1000)
        assert estimate.exact == boundary_contribution(1, 2, 1000)
        assert estimate.near_boundary == tail_approximation(1000, 100)
        assert estimate.telescoped == (0.5 + telescoping_sum(100)) / 1000
        assert all(
            math.isfinite(v)
            for v in (estimate.exact, estimate.near_boundary, estimate.telescoped)
        )
