import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import momtrunc
from momtrunc import operator, products, spectra, tails
from momtrunc.operator import (
    TruncatedMatrix,
    momentum_array,
    momentum_entry,
    momentum_row,
    p2_exact_entry,
    p3_hermitian_entry,
    p3_naive_entry,
    quadrature_entry,
)

A12 = 8.0 / (3.0 * math.pi)


class TestMomentumEntry:
    def test_even_label_sum_vanishes(self):
        assert momentum_entry(1, 3) == 0.0
        assert momentum_entry(2, 2) == 0.0
        assert momentum_entry(4, 10) == 0.0

    def test_closed_form_value(self):
        assert momentum_entry(1, 2) == pytest.approx(A12, rel=1e-14)
        # cross-check by the independent quadrature oracle
        real, ifac = quadrature_entry(1, 2, 1)
        assert abs(ifac - momentum_entry(1, 2)) <= 1e-10
        assert abs(real) <= 1e-10

    def test_swap_negates_exactly(self):
        assert momentum_entry(2, 1) == -momentum_entry(1, 2)

    def test_antisymmetry_grid_exact(self):
        for m in range(1, 201):
            for n in range(1, 201):
                assert momentum_entry(m, n) == -momentum_entry(n, m)

    @given(m=st.integers(1, 500), n=st.integers(1, 500))
    def test_antisymmetry_and_parity(self, m, n):
        value = momentum_entry(m, n)
        assert value == -momentum_entry(n, m)
        if (m + n) % 2 == 0:
            assert value == 0.0
        else:
            assert value != 0.0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            momentum_entry(0, 1)
        with pytest.raises(ValueError):
            momentum_entry(1, -3)
        with pytest.raises(ValueError):
            momentum_entry(1.5, 2)
        with pytest.raises(ValueError):
            momentum_entry(True, 2)


class TestQuadratureOracle:
    def test_first_derivative_matches_entries(self):
        for m in range(1, 13):
            for n in range(1, 13):
                real, ifac = quadrature_entry(m, n, 1)
                assert abs(ifac - momentum_entry(m, n)) <= 1e-9
                assert abs(real) <= 1e-9

    def test_second_derivative_matches_exact_square(self):
        for m in range(1, 13):
            for n in range(1, 13):
                real, ifac = quadrature_entry(m, n, 2)
                assert abs(real - p2_exact_entry(m, n)) <= 1e-9
                assert abs(ifac) <= 1e-9

    def test_third_derivative_matches_naive_cube(self):
        # gate for the closed form n^2 a_mn, which no reference prints
        for m in range(1, 13):
            for n in range(1, 13):
                real, ifac = quadrature_entry(m, n, 3)
                assert abs(ifac - p3_naive_entry(m, n)) <= 1e-9
                assert abs(real) <= 1e-9

    def test_spot_values(self):
        _, ifac = quadrature_entry(1, 2, 1)
        assert ifac == pytest.approx(0.8488264, abs=5e-8)
        real, ifac = quadrature_entry(3, 3, 2)
        assert real == pytest.approx(9.0, abs=1e-10)
        assert ifac == pytest.approx(0.0, abs=1e-10)
        _, ifac = quadrature_entry(1, 2, 3)
        assert ifac == pytest.approx(4.0 * A12, abs=1e-9)

    def test_rejects_bad_derivative_order(self):
        with pytest.raises(ValueError):
            quadrature_entry(1, 2, 0)
        with pytest.raises(ValueError):
            quadrature_entry(1, 2, 4)
        # Not integers, though True == 1 and 3.0 == 3.
        for bad in (True, 3.0):
            with pytest.raises(ValueError):
                quadrature_entry(1, 2, bad)

    def test_refuses_labels_above_2048(self):
        quadrature_entry(2048, 2047, 3)
        for m, n in [(2049, 1), (1, 2049), (4096, 4095)]:
            with pytest.raises(ValueError):
                quadrature_entry(m, n, 1)

    @pytest.mark.parametrize(
        "m, n", [(2048, 2047), (2047, 2046), (2048, 2048), (2045, 2048), (1, 2048)]
    )
    def test_scaled_bound_near_largest_label(self, m, n):
        # each part's error is within 2.5e-13 max(m, n)^k up to label 2048
        exact = {1: momentum_entry, 2: p2_exact_entry, 3: p3_naive_entry}
        for k in (1, 2, 3):
            real, ifac = quadrature_entry(m, n, k)
            value, other = (real, ifac) if k == 2 else (ifac, real)
            bound = 2.5e-13 * max(m, n) ** k
            assert abs(value - exact[k](m, n)) <= bound
            assert abs(other) <= bound


class TestPowerEntries:
    def test_exact_square(self):
        assert p2_exact_entry(5, 5) == 25.0
        assert p2_exact_entry(5, 7) == 0.0
        assert p2_exact_entry(1, 1) == 1.0

    def test_naive_cube_values(self):
        assert p3_naive_entry(1, 2) == pytest.approx(4.0 * A12, rel=1e-14)
        assert p3_naive_entry(2, 1) == pytest.approx(-A12, rel=1e-14)
        assert p3_naive_entry(2, 4) == 0.0

    def test_naive_cube_is_not_hermitian(self):
        # i-factored Hermiticity would demand antisymmetry under the swap
        assert p3_naive_entry(1, 2) != -p3_naive_entry(2, 1)
        assert p3_naive_entry(1, 2) == pytest.approx(
            -4.0 * p3_naive_entry(2, 1), rel=1e-14
        )

    def test_hermitian_part_values(self):
        assert p3_hermitian_entry(1, 2) == 2.5 * momentum_entry(1, 2)
        assert p3_hermitian_entry(1, 2) == pytest.approx(2.122, abs=5e-4)
        assert p3_hermitian_entry(2, 3) == pytest.approx(9.931, abs=5e-4)
        assert p3_hermitian_entry(20, 31) == pytest.approx(957.56, abs=5e-3)

    def test_hermitian_part_is_average_of_one_sided_products(self):
        for m in range(1, 101, 7):
            for n in range(1, 101, 5):
                average = 0.5 * (p3_naive_entry(m, n) - p3_naive_entry(n, m))
                assert p3_hermitian_entry(m, n) == pytest.approx(
                    average, rel=1e-12, abs=1e-15
                )


class TestMatrixBuilders:
    def test_order_one_is_zero(self):
        assert momentum_array(1).tolist() == [[0.0]]

    def test_order_two(self):
        a = momentum_array(2)
        assert a[0, 1] == pytest.approx(A12, rel=1e-14)
        assert a[1, 0] == -a[0, 1]
        assert a[0, 0] == 0.0 and a[1, 1] == 0.0

    def test_exact_antisymmetry(self):
        a = momentum_array(50)
        assert np.array_equal(a, -a.T)

    def test_matrix_matches_scalar_entries(self):
        a = momentum_array(12)
        for m in range(1, 13):
            for n in range(1, 13):
                assert a[m - 1, n - 1] == momentum_entry(m, n)

    def test_row_matches_matrix_row(self):
        a = momentum_array(40)
        assert np.array_equal(momentum_row(3, 40), a[2])
        assert np.array_equal(momentum_row(40, 40), a[39])

    def test_arrays_are_read_only(self):
        a = momentum_array(10)
        with pytest.raises(ValueError):
            a[0, 1] = 5.0

    def test_truncated_matrix_validates_shape(self):
        with pytest.raises(ValueError):
            TruncatedMatrix(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            TruncatedMatrix(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            TruncatedMatrix(np.zeros(4))
        assert TruncatedMatrix(np.zeros((3, 3))).order == 3

    def test_square_is_parity_decoupled_exactly(self):
        square = operator._square_array(7)
        for m in range(1, 8):
            for n in range(1, 8):
                if (m + n) % 2 == 1:
                    assert square[m - 1, n - 1] == 0.0

    @pytest.mark.parametrize(
        "build, size",
        [(momentum_array, 2000), (operator._square_array, 1999)],
        ids=["momentum_array", "_square_array"],
    )
    def test_dense_builders_peak_low_and_keep_nothing(self, build, size):
        # Assembled from one W, with no cache: below 2 N^2 doubles at peak,
        # and nothing of that size traced once the result is gone.
        doubles = 8 * size * size
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = build(size)
            peak = tracemalloc.get_traced_memory()[1] - start
            del result
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * doubles
        assert kept < doubles / 100


def test_package_exports_each_modules_public_names():
    modules = (operator, products, spectra, tails)
    names = [name for module in modules for name in module.__all__]
    assert momtrunc.__all__ == names + ["__version__"]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(momtrunc, name) is getattr(module, name)
    assert "largest_order" not in names
