import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import momtrunc
from momtrunc import operator, products, spectra, tails
from momtrunc.exact import _check_index
from momtrunc.operator import (
    momentum_array,
    momentum_entry,
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
        for m in (3, 40):
            s = operator._partners(m, 40)
            where = s.astype(int) - 1
            assert np.array_equal(a[m - 1, where], operator._closed_form(m, s))
            assert not np.delete(a[m - 1], where).any()

    def test_arrays_are_read_only(self):
        a = momentum_array(10)
        with pytest.raises(ValueError):
            a[0, 1] = 5.0

    def test_square_is_parity_decoupled_exactly(self):
        square = spectra.squared_momentum(7)
        for m in range(1, 8):
            for n in range(1, 8):
                if (m + n) % 2 == 1:
                    assert square[m - 1, n - 1] == 0.0

    @pytest.mark.parametrize(
        "build, size",
        [(momentum_array, 2000), (spectra.squared_momentum, 1999)],
        ids=["momentum_array", "squared_momentum"],
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


class TestExactSum:
    def test_holds_constant_python_memory(self):
        # No list of the N terms (32 bytes each) is built: 32 MB here.
        terms = np.ones(10**6)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            operator._fsum(terms)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    @pytest.mark.parametrize("layout", ["strided", "reversed", "empty", "read-only"])
    def test_matches_fsum_of_the_list_for_any_layout(self, layout):
        values = (-1.0) ** np.arange(2001) / np.arange(1.0, 2002.0)
        read_only = values.copy()
        read_only.flags.writeable = False
        terms = {
            "strided": values[::3],
            "reversed": values[::-1],
            "empty": values[:0],
            "read-only": read_only,
        }[layout]
        assert operator._fsum(terms).hex() == math.fsum(terms.tolist()).hex()


def test_package_exports_each_modules_public_names():
    modules = (operator, products, spectra, tails)
    names = [name for module in modules for name in module.__all__]
    assert momtrunc.__all__ == names + ["__version__"]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(momtrunc, name) is getattr(module, name)
    assert "largest_order" not in names


def test_package_names_are_unchanged():
    assert momtrunc.__all__ == [
        "momentum_entry", "momentum_array", "quadrature_entry", "p2_exact_entry",
        "p3_naive_entry", "p3_hermitian_entry",
        "triple_product_sum", "p2_partial_sum", "associativity_gap",
        "pp2p_partial_sum", "quad_power_entry",
        "SpectrumReport", "PairingReport", "NearInteger", "eigen_symmetric",
        "singular_spectra", "squared_momentum", "spectrum_pairing",
        "near_integer_check", "truncate_after_squaring",
        "boundary_contribution", "tail_approximation", "tail_approximation_parts",
        "telescoping_sum", "telescoping_closed_form", "TailEstimate", "tail_estimate",
        "__version__",
    ]
    namespace = {}
    exec("from momtrunc import *", namespace)
    assert all(namespace[name] is getattr(momtrunc, name) for name in momtrunc.__all__)
    assert spectra.spectrum_pairing is momtrunc.spectrum_pairing


def test_package_import_loads_no_numpy():
    code = (
        "import sys\n"
        "import momtrunc\n"
        "print('numpy' in sys.modules)\n"
        "momtrunc.operator.momentum_array\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", "True"]


@pytest.mark.parametrize(
    "name, absent",
    [
        ("momentum_entry", {"numpy", "momtrunc.operator"}),
        ("spectrum_pairing", {"numpy", "momtrunc.spectra"}),
        ("triple_product_sum", {"momtrunc.spectra", "momtrunc.tails"}),
        ("boundary_contribution", {"momtrunc.products", "momtrunc.spectra"}),
    ],
)
def test_package_name_loads_only_its_own_module(name, absent):
    # A name exact defines loads no numpy; any other loads its own module
    # and what that module imports.
    code = f"import sys\nfrom momtrunc import {name}\nprint(*sys.modules)\n"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "momtrunc.exact" in loaded
    assert not loaded & absent


@pytest.mark.parametrize(
    "value", [1, np.int8(1), np.int32(1), np.int64(1), np.uint64(1)], ids=repr
)
def test_check_index_accepts_integers(value):
    assert _check_index(value) == 1
    assert type(_check_index(value)) is int


@pytest.mark.parametrize(
    "value",
    [True, np.bool_(True), 1.0, np.float64(1), "1", None, Fraction(1)],
    ids=repr,
)
def test_check_index_refuses_other_values(value):
    with pytest.raises(ValueError, match="must be an integer"):
        _check_index(value)
