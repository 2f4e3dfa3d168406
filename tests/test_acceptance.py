"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The oracle gate runs first; the remaining criteria are only
meaningful once it passes.
"""

import math

import numpy as np
import pytest

from conftest import TABLE1, TABLE2, tol_from_printed
from momtrunc import products, spectra, tails
from momtrunc.operator import (
    momentum_entry,
    p2_exact_entry,
    p3_hermitian_entry,
    p3_naive_entry,
    quadrature_entry,
)


def _verdict(num, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def eig999():
    return spectra.eigen_symmetric(spectra.squared_momentum(999))


@pytest.fixture(scope="module")
def eig1000():
    return spectra.eigen_symmetric(spectra.squared_momentum(1000))


@pytest.fixture(scope="module")
def eig_repaired():
    return spectra.eigen_symmetric(spectra.truncate_after_squaring(1000, 1))


def test_criterion_9_oracle_gate():
    """Quadrature agrees with all three closed forms for labels up to 30."""
    worst = 0.0
    for m in range(1, 31):
        for n in range(1, 31):
            real, ifac = quadrature_entry(m, n, 1)
            worst = max(worst, abs(ifac - momentum_entry(m, n)), abs(real))
            real, ifac = quadrature_entry(m, n, 2)
            worst = max(worst, abs(real - p2_exact_entry(m, n)), abs(ifac))
            real, ifac = quadrature_entry(m, n, 3)
            worst = max(worst, abs(ifac - p3_naive_entry(m, n)), abs(real))
    _verdict(9, worst <= 1e-9, f"oracle gate worst deviation {worst:.2e} (<= 1e-9)")


def test_criterion_1_triple_product_table():
    """All 24 triple-product cells and 4 targets match printed digits."""
    failures = []
    for (m, n), row in TABLE1.items():
        for key, printed in row.items():
            if key == "target":
                value = p3_hermitian_entry(m, n)
            else:
                value = products.triple_product_sum(m, n, key)
            if abs(value - float(printed)) > tol_from_printed(printed):
                failures.append(f"({m},{n},{key}): {value!r} vs {printed}")
    _verdict(
        1,
        not failures,
        f"24 cells + 4 targets within half a printed unit"
        + (f"; mismatches: {failures}" if failures else ""),
    )


def test_criterion_2_squared_spectra_table(eig999, eig1000, eig_repaired):
    """Eigenvalues of both complete squares and the repaired one match."""
    columns = [eig999.eigenvalues, eig_repaired.eigenvalues, eig1000.eigenvalues]
    failures = []
    for rank, entries in TABLE2.items():
        for col, printed in enumerate(entries):
            if printed is None:
                continue
            value = float(columns[col][rank - 1])
            if abs(value - float(printed)) > tol_from_printed(printed):
                failures.append(f"rank {rank} col {col}: {value!r} vs {printed}")
    _verdict(
        2,
        not failures,
        "all printed eigenvalues (ranks 1-5, 996-1000) reproduced"
        + (f"; mismatches: {failures}" if failures else ""),
    )


def test_criterion_3_square_partial_sums():
    """Partial sums reach m n delta_mn at 1e-3 and decay like 1/size."""
    size = 10**5
    worst_value = 0.0
    bad_slopes = []
    for m in range(1, 6):
        for n in range(1, 6):
            exact = p2_exact_entry(m, n)
            error = abs(products.p2_partial_sum(m, n, size) - exact)
            worst_value = max(worst_value, error)
            if (m + n) % 2 == 0:
                sizes = [10**3, 10**4, 10**5]
                errors = [
                    abs(products.p2_partial_sum(m, n, s) - exact) for s in sizes
                ]
                slope = float(np.polyfit(np.log10(sizes), np.log10(errors), 1)[0])
                if not -1.2 <= slope <= -0.8:
                    bad_slopes.append(f"({m},{n}): {slope:.3f}")
            else:
                assert products.p2_partial_sum(m, n, size) == 0.0
    ok = worst_value <= 1e-3 and not bad_slopes
    _verdict(
        3,
        ok,
        f"worst error {worst_value:.2e} (<= 1e-3), slopes in [-1.2, -0.8]"
        + (f"; out of window: {bad_slopes}" if bad_slopes else ""),
    )


def test_criterion_4_pairing_and_degeneracy(eig1000, eig_repaired):
    """Zero modes, opposite pairs, doublets, and repaired nondegeneracy."""
    pairing = spectra.spectrum_pairing(999)
    ok_999 = pairing.ok and pairing.zero_modes == 1 and pairing.pair_count == 499
    doublets = eig1000.degeneracy_groups
    ok_1000 = len(doublets) == 500 and all(mult == 2 for _, mult in doublets)
    repaired_groups = eig_repaired.degeneracy_groups
    ok_repaired = len(repaired_groups) == 999 and all(
        mult == 1 for _, mult in repaired_groups
    )
    _verdict(
        4,
        ok_999 and ok_1000 and ok_repaired,
        f"order 999: one zero mode + {pairing.pair_count} pairs; "
        f"order 1000: {len(doublets)} doublets at 1e-6 relative; "
        f"repaired: {len(repaired_groups)} simple eigenvalues",
    )


def test_criterion_5_block_identity():
    """Deleting the trailing row/column preserves parity blocks exactly."""
    repaired = spectra.truncate_after_squaring(1000, 1)
    full = spectra.squared_momentum(1000)
    smaller = spectra.squared_momentum(999)
    odd = np.arange(0, 999, 2)
    even = np.arange(1, 999, 2)
    odd_ok = np.array_equal(repaired[np.ix_(odd, odd)], full[np.ix_(odd, odd)])
    even_ok = np.array_equal(repaired[np.ix_(even, even)], smaller[np.ix_(even, even)])
    _verdict(
        5,
        odd_ok and even_ok,
        f"odd-odd block equals order-1000 square: {odd_ok}; "
        f"even-even block equals order-999 square: {even_ok} (entrywise exact)",
    )


def test_criterion_6_divergence_contrast():
    """The fourth power diverges while the triple product converges."""
    q4 = {size: abs(products.quad_power_entry(1, 1, size) - 1.0) for size in (500, 1000, 2000)}
    diverges = q4[2000] > q4[1000] > q4[500]
    target = 2.12207
    t500 = abs(products.triple_product_sum(1, 2, 500) - target)
    t2000 = abs(products.triple_product_sum(1, 2, 2000) - target)
    converges = t2000 < t500
    _verdict(
        6,
        diverges and converges,
        f"|fourth power - 1| grows {q4[500]:.1f} -> {q4[1000]:.1f} -> {q4[2000]:.1f}; "
        f"triple-product error shrinks {t500:.2e} -> {t2000:.2e}",
    )


def test_criterion_7_middle_sum_linear_divergence():
    """The middle-index expansion grows linearly with a nonzero rate."""
    v2000 = products.pp2p_partial_sum(1, 3, 2000) / 2000.0
    v4000 = products.pp2p_partial_sum(1, 3, 4000) / 4000.0
    rel = abs(v2000 - v4000) / abs(v4000)
    ok = rel <= 0.05 and v4000 != 0.0
    _verdict(
        7,
        ok,
        f"per-size rate {v2000:.5f} vs {v4000:.5f} agrees to {rel:.2%} (<= 5%), nonzero",
    )


def test_criterion_8_tail_asymptotics():
    """Telescoping closed form, quadratic decay, growth and cancellation."""
    telescope_ok = all(
        abs(tails.telescoping_sum(k) - tails.telescoping_closed_form(k)) <= 1e-14
        for k in (0, 1, 10, 10**6)
    )
    ratios = [
        tails.boundary_contribution(1, 2, 2 * size)
        / tails.boundary_contribution(1, 2, size)
        for size in (200, 400, 800)
    ]
    ratio_ok = all(0.15 <= r <= 0.40 for r in ratios)
    parts = [tails.tail_approximation_parts(10**4, k) for k in (10, 100, 1000)]
    growth_ok = all(
        abs(parts[i][0]) < abs(parts[i + 1][0]) and parts[i][1] < parts[i + 1][1]
        for i in range(len(parts) - 1)
    )
    scaled = [
        abs(size * tails.tail_approximation(size, size // 10))
        for size in (10**3, 10**4, 10**5)
    ]
    vanish_ok = scaled[0] > scaled[1] > scaled[2]
    _verdict(
        8,
        telescope_ok and ratio_ok and growth_ok and vanish_ok,
        f"telescoping <= 1e-14; decay ratios {[f'{r:.3f}' for r in ratios]} in "
        f"[0.15, 0.40]; parts grow while scaled combination falls "
        f"{[f'{s:.1e}' for s in scaled]}",
    )
