"""Workload definitions and output checks for the momtrunc benchmark.

A workload is a list of CLI invocations built from a seed.  The seed picks
pair labels and the table2 deletion count only, never truncation sizes, so
the work per run does not depend on it.  Every invocation carries a check
that returns a list of problems found in the report text (empty when the
report is right).

Checked claims use targets recomputed here with stdlib ``math``, never the
package's own functions, so a bug in the package cannot hide in its check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[str], list[str]]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_COMMANDS = (
    "table1",
    "table2",
    "p2check",
    "assoc",
    "diverge",
    "tails",
    "spectrum-pairs",
)

TABLE1_SIZES = (1999, 2000, 3999, 4000)
DIVERGE_SIZES = (500, 1000, 2000, 4000)
SPECTRA_SIZES = (1999, 2000)
# Diverge labels stay far below the smallest size: with labels up to 16
# the fitted growth slope is within 0.02 of 1 at sizes 500..4000, while
# labels near 200 bend it towards 2.
DIVERGE_MAX_LABEL = 16
TABLE1_MAX_LABEL = 200

# The library's own tolerances (momtrunc.spectra): a zero mode of the
# square is at most 1e-8 of its largest eigenvalue, and paired eigenvalues
# agree to 1e-6 relative.
ZERO_FRACTION = 1e-8
PAIR_TOL = 1e-6
# A printed %.7g value carries up to half a unit in its 7th digit.
PRINT7 = 5e-7
# Delete-after-squaring repair: the ten lowest eigenvalues at order ~2000
# are within 1% of k^2 (relative; the absolute error of the 10th is ~0.17).
REPAIR_TOL = 1e-2
TABLE1_TOL = 1e-2
SLOPE_TOL = 0.05
# Middle-index partial sums grow linearly: their slope between the two
# largest sizes matches the slope between the two smallest to 1% (it does
# to 0.1% for labels up to 16).
LINEAR_TOL = 0.01


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    check: Check


def momentum_entry(m: int, n: int) -> float:
    if (m + n) % 2 == 0:
        return 0.0
    return -4.0 * m * n / (math.pi * (m * m - n * n))


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise ValueError("report does not end with a newline")
    header, *body = lines[:-1]
    return header.split(","), [line.split(",") for line in body]


def _parse(text: str, columns: list[str], count: int) -> list[list[str]]:
    header, rows = _rows(text)
    if header != columns:
        raise ValueError(f"header {header} != {columns}")
    if len(rows) != count:
        raise ValueError(f"{len(rows)} rows, expected {count}")
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row} has {len(row)} cells")
    return rows


def _guarded(check: Check) -> Check:
    """Turn a malformed report (parse error) into a reported problem."""

    def run(text: str) -> list[str]:
        try:
            return check(text)
        except ValueError as exc:
            return [f"malformed report: {exc}"]

    return run


# --- defaults: byte-for-byte against reference outputs ----------------------

def _zero_mode_ok(column: list[float], value: float) -> bool:
    return abs(value) <= ZERO_FRACTION * max(column)


def _noise_cells(command: str, header: list[str], rows: list[list[str]]) -> dict:
    """Cells that legitimately move with BLAS rounding, with their checks.

    table2's rank-1 ``complete_<odd>`` cell is the zero mode; spectrum-pairs'
    ``max_pair_gap`` cells are rounding-level gaps.  Each is checked against
    the library's tolerance instead of the reference bytes.
    """
    cells: dict[tuple[int, int], Callable[[str], bool]] = {}
    if command == "table2":
        for j, name in enumerate(header):
            if name.startswith("complete_") and int(name.split("_")[1]) % 2 == 1:
                column = [float(r[j]) for r in rows if r[j]]
                cells[(0, j)] = lambda cell, col=column: _zero_mode_ok(col, float(cell))
    if command == "spectrum-pairs":
        j = header.index("max_pair_gap")
        for i in range(len(rows)):
            cells[(i, j)] = lambda cell: 0.0 <= float(cell) <= PAIR_TOL
    return cells


def reference_check(command: str) -> Check:
    reference = (REFERENCE_DIR / f"{command}.csv").read_text(encoding="utf-8")
    ref_header, ref_rows = _rows(reference)

    def check(text: str) -> list[str]:
        if text == reference:
            return []
        rows = _parse(text, ref_header, len(ref_rows))
        noise = _noise_cells(command, ref_header, rows)
        problems = []
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for j, (cell, ref_cell) in enumerate(zip(row, ref_row)):
                ok = noise[(i, j)](cell) if (i, j) in noise else cell == ref_cell
                if not ok:
                    problems.append(
                        f"{command} row {i + 1} {ref_header[j]}: {cell!r} (reference {ref_cell!r})"
                    )
        return problems

    return _guarded(check)


# --- seeded workloads: the paper's claims ------------------------------------

def _half_unit(printed: str, digits: int) -> float:
    """Half a unit in the last place of a value printed with ``digits``."""
    value = abs(float(printed))
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - digits + 1) if value else 0.0


def triple_product_step(m: int, n: int, size: int) -> float:
    """T(size) - T(size - 1) for T(N) = -sum_{r,s<=N} a_mr a_rs a_sn.

    The step adds row r = size (all s) and column s = size (r < size), so
    it costs O(size) here, while each T costs O(size^2).
    """
    row = math.fsum(momentum_entry(size, s) * momentum_entry(s, n) for s in range(1, size + 1))
    col = math.fsum(momentum_entry(m, r) * momentum_entry(r, size) for r in range(1, size))
    return -(momentum_entry(m, size) * row + col * momentum_entry(size, n))


def table1_check(pairs: list[tuple[int, int]], sizes: tuple[int, ...]) -> Check:
    """Targets, the error at the largest size, and every step N-1 -> N.

    The step between consecutive printed sizes must equal the exactly
    summed O(N) increment to within the rounding of the printed values.
    """
    columns = ["m", "n", "size", "triple_product", "target", "abs_error"]

    def check(text: str) -> list[str]:
        rows = _parse(text, columns, len(pairs) * len(sizes))
        problems = []
        for k, row in enumerate(rows):
            m, n = pairs[k // len(sizes)]
            size = sizes[k % len(sizes)]
            if [int(c) for c in row[:3]] != [m, n, size]:
                problems.append(f"table1 row {k + 1} labels {row[:3]}")
                continue
            target = 0.5 * (m * m + n * n) * momentum_entry(m, n)
            printed = float(row[4])
            if abs(printed - target) > 1e-5 * abs(target):
                problems.append(f"table1 ({m},{n}) target {printed} != {target}")
            if size == sizes[-1]:
                error = abs(float(row[3]) - target) / abs(target)
                if error > TABLE1_TOL:
                    problems.append(f"table1 ({m},{n}) N={size} relative error {error:.2e}")
            if k % len(sizes) and sizes[k % len(sizes) - 1] == size - 1:
                before = rows[k - 1][3]
                step = float(row[3]) - float(before)
                slack = _half_unit(row[3], 6) + _half_unit(before, 6)
                exact = triple_product_step(m, n, size)
                if abs(step - exact) > slack * (1 + 1e-9):
                    problems.append(f"table1 ({m},{n}) step to N={size}: {step:.6g}, exact {exact:.6g}")
        return problems

    return _guarded(check)


def diverge_check(pairs: list[tuple[int, int]], sizes: tuple[int, ...]) -> Check:
    columns = [
        "m",
        "n",
        "size",
        "fourth_power",
        "exact_fourth_power",
        "middle_sum_partial",
        "growth_slope",
    ]

    def check(text: str) -> list[str]:
        rows = _parse(text, columns, len(pairs) * len(sizes))
        problems = []
        for p, (m, n) in enumerate(pairs):
            block = rows[p * len(sizes) : (p + 1) * len(sizes)]
            if [[int(c) for c in r[:3]] for r in block] != [[m, n, s] for s in sizes]:
                problems.append(f"diverge ({m},{n}) labels")
                continue
            exact = float(m * m * n * n) if m == n else 0.0
            if any(float(r[4]) != exact for r in block):
                problems.append(f"diverge ({m},{n}) exact fourth power != {exact}")
            slope = float(block[0][6])
            if abs(slope - 1.0) > SLOPE_TOL:
                problems.append(f"diverge ({m},{n}) growth slope {slope}")
            partial = [float(r[5]) for r in block]
            early = (partial[1] - partial[0]) / (sizes[1] - sizes[0])
            late = (partial[-1] - partial[-2]) / (sizes[-1] - sizes[-2])
            if abs(late / early - 1.0) > LINEAR_TOL:
                problems.append(f"diverge ({m},{n}) middle sum slope {early:.6g} -> {late:.6g}")
        return problems

    return _guarded(check)


def _doublet_problems(name: str, values: list[float]) -> list[str]:
    problems = []
    order = len(values)
    if order % 2 == 1:
        if not _zero_mode_ok(values, values[0]):
            problems.append(f"{name}: no zero mode ({values[0]})")
        values = values[1:]
    for i in range(0, len(values), 2):
        lo, hi = values[i], values[i + 1]
        if abs(hi - lo) > (PAIR_TOL + 2 * PRINT7) * max(abs(lo), abs(hi)):
            problems.append(f"{name}: ranks {order - len(values) + i + 1}.. not a doublet")
    return problems


def table2_check(sizes: tuple[int, ...], deleted: int) -> Check:
    largest = sizes[-1]
    kept = largest - deleted
    columns = (
        ["rank"]
        + [f"complete_{s}" for s in sizes[:-1]]
        + [f"truncated_{largest}_to_{kept}", f"complete_{largest}"]
    )
    lengths = list(sizes[:-1]) + [kept, largest]

    def check(text: str) -> list[str]:
        rows = _parse(text, columns, largest)
        problems = []
        if [int(r[0]) for r in rows] != list(range(1, largest + 1)):
            problems.append("table2 ranks")
        for j, (name, length) in enumerate(zip(columns[1:], lengths), start=1):
            cells = [r[j] for r in rows]
            if any(not c for c in cells[:length]) or any(cells[length:]):
                problems.append(f"{name}: expected {length} values")
                continue
            values = [float(c) for c in cells[:length]]
            if values != sorted(values):
                problems.append(f"{name}: not ascending")
            if name.startswith("complete_"):
                problems += _doublet_problems(name, values)
            else:
                for k, value in enumerate(values[:10], start=1):
                    if abs(value - k * k) > REPAIR_TOL * k * k:
                        problems.append(f"{name}: rank {k} value {value} not near {k * k}")
        return problems

    return _guarded(check)


def spectrum_pairs_check(sizes: tuple[int, ...]) -> Check:
    columns = ["size", "pair_count", "zero_modes", "max_pair_gap", "pairing_ok"]

    def check(text: str) -> list[str]:
        rows = _parse(text, columns, len(sizes))
        problems = []
        for size, row in zip(sizes, rows):
            expected = [str(size), str(size // 2), str(size % 2)]
            if row[:3] != expected:
                problems.append(f"spectrum-pairs N={size}: {row[:3]} != {expected}")
            if not 0.0 <= float(row[3]) <= PAIR_TOL or row[4] != "true":
                problems.append(f"spectrum-pairs N={size}: pairing {row[3]} {row[4]}")
        return problems

    return _guarded(check)


# --- workloads ----------------------------------------------------------------

def _pair_text(pairs: list[tuple[int, int]]) -> str:
    return ";".join(f"{m},{n}" for m, n in pairs)


def _sizes_text(sizes: tuple[int, ...]) -> str:
    return ",".join(str(s) for s in sizes)


def _distinct_pairs(
    rng: random.Random, count: int, top: int, odd_sum: bool
) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        m, n = rng.randint(1, top), rng.randint(1, top)
        if (m + n) % 2 == int(odd_sum) and (m, n) not in pairs:
            pairs.append((m, n))
    return pairs


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The CLI invocations of one workload run, in the order they run."""
    rng = random.Random(seed)
    if workload == "defaults":
        return [Invocation((c,), reference_check(c)) for c in DEFAULT_COMMANDS]
    if workload == "products-scale":
        t1_pairs = _distinct_pairs(rng, 4, TABLE1_MAX_LABEL, odd_sum=True)
        dv_pairs = _distinct_pairs(rng, 2, DIVERGE_MAX_LABEL, odd_sum=False)
        return [
            Invocation(
                ("table1", "--pairs", _pair_text(t1_pairs), "--sizes", _sizes_text(TABLE1_SIZES)),
                table1_check(t1_pairs, TABLE1_SIZES),
            ),
            Invocation(
                ("diverge", "--pairs", _pair_text(dv_pairs), "--sizes", _sizes_text(DIVERGE_SIZES)),
                diverge_check(dv_pairs, DIVERGE_SIZES),
            ),
        ]
    if workload == "spectra-scale":
        deleted = rng.randint(1, 3)
        sizes = _sizes_text(SPECTRA_SIZES)
        return [
            Invocation(
                ("table2", "--sizes", sizes, "--delete-tail", str(deleted)),
                table2_check(SPECTRA_SIZES, deleted),
            ),
            Invocation(("spectrum-pairs", "--sizes", sizes), spectrum_pairs_check(SPECTRA_SIZES)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("defaults", "products-scale", "spectra-scale")
