"""Command-line driver emitting every experiment as a CSV or JSON report.

Identical configuration produces byte-identical files: row order follows the
configured pair and size order, and every float column has a fixed format.
CSV files are comma separated with a header row and LF line endings; JSON
reports are a single object with the experiment name, a config echo, column
names and full-precision rows.

Exit codes: 0 success; 2 usage error (bad flags or config, inputs an
experiment does not accept, or sizes whose arrays would exceed a fixed
memory limit), found by this module's own checks before the library
could reject the input; 1 runtime failure (an unwritable output path, a
failed eigensolve residual check, or any other error the library raises),
reported as one ``momtrunc: error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import products, spectra, tails
from .operator import p2_exact_entry, p3_hermitian_entry

__all__ = ["main", "build_parser", "ReportConfig"]


class UsageError(ValueError):
    """Invalid flag or config-file value; maps to exit code 2."""


@dataclass
class ReportConfig:
    command: str
    pairs: list[tuple[int, int]] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    delete_tail: int = 0
    fmt: str = "csv"
    out: str | None = None

    def echo(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "pairs": [list(p) for p in self.pairs],
            "sizes": list(self.sizes),
            "delete_tail": self.delete_tail,
            "format": self.fmt,
            "out": self.out,
        }


_DEFAULTS: dict[str, dict[str, Any]] = {
    "table1": {
        "pairs": [(1, 2), (2, 3), (20, 31), (60, 91)],
        "sizes": [99, 100, 999, 1000, 1999, 2000],
    },
    "table2": {"pairs": [], "sizes": [999, 1000], "delete_tail": 1},
    "p2check": {
        "pairs": [(1, 1), (1, 3), (2, 2), (2, 4), (3, 5)],
        "sizes": [1000, 10000, 100000],
    },
    "assoc": {"pairs": [(1, 2), (2, 3), (3, 4)], "sizes": []},
    "diverge": {"pairs": [(1, 1), (1, 3)], "sizes": [250, 500, 1000, 2000]},
    "tails": {"pairs": [(1, 2), (3, 4)], "sizes": [200, 400, 800, 1600]},
    "spectrum-pairs": {"pairs": [], "sizes": [999, 1000]},
}

# Largest array footprint any command accepts, estimated from the sizes
# before anything is allocated (see _check_memory).
_MAX_DENSE_BYTES = 4 * 2**30
# Bytes per label that table1, diverge, p2check and tails hold at peak for
# their largest size: a few float64 vectors of the size plus the list of
# Python floats handed to math.fsum (measured peak RSS above the ~29 MiB
# interpreter at N = 10^6 and 4 * 10^6: 32 B for table1 and tails, 44 B for
# diverge, 48 B for p2check; 64 keeps a margin).
_LINEAR_BYTES_PER_LABEL = 64
_SPECTRA = {"table2", "spectrum-pairs"}

_NEEDS_PAIRS = {"table1", "p2check", "assoc", "diverge", "tails"}
_NEEDS_SIZES = {"table1", "table2", "p2check", "diverge", "tails", "spectrum-pairs"}


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise UsageError(f"bad pair {chunk!r}: expected 'm,n'")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad pair {chunk!r}: {exc}") from exc
        if m < 1 or n < 1:
            raise UsageError(f"pair indices must be >= 1, got {chunk!r}")
        pairs.append((m, n))
    return pairs


def _parse_sizes(text: str) -> list[int]:
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            value = int(chunk)
        except ValueError as exc:
            raise UsageError(f"bad size {chunk!r}: {exc}") from exc
        if value < 1:
            raise UsageError(f"sizes must be >= 1, got {value}")
        sizes.append(value)
    return sizes


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    allowed = {"pairs", "sizes", "format", "out", "delete_tail"}
    unknown = set(raw) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _is_count(value: Any, least: int) -> bool:
    """A JSON integer (not a boolean) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _pairs_from_config(value: Any) -> list[tuple[int, int]]:
    if isinstance(value, str):
        return _parse_pairs(value)
    if isinstance(value, list):
        pairs = []
        for item in value:
            if not (isinstance(item, list) and len(item) == 2):
                raise UsageError(f"config pairs entries must be [m, n], got {item!r}")
            m, n = item
            if not (_is_count(m, 1) and _is_count(n, 1)):
                raise UsageError(f"pair indices must be integers >= 1, got {item!r}")
            pairs.append((m, n))
        return pairs
    raise UsageError(f"config pairs must be a list or 'm,n;m,n' string, got {value!r}")


def _assemble_config(args: argparse.Namespace) -> ReportConfig:
    command = args.command
    defaults = _DEFAULTS[command]
    file_cfg = _load_config_file(args.config) if args.config else {}

    pairs = defaults.get("pairs", [])
    if "pairs" in file_cfg:
        pairs = _pairs_from_config(file_cfg["pairs"])
    if args.pairs is not None:
        pairs = _parse_pairs(args.pairs)

    sizes = defaults.get("sizes", [])
    if "sizes" in file_cfg:
        sizes = file_cfg["sizes"]
        if isinstance(sizes, str):
            sizes = _parse_sizes(sizes)
        elif not (
            isinstance(sizes, list) and all(_is_count(v, 1) for v in sizes)
        ):
            raise UsageError(f"config sizes must be positive integers, got {sizes!r}")
    if args.sizes is not None:
        sizes = _parse_sizes(args.sizes)

    delete_tail = defaults.get("delete_tail", 0)
    if "delete_tail" in file_cfg:
        delete_tail = file_cfg["delete_tail"]
    if getattr(args, "delete_tail", None) is not None:
        delete_tail = args.delete_tail
    if not _is_count(delete_tail, 0):
        raise UsageError(f"delete_tail must be a nonnegative integer, got {delete_tail!r}")

    fmt = file_cfg.get("format", "csv")
    if args.format is not None:
        fmt = args.format
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be 'csv' or 'json', got {fmt!r}")

    out = file_cfg.get("out")
    if args.out is not None:
        out = args.out
    if out is not None and not isinstance(out, str):
        raise UsageError(f"out must be a path string, got {out!r}")

    if command in _NEEDS_PAIRS and not pairs:
        raise UsageError(f"{command} requires at least one pair")
    if command in _NEEDS_SIZES:
        if not sizes:
            raise UsageError(f"{command} requires at least one size")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise UsageError(f"sizes must be strictly ascending, got {sizes}")

    return ReportConfig(
        command=command,
        pairs=pairs,
        sizes=sizes,
        delete_tail=delete_tail,
        fmt=fmt,
        out=out,
    )


# --- report builders -------------------------------------------------------

Row = list[Any]
Formats = dict[str, Callable[[Any], str]]


def _fmt(format_spec: str) -> Callable[[Any], str]:
    def render(value: Any) -> str:
        return format(value, format_spec)

    return render


def _render_bool(value: Any) -> str:
    return str(bool(value)).lower()


_INT = str
_G6 = _fmt(".6g")
_G7 = _fmt(".7g")
_G8 = _fmt(".8g")
_G10 = _fmt(".10g")
_E3 = _fmt(".3e")
_E6 = _fmt(".6e")
_F4 = _fmt(".4f")
_BOOL = _render_bool


def _run_table1(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    columns = ["m", "n", "size", "triple_product", "target", "abs_error"]
    rows: list[Row] = []
    for m, n in cfg.pairs:
        target = p3_hermitian_entry(m, n)
        for size in cfg.sizes:
            if size < max(m, n):
                raise UsageError(f"size {size} is smaller than pair ({m},{n})")
            value = products.triple_product_sum(m, n, size)
            rows.append([m, n, size, value, target, abs(value - target)])
    formats = {
        "m": _INT,
        "n": _INT,
        "size": _INT,
        "triple_product": _G6,
        "target": _G6,
        "abs_error": _E3,
    }
    return columns, rows, formats


def _linear_bytes(sizes: list[int]) -> int:
    """Peak bytes of the O(N) commands at these sizes, estimated.

    One size is computed at a time, so this is the largest size's estimate.
    """
    return _LINEAR_BYTES_PER_LABEL * max(sizes, default=0)


def _check_memory(cfg: ReportConfig) -> None:
    """Refuse sizes whose estimated arrays exceed the limit, naming the largest N."""
    if cfg.command in _SPECTRA:
        needed = spectra.dense_bytes(cfg.sizes)
        # The estimate grows with ceil(N/2)^2, and dense_bytes([2]) is its unit.
        largest = 2 * math.isqrt(_MAX_DENSE_BYTES // spectra.dense_bytes([2]))
    else:
        needed = _linear_bytes(cfg.sizes)
        largest = _MAX_DENSE_BYTES // _LINEAR_BYTES_PER_LABEL
    if needed > _MAX_DENSE_BYTES:
        raise UsageError(
            f"{cfg.command} at sizes {cfg.sizes} needs about {needed / 2**30:.1f} GiB "
            f"of arrays, above the {_MAX_DENSE_BYTES / 2**30:.0f} GiB limit; "
            f"sizes are accepted up to N = {largest}"
        )


def _run_table2(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    largest = cfg.sizes[-1]
    if cfg.delete_tail >= largest:
        raise UsageError(
            f"delete_tail {cfg.delete_tail} must be < largest size {largest}"
        )
    spectra_by_column = [
        (f"complete_{size}", spectra.singular_spectrum(size)) for size in cfg.sizes[:-1]
    ]
    if cfg.delete_tail > 0:
        spectra_by_column.append(
            (
                f"truncated_{largest}_to_{largest - cfg.delete_tail}",
                spectra.singular_spectrum(largest, cfg.delete_tail),
            )
        )
    spectra_by_column.append((f"complete_{largest}", spectra.singular_spectrum(largest)))

    columns = ["rank"] + [name for name, _ in spectra_by_column]
    depth = max(len(vals) for _, vals in spectra_by_column)
    rows = []
    for i in range(depth):
        row: Row = [i + 1]
        for _, vals in spectra_by_column:
            row.append(float(vals[i]) if i < len(vals) else None)
        rows.append(row)
    formats: Formats = {"rank": _INT}
    for name, _ in spectra_by_column:
        formats[name] = _G7
    return columns, rows, formats


def _run_p2check(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    columns = ["m", "n", "size", "partial_sum", "exact", "abs_error"]
    rows = []
    for m, n in cfg.pairs:
        exact = p2_exact_entry(m, n)
        for size in cfg.sizes:
            value = products.p2_partial_sum(m, n, size)
            rows.append([m, n, size, value, exact, abs(value - exact)])
    formats = {
        "m": _INT,
        "n": _INT,
        "size": _INT,
        "partial_sum": _G10,
        "exact": _G6,
        "abs_error": _E3,
    }
    return columns, rows, formats


def _run_assoc(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    columns = ["m", "n", "left_product", "right_product", "ratio"]
    rows = []
    for m, n in cfg.pairs:
        left, right = products.associativity_gap(m, n)
        ratio = left / right if right != 0.0 else None
        rows.append([m, n, left, right, ratio])
    formats = {
        "m": _INT,
        "n": _INT,
        "left_product": _G6,
        "right_product": _G6,
        "ratio": _G6,
    }
    return columns, rows, formats


def _run_diverge(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    for m, n in cfg.pairs:
        if (m + n) % 2 == 1:
            raise UsageError(
                f"diverge requires same-parity pairs, got ({m},{n})"
            )
        if cfg.sizes and cfg.sizes[0] < max(m, n):
            raise UsageError(f"size {cfg.sizes[0]} is smaller than pair ({m},{n})")
    columns = [
        "m",
        "n",
        "size",
        "fourth_power",
        "exact_fourth_power",
        "middle_sum_partial",
        "growth_slope",
    ]
    rows = []
    for m, n in cfg.pairs:
        exact = float(m * m * n * n) if m == n else 0.0
        values = [products.quad_power_entry(m, n, size) for size in cfg.sizes]
        partials = [products.pp2p_partial_sum(m, n, size) for size in cfg.sizes]
        deviations = [abs(v - exact) for v in values]
        if len(cfg.sizes) >= 2 and all(d > 0 for d in deviations):
            slope = float(
                np.polyfit(np.log10(cfg.sizes), np.log10(deviations), 1)[0]
            )
        else:
            slope = None
        for size, value, partial in zip(cfg.sizes, values, partials):
            rows.append([m, n, size, value, exact, partial, slope])
    formats = {
        "m": _INT,
        "n": _INT,
        "size": _INT,
        "fourth_power": _G8,
        "exact_fourth_power": _G6,
        "middle_sum_partial": _G8,
        "growth_slope": _F4,
    }
    return columns, rows, formats


def _run_tails(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    columns = ["m", "n", "size", "k_max", "exact", "near_boundary", "telescoped"]
    rows = []
    for m, n in cfg.pairs:
        for size in cfg.sizes:
            if m % 2 == 0 or n % 2 == 1 or size % 2 == 1 or size < 10 * (m + n):
                raise UsageError(
                    f"tails requires odd m, even n and an even size >= 10 (m + n), "
                    f"got ({m},{n}) at size {size}"
                )
            estimate = tails.tail_estimate(m, n, size)
            rows.append(
                [
                    m,
                    n,
                    size,
                    size // 10,
                    estimate.exact,
                    estimate.near_boundary,
                    estimate.telescoped,
                ]
            )
    formats = {
        "m": _INT,
        "n": _INT,
        "size": _INT,
        "k_max": _INT,
        "exact": _E6,
        "near_boundary": _E6,
        "telescoped": _E6,
    }
    return columns, rows, formats


def _run_spectrum_pairs(cfg: ReportConfig) -> tuple[list[str], list[Row], Formats]:
    columns = ["size", "pair_count", "zero_modes", "max_pair_gap", "pairing_ok"]
    rows = []
    for size in cfg.sizes:
        report = spectra.spectrum_pairing(size)
        rows.append(
            [size, report.pair_count, report.zero_modes, report.max_pair_gap, report.ok]
        )
    formats = {
        "size": _INT,
        "pair_count": _INT,
        "zero_modes": _INT,
        "max_pair_gap": _E3,
        "pairing_ok": _BOOL,
    }
    return columns, rows, formats


_RUNNERS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "p2check": _run_p2check,
    "assoc": _run_assoc,
    "diverge": _run_diverge,
    "tails": _run_tails,
    "spectrum-pairs": _run_spectrum_pairs,
}


def _render_csv(columns: list[str], rows: list[Row], formats: Formats) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for name, value in zip(columns, row):
            if value is None:
                cells.append("")
            else:
                cells.append(formats[name](value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_json(
    cfg: ReportConfig, columns: list[str], rows: list[Row]
) -> str:
    payload = {
        "experiment": cfg.command,
        "config": cfg.echo(),
        "columns": columns,
        "rows": rows,
    }
    return json.dumps(payload, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momtrunc",
        description=(
            "Truncation experiments on the momentum matrix of a particle in a "
            "box: convergent triple products, eigenvalue anomalies of the "
            "truncated square, divergent fourth powers and boundary-tail "
            "cancellation, emitted as reproducible CSV/JSON reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "table1": "triple products against their Hermitian-part targets",
        "table2": "eigenvalues of the squared truncation, complete and repaired",
        "p2check": "partial sums of the square's entries against m n delta_mn",
        "assoc": "the two unequal one-sided products with the exact square",
        "diverge": "fourth-power and middle-sum divergence probes",
        "tails": "boundary-tail contribution and its approximants",
        "spectrum-pairs": "opposite-pair structure of the truncation's spectrum",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc, description=desc)
        cmd.add_argument("--pairs", help="pairs as 'm,n;m,n' (1-based labels)")
        cmd.add_argument("--sizes", help="truncation sizes as 'N1,N2,...' (ascending)")
        cmd.add_argument("--format", choices=["csv", "json"], help="output format")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--config", help="JSON config file; flags win over its values")
        if name == "table2":
            cmd.add_argument(
                "--delete-tail",
                dest="delete_tail",
                type=int,
                help="rows/columns to delete from the largest squared matrix",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _assemble_config(args)
        _check_memory(cfg)
        columns, rows, formats = _RUNNERS[cfg.command](cfg)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    try:
        if cfg.fmt == "csv":
            text = _render_csv(columns, rows, formats)
        else:
            text = _render_json(cfg, columns, rows)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
