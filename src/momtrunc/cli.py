"""Command-line driver emitting every experiment as a CSV or JSON report.

Identical configuration produces byte-identical files: row order follows the
configured pair and size order, and every float column has a fixed format.
CSV files are comma separated with a header row and LF line endings; JSON
reports are a single object with the experiment name, a config echo (the
keys the command reads, which ``--config`` accepts back), column names and
full-precision rows.

A command reads the flags it lists, and a ``--config`` JSON file may set
the same keys, ``pairs`` and ``sizes`` as the flag's string or as JSON
lists.  Each source is checked on its own, and flags win; a config
``null`` means stdout for ``out`` and is refused for every other key.  A
command's report builder receives exactly the keys its registry record
declares; ``format`` and ``out`` only shape the output.

Exit codes: 0 success; 2 usage error (bad flags or config, inputs an
experiment does not accept, or a size above the largest one the command
accepts under a fixed memory limit), decided before any computation; 1
runtime failure (an output path that cannot be written, refused before any
computation, a failed eigensolve residual check, or any other error the
library raises), reported as one ``momtrunc: error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import products, spectra, tails
from .operator import p2_exact_entry, p3_hermitian_entry

__all__ = ["main"]


class UsageError(ValueError):
    """Invalid flag or config-file value; maps to exit code 2."""


# Memory limit that sets each command's largest accepted size (max_size in
# EXPERIMENTS), checked before anything is allocated (see _check_memory).
_MAX_DENSE_BYTES = 4 * 2**30
# Bytes per label that table1, diverge, p2check and tails hold at peak for
# their largest size: a few float64 vectors of the size, summed by math.fsum
# one fixed-size chunk at a time (measured peak RSS above the ~29 MiB
# interpreter at N = 10^6 and 4 * 10^6: 21 B for tails, 32-35 B for table1
# and p2check, 44 B for diverge; 64 keeps a margin).
_LINEAR_BYTES_PER_LABEL = 64
# Largest pair label, the largest size the O(N) commands accept (2^26): up
# to it m^2 is exact in float64, so every closed-form evaluation of a_mn
# agrees bit for bit.
_MAX_LABEL = _MAX_DENSE_BYTES // _LINEAR_BYTES_PER_LABEL


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Bad JSON, text that is not UTF-8, too long integers, too deep nesting.
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return raw


def _is_count(value: Any, least: int) -> bool:
    """A JSON integer (not a boolean) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _number(text: str) -> int | str:
    """``text`` as an integer, or as it is for the reader to refuse."""
    try:
        return int(text)
    except ValueError:
        return text


def _read_pairs(value: Any) -> list[tuple[int, int]]:
    """Pairs from 'm,n;m,n' or [[m, n], ...]."""
    if isinstance(value, str):
        chunks = filter(str.strip, value.split(";"))
        value = [list(map(_number, chunk.split(","))) for chunk in chunks]
    if not isinstance(value, list):
        raise UsageError(f"pairs must be a list or 'm,n;m,n' string, got {value!r}")
    for pair in value:
        shaped = isinstance(pair, list) and len(pair) == 2
        if not (shaped and all(_is_count(label, 1) for label in pair)):
            raise UsageError(f"pairs must be m,n with labels >= 1, got {pair!r}")
        if max(pair) > _MAX_LABEL:
            raise UsageError(f"pair labels must be <= {_MAX_LABEL}, got {tuple(pair)}")
    if not value:
        raise UsageError("pairs must hold at least one pair")
    return [tuple(pair) for pair in value]


def _read_sizes(value: Any) -> list[int]:
    """Sizes from 'N1,N2,...' or [N1, N2, ...]."""
    if isinstance(value, str):
        value = [_number(size) for size in value.split(",") if size.strip()]
    if not (isinstance(value, list) and all(_is_count(size, 1) for size in value)):
        raise UsageError(f"sizes must be integers >= 1, got {value!r}")
    if not value:
        raise UsageError("sizes must hold at least one size")
    if any(b <= a for a, b in zip(value, value[1:])):
        raise UsageError(f"sizes must be strictly ascending, got {value}")
    return value


def _read_delete_tail(value: Any) -> int:
    if _is_count(value, 0):
        return value
    raise UsageError(f"delete_tail must be a nonnegative integer, got {value!r}")


def _read_format(value: Any) -> str:
    if value in ("csv", "json"):
        return value
    raise UsageError(f"format must be 'csv' or 'json', got {value!r}")


def _read_out(value: Any) -> str | None:
    if value is None or isinstance(value, str):
        return value
    raise UsageError(f"out must be a path string or null, got {value!r}")


# Per key: the reader that checks and types a flag's or a config file's
# value, and the flag's argparse keywords.
_KEYS: dict[str, tuple[Callable[[Any], Any], dict[str, Any]]] = {
    "pairs": (_read_pairs, {"help": "pairs as 'm,n;m,n' (1-based labels)"}),
    "sizes": (_read_sizes, {"help": "truncation sizes as 'N1,N2,...' (ascending)"}),
    "delete_tail": (
        _read_delete_tail,
        {"type": int, "help": "rows/columns to delete from the largest squared matrix"},
    ),
    "format": (_read_format, {"choices": ["csv", "json"], "help": "output format"}),
    "out": (_read_out, {"help": "output path (default: stdout)"}),
}
# The keys every command reads after its own, with their defaults.
_OUTPUT_DEFAULTS = {"format": "csv", "out": None}


def _assemble_config(args: argparse.Namespace) -> dict[str, Any]:
    """The value of each key the command reads, in its registry order."""
    command = args.command
    experiment = EXPERIMENTS[command]
    file_cfg = _load_config_file(args.config) if args.config else {}
    unread = set(file_cfg) - set(experiment.keys)
    if unread:
        raise UsageError(f"config keys {command} does not read: {sorted(unread)}")
    # argparse gives None for an absent flag.
    flags = {k: v for k in experiment.keys if (v := getattr(args, k)) is not None}

    # Each source's values are checked as it gives them; flags win.  Tuple
    # defaults are copied to fresh lists.
    cfg = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in {**experiment.defaults, **_OUTPUT_DEFAULTS}.items()
    }
    for given in (file_cfg, flags):
        cfg.update({key: _KEYS[key][0](value) for key, value in given.items()})
    return cfg


def _check_memory(command: str, cfg: dict[str, Any]) -> None:
    """Refuse a largest size above the command's limit, naming that limit."""
    limit = EXPERIMENTS[command].max_size
    sizes = cfg.get("sizes")
    if sizes and sizes[-1] > limit:
        raise UsageError(
            f"{command} at size {sizes[-1]} exceeds the "
            f"{_MAX_DENSE_BYTES / 2**30:.0f} GiB memory limit; "
            f"sizes are accepted up to N = {limit}"
        )


def _check_out(out: str | None) -> None:
    """Refuse an output path that ``open`` could not create or truncate."""
    if out is None:
        return
    if os.path.exists(out):
        ok = not os.path.isdir(out) and os.access(out, os.W_OK)
    else:
        directory = os.path.dirname(out) or "."
        ok = bool(out) and os.path.isdir(directory) and os.access(directory, os.W_OK)
    if not ok:
        raise OSError(f"cannot write {out!r}: it is not a writable file path")


# --- report builders -------------------------------------------------------

Row = list[Any]
# (name, format spec) per column; None cells render empty, booleans as
# true/false.
Columns = list[tuple[str, str]]
Report = tuple[Columns, list[Row]]
Pairs = list[tuple[int, int]]
_LABELS: Columns = [("m", ""), ("n", ""), ("size", "")]


def _check_sizes_cover_pairs(pairs: Pairs, sizes: list[int]) -> None:
    """Refuse a pair with a label above the smallest (first) size."""
    for m, n in pairs:
        if sizes[0] < max(m, n):
            raise UsageError(f"size {sizes[0]} is smaller than pair ({m},{n})")


def _against_limit(
    pairs: Pairs, sizes: list[int], columns: Columns, limit: Callable, partial: Callable
) -> Report:
    """Rows of m, n, size, partial(m, n, size), limit(m, n) and their |error|."""
    rows: list[Row] = []
    for m, n in pairs:
        target = limit(m, n)
        for size in sizes:
            value = partial(m, n, size)
            rows.append([m, n, size, value, target, abs(value - target)])
    return _LABELS + columns + [("abs_error", ".3e")], rows


def _run_table1(pairs: Pairs, sizes: list[int]) -> Report:
    _check_sizes_cover_pairs(pairs, sizes)
    columns = [("triple_product", ".6g"), ("target", ".6g")]
    return _against_limit(
        pairs, sizes, columns, p3_hermitian_entry, products.triple_product_sum
    )


def _run_p2check(pairs: Pairs, sizes: list[int]) -> Report:
    columns = [("partial_sum", ".10g"), ("exact", ".6g")]
    return _against_limit(
        pairs, sizes, columns, p2_exact_entry, products.p2_partial_sum
    )


def _run_table2(sizes: list[int], delete_tail: int) -> Report:
    largest = sizes[-1]
    if delete_tail >= largest:
        default = EXPERIMENTS["table2"].defaults["delete_tail"]
        raise UsageError(
            f"--delete-tail must be < the largest size {largest}, got "
            f"{delete_tail} (it defaults to {default})"
        )
    requests = [(size, 0) for size in sizes[:-1]]
    if delete_tail > 0:
        requests.append((largest, delete_tail))
    requests.append((largest, 0))
    spectra_by_column = [
        (f"complete_{size}" if d == 0 else f"truncated_{size}_to_{size - d}", values)
        for (size, d), values in zip(requests, spectra.singular_spectra(requests))
    ]
    depth = max(len(vals) for _, vals in spectra_by_column)
    rows = [
        [i + 1] + [float(v[i]) if i < len(v) else None for _, v in spectra_by_column]
        for i in range(depth)
    ]
    columns = [("rank", "")] + [(name, ".7g") for name, _ in spectra_by_column]
    return columns, rows


def _run_assoc(pairs: Pairs) -> Report:
    rows = []
    for m, n in pairs:
        left, right = products.associativity_gap(m, n)
        ratio = left / right if right != 0.0 else None
        rows.append([m, n, left, right, ratio])
    columns = _LABELS[:2] + [
        ("left_product", ".6g"), ("right_product", ".6g"), ("ratio", ".6g")
    ]
    return columns, rows


def _run_diverge(pairs: Pairs, sizes: list[int]) -> Report:
    for m, n in pairs:
        if (m + n) % 2 == 1:
            raise UsageError(f"diverge requires same-parity pairs, got ({m},{n})")
    _check_sizes_cover_pairs(pairs, sizes)
    rows = []
    for m, n in pairs:
        exact = float(m * m * n * n) if m == n else 0.0
        values = [products.quad_power_entry(m, n, size) for size in sizes]
        partials = [products.pp2p_partial_sum(m, n, size) for size in sizes]
        deviations = [abs(v - exact) for v in values]
        if len(sizes) >= 2 and all(d > 0 for d in deviations):
            slope = float(np.polyfit(np.log10(sizes), np.log10(deviations), 1)[0])
        else:
            slope = None
        for size, value, partial in zip(sizes, values, partials):
            rows.append([m, n, size, value, exact, partial, slope])
    columns = _LABELS + [
        ("fourth_power", ".8g"),
        ("exact_fourth_power", ".6g"),
        ("middle_sum_partial", ".8g"),
        ("growth_slope", ".4f"),
    ]
    return columns, rows


def _run_tails(pairs: Pairs, sizes: list[int]) -> Report:
    grid = [(m, n, size) for m, n in pairs for size in sizes]
    for m, n, size in grid:
        if m % 2 == 0 or n % 2 == 1 or size % 2 == 1 or size < 10 * (m + n):
            raise UsageError(
                f"tails requires odd m, even n and an even size >= 10 (m + n), "
                f"got ({m},{n}) at size {size}"
            )
    rows = []
    for m, n, size in grid:
        estimate = tails.tail_estimate(m, n, size)
        stages = [estimate.exact, estimate.near_boundary, estimate.telescoped]
        rows.append([m, n, size, estimate.k_max, *stages])
    columns = _LABELS + [
        ("k_max", ""), ("exact", ".6e"), ("near_boundary", ".6e"), ("telescoped", ".6e")
    ]
    return columns, rows


def _run_spectrum_pairs(sizes: list[int]) -> Report:
    # The pairs are exact by structure (see spectrum_pairing): their gap is 0.0.
    rows = []
    for size in sizes:
        report = spectra.spectrum_pairing(size)
        rows.append([size, report.pair_count, report.zero_modes, 0.0, report.ok])
    columns = [
        ("size", ""),
        ("pair_count", ""),
        ("zero_modes", ""),
        ("max_pair_gap", ".3e"),
        ("pairing_ok", ""),
    ]
    return columns, rows


class Experiment(NamedTuple):
    """One subcommand: its help, report builder, defaults and largest size.

    ``defaults`` maps each key the command reads and requires, besides
    ``format`` and ``out``, to its default; ``run`` takes exactly those
    keys as keyword arguments, and ``max_size`` is the largest size the
    command accepts.
    """

    help: str
    run: Callable[..., Report]
    defaults: dict[str, Any]
    max_size: int = _MAX_LABEL

    @property
    def keys(self) -> list[str]:
        """The flags, and config keys, this command reads."""
        return [*self.defaults, *_OUTPUT_DEFAULTS]


EXPERIMENTS = {
    "table1": Experiment(
        "triple products against their Hermitian-part targets",
        _run_table1,
        {"pairs": ((1, 2), (2, 3), (20, 31), (60, 91)),
         "sizes": (99, 100, 999, 1000, 1999, 2000)},
    ),
    "table2": Experiment(
        "eigenvalues of the squared truncation, complete and repaired",
        _run_table2,
        {"sizes": (999, 1000), "delete_tail": 1},
        max_size=spectra.largest_order(_MAX_DENSE_BYTES),
    ),
    "p2check": Experiment(
        "partial sums of the square's entries against m n delta_mn",
        _run_p2check,
        {"pairs": ((1, 1), (1, 3), (2, 2), (2, 4), (3, 5)),
         "sizes": (1000, 10000, 100000)},
    ),
    "assoc": Experiment(
        "the two unequal one-sided products with the exact square",
        _run_assoc,
        {"pairs": ((1, 2), (2, 3), (3, 4))},
    ),
    "diverge": Experiment(
        "fourth-power and middle-sum divergence probes",
        _run_diverge,
        {"pairs": ((1, 1), (1, 3)), "sizes": (250, 500, 1000, 2000)},
    ),
    "tails": Experiment(
        "boundary-tail contribution and its approximants",
        _run_tails,
        {"pairs": ((1, 2), (3, 4)), "sizes": (200, 400, 800, 1600)},
    ),
    "spectrum-pairs": Experiment(
        "opposite-pair structure of the truncation's spectrum",
        _run_spectrum_pairs,
        {"sizes": (999, 1000)},
    ),
}


def _render_cell(value: Any, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return format(value, spec)


def _render_csv(columns: Columns, rows: list[Row]) -> str:
    lines = [",".join(name for name, _ in columns)]
    for row in rows:
        lines.append(
            ",".join(_render_cell(v, spec) for v, (_, spec) in zip(row, columns))
        )
    return "\n".join(lines) + "\n"


def _render_json(
    command: str, cfg: dict[str, Any], columns: Columns, rows: list[Row]
) -> str:
    # The config echo holds only keys the command reads, so it can be passed
    # back as --config; only out can be None, and None is left out.
    payload = {
        "experiment": command,
        "config": {key: value for key, value in cfg.items() if value is not None},
        "columns": [name for name, _ in columns],
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
    for name, experiment in EXPERIMENTS.items():
        cmd = sub.add_parser(name, help=experiment.help, description=experiment.help)
        for key in experiment.keys:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, **_KEYS[key][1])
        cmd.add_argument("--config", help="JSON config file; flags win over its values")
        cmd.set_defaults(command_parser=cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        # Reported by the subcommand, whose usage line lists the flags it takes.
        args.command_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    experiment = EXPERIMENTS[args.command]
    try:
        cfg = _assemble_config(args)
        _check_memory(args.command, cfg)
        _check_out(cfg["out"])
        columns, rows = experiment.run(**{key: cfg[key] for key in experiment.defaults})
        if cfg["format"] == "csv":
            text = _render_csv(columns, rows)
        else:
            text = _render_json(args.command, cfg, columns, rows)
        if cfg["out"] is None:
            sys.stdout.write(text)
        else:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
