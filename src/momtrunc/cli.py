"""Command-line driver emitting every experiment as a CSV or JSON report.

Identical configuration produces byte-identical files: row order follows the
configured pair and size order, and every float column has a fixed format.
CSV files are comma separated with a header row and LF line endings; JSON
reports are a single object with the experiment name, a config echo (the
keys the command reads, which ``--config`` accepts back), column names and
full-precision rows.

A command reads the flags it lists, and a ``--config`` JSON file may set
the same keys, as flag text or JSON values.  One reader per key, and the
size limit, check the registry's defaults (flag text), the config file and
the flags in turn; later ones win, and a config ``null`` means stdout for
``out``.  A report builder receives exactly its record's keys; one cell loop
passes every (m, n, size) cell through ``exact``'s cell checks first.

Exit codes: 0 success; 2 usage error (bad flags or config, inputs an
experiment does not accept, or a size above the largest one the command
accepts: a fixed memory limit sets table2's, exact float64 labels every
other command's), decided before any computation; 1
runtime failure (an output path that cannot be written, refused before any
computation, a failed eigensolve residual check, running out of memory, or
any other error the library raises), reported as one ``momtrunc: error:``
line.

A command imports the library module it runs only when it runs, after its
cells pass ``exact``'s checks: ``assoc`` and ``spectrum-pairs`` run on
``exact`` alone, and they, ``--help`` and every usage error load no numpy.
Each size limit is a plain integer, table2's from ``exact.largest_order``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .exact import _check_boundary, _check_labels, _check_middle_sum, spectrum_pairing
from .exact import associativity_gap, largest_order, p2_exact_entry, p3_hermitian_entry

__all__ = ["main"]


class UsageError(ValueError):
    """Invalid flag or config-file value; maps to exit code 2."""


# Memory limit that sets table2's largest accepted size (max_size in
# EXPERIMENTS), checked before anything is allocated (see _check_size).
_MAX_DENSE_BYTES = 4 * 2**30
# Largest pair label, and the largest size every other command accepts: up
# to it m^2 <= 2^52 is exact in float64, so every closed-form evaluation of
# a_mn agrees bit for bit.
_MAX_LABEL = 2**26


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
    value = _number(value) if isinstance(value, str) else value
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


# Per key: the one reader of its every value, and the flag's help.
_KEYS: dict[str, tuple[Callable[[Any], Any], str]] = {
    "pairs": (_read_pairs, "pairs as 'm,n;m,n' (1-based labels)"),
    "sizes": (_read_sizes, "truncation sizes as 'N1,N2,...' (ascending)"),
    "delete_tail": (_read_delete_tail, "rows/columns deleted from the largest square"),
    "format": (_read_format, "output format: csv or json"),
    "out": (_read_out, "output path (default: stdout)"),
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

    # Each source's values are checked as it gives them; later sources win.
    cfg: dict[str, Any] = {}
    for given in (experiment.defaults, _OUTPUT_DEFAULTS, file_cfg, flags):
        values = {key: _KEYS[key][0](value) for key, value in given.items()}
        _check_size(command, values)
        cfg.update(values)
    return cfg


def _check_size(command: str, values: dict[str, Any]) -> None:
    """Refuse a largest size above the command's limit, naming that limit."""
    limit = EXPERIMENTS[command].max_size
    sizes = values.get("sizes")
    if sizes and sizes[-1] > limit:
        raise UsageError(
            f"{command} at size {sizes[-1]} is too large; "
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


def _grid(pairs: Pairs, sizes: list[int], *checks: Callable) -> list[tuple]:
    """The (m, n, size) cells, pair by pair, size by size, once ``checks`` pass.

    Each check, one of ``exact``'s cell checks, runs over every cell in turn;
    the first cell one refuses is a usage error that names it.  Nothing here
    loads numpy: a runner imports its library module after this returns.
    """
    grid = [(m, n, size) for m, n in pairs for size in sizes]
    for check in checks:
        for m, n, size in grid:
            try:
                check(m, n, size)
            except ValueError as exc:
                raise UsageError(f"({m},{n}) at size {size}: {exc}") from None
    return grid


def _against(grid: list[tuple], partial: Callable, limit: Callable) -> list[Row]:
    """Rows of each cell, partial(m, n, size), limit(m, n) and their |error|."""
    rows = []
    for m, n, size in grid:
        value, target = partial(m, n, size), limit(m, n)
        rows.append([m, n, size, value, target, abs(value - target)])
    return rows


def _run_table1(pairs: Pairs, sizes: list[int]) -> Report:
    grid = _grid(pairs, sizes, _check_labels)
    from . import products

    rows = _against(grid, products.triple_product_sum, p3_hermitian_entry)
    columns = [("triple_product", ".6g"), ("target", ".6g"), ("abs_error", ".3e")]
    return _LABELS + columns, rows


def _run_p2check(pairs: Pairs, sizes: list[int]) -> Report:
    grid = _grid(pairs, sizes)
    from . import products

    rows = _against(grid, products.p2_partial_sum, p2_exact_entry)
    columns = [("partial_sum", ".10g"), ("exact", ".6g"), ("abs_error", ".3e")]
    return _LABELS + columns, rows


def _run_table2(sizes: list[int], delete_tail: int) -> Report:
    largest = sizes[-1]
    if delete_tail >= largest:
        default = EXPERIMENTS["table2"].defaults["delete_tail"]
        raise UsageError(
            f"--delete-tail must be < the largest size {largest}, got "
            f"{delete_tail} (it defaults to {default})"
        )
    from . import spectra

    requests = [(size, 0) for size in sizes[:-1]]
    if delete_tail > 0:
        requests.append((largest, delete_tail))
    requests.append((largest, 0))
    names = [
        f"complete_{size}" if d == 0 else f"truncated_{size}_to_{size - d}"
        for size, d in requests
    ]
    # The last column, the complete square of the largest size, is the longest.
    values = spectra.singular_spectra(requests)
    rows = [
        [rank, *(float(v[rank - 1]) if rank <= len(v) else None for v in values)]
        for rank in range(1, largest + 1)
    ]
    return [("rank", "")] + [(name, ".7g") for name in names], rows


def _run_assoc(pairs: Pairs) -> Report:
    rows = [
        [m, n, left, right, left / right if right != 0.0 else None]
        for m, n in pairs
        for left, right in [associativity_gap(m, n)]
    ]
    columns = [("left_product", ".6g"), ("right_product", ".6g"), ("ratio", ".6g")]
    return _LABELS[:2] + columns, rows


def _run_diverge(pairs: Pairs, sizes: list[int]) -> Report:
    grid = _grid(pairs, sizes, _check_middle_sum, _check_labels)
    from . import products

    rows = [
        [m, n, size, products.quad_power_entry(m, n, size),
         p2_exact_entry(m, n) ** 2, products.pp2p_partial_sum(m, n, size)]
        for m, n, size in grid
    ]
    # Each pair's rows end with the least-squares slope of
    # log10 |fourth power - exact| against log10 size over that pair's rows,
    # fitted in closed form with exactly rounded sums (no LAPACK call).
    for start in range(0, len(rows), len(sizes)):
        block = rows[start : start + len(sizes)]
        deviations = [abs(value - exact) for *_, value, exact, _ in block]
        slope = None
        if len(sizes) >= 2 and all(d > 0 for d in deviations):
            slope = products._loglog_slope(sizes, deviations)
        for row in block:
            row.append(slope)
    columns = _LABELS + [
        ("fourth_power", ".8g"), ("exact_fourth_power", ".6g"),
        ("middle_sum_partial", ".8g"), ("growth_slope", ".4f"),
    ]
    return columns, rows


def _run_tails(pairs: Pairs, sizes: list[int]) -> Report:
    grid = _grid(pairs, sizes, _check_boundary)
    from . import tails

    # A TailEstimate's fields are the last four columns, in order.
    rows = [[*cell, *tails.tail_estimate(*cell)] for cell in grid]
    columns = _LABELS + [
        ("k_max", ""), ("exact", ".6e"), ("near_boundary", ".6e"), ("telescoped", ".6e")
    ]
    return columns, rows


def _run_spectrum_pairs(sizes: list[int]) -> Report:
    # A PairingReport's fields are the first three columns.  The pairs are
    # exact by structure (see spectrum_pairing): their gap is 0.0.
    rows = [[*r, 0.0, r.ok] for r in map(spectrum_pairing, sizes)]
    columns = [("size", ""), ("pair_count", ""), ("zero_modes", "")]
    return columns + [("max_pair_gap", ".3e"), ("pairing_ok", "")], rows


class Experiment(NamedTuple):
    """One subcommand: its help, report builder, defaults and largest size.

    ``defaults`` maps each key the command reads and requires, besides
    ``format`` and ``out``, to its default as flag text; ``run`` takes
    exactly those keys, as their readers type them, as keyword arguments,
    and ``max_size`` is the largest size the command accepts (table2's is
    set by its memory limit, every other command's by exact float64 labels).
    """

    help: str
    run: Callable[..., Report]
    defaults: dict[str, str]
    max_size: int = _MAX_LABEL

    @property
    def keys(self) -> list[str]:
        """The flags, and config keys, this command reads."""
        return [*self.defaults, *_OUTPUT_DEFAULTS]


EXPERIMENTS = {
    "table1": Experiment(
        "triple products against their Hermitian-part targets",
        _run_table1,
        {"pairs": "1,2;2,3;20,31;60,91", "sizes": "99,100,999,1000,1999,2000"},
    ),
    "table2": Experiment(
        "eigenvalues of the squared truncation, complete and repaired",
        _run_table2,
        {"sizes": "999,1000", "delete_tail": "1"},
        max_size=largest_order(_MAX_DENSE_BYTES),
    ),
    "p2check": Experiment(
        "partial sums of the square's entries against m n delta_mn",
        _run_p2check,
        {"pairs": "1,1;1,3;2,2;2,4;3,5", "sizes": "1000,10000,100000"},
    ),
    "assoc": Experiment(
        "the two unequal one-sided products with the exact square",
        _run_assoc,
        {"pairs": "1,2;2,3;3,4"},
    ),
    "diverge": Experiment(
        "fourth-power and middle-sum divergence probes",
        _run_diverge,
        {"pairs": "1,1;1,3", "sizes": "250,500,1000,2000"},
    ),
    "tails": Experiment(
        "boundary-tail contribution and its approximants",
        _run_tails,
        {"pairs": "1,2;3,4", "sizes": "200,400,800,1600"},
    ),
    "spectrum-pairs": Experiment(
        "opposite-pair structure of the truncation's spectrum",
        _run_spectrum_pairs,
        {"sizes": "999,1000"},
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
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, help=_KEYS[key][1])
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
    except MemoryError as exc:
        # numpy says which allocation failed; a bare MemoryError says nothing.
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"{parser.prog}: error: out of memory{detail}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
