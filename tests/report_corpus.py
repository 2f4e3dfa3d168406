"""Write what the CLI prints for a fixed set of commands, for diffing two trees.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tests/report_corpus.py OUT_DIR

Runs ``momtrunc.cli.main`` in this process, at one BLAS thread, on:

- the seven commands at their defaults, in csv and json;
- every invocation of ``perfbench/checks.py``'s ``products-scale`` and
  ``spectra-scale`` workloads at seeds 1 to 10, in csv and json;
- a fixed list of refused requests: sizes and labels above each limit,
  cells, values and formats a check refuses, and config files that cannot
  be read.

For each it writes ``<name>.argv``, ``<name>.stdout``, ``<name>.stderr`` and
``<name>.exit`` into OUT_DIR.  Run it once with ``PYTHONPATH`` naming one
tree's ``src/`` and once naming another's, into two directories: an empty
``diff -r`` of the two means the CLI's bytes and exit codes are unchanged.
It needs only the standard library and ``momtrunc``, and reads, but never
edits, ``perfbench/``.

Where full-precision JSON may move within a stated tolerance, compare two
such directories with::

    python3 tests/report_corpus.py --compare OLD_DIR NEW_DIR

Every file must be byte-identical except the JSON reports
(``*-json.stdout``).  In those, every key, the columns, the row count and
every cell that is not a float must match.  For the float cells it prints
one line per (experiment, column) that moved: the number of cells moved
and the worst relative move, |new - old| / |old|.  It exits 1, after
naming each, on any other difference, and needs only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shlex
import sys
from collections import Counter
from pathlib import Path

# At two BLAS threads rounding-level cells of table2 change; set before numpy loads.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
# checks and momtrunc load where the corpus is written: --compare needs neither.

FORMATS = ("csv", "json")
SEEDS = range(1, 11)
REFUSALS = (
    "table1 --sizes 67108865",
    "table2 --sizes 13377",
    "spectrum-pairs --sizes 67108865",
    "assoc --pairs 1,67108865",
    "table2 --sizes 3 --delete-tail 3",
    "tails --pairs 2,2 --sizes 40",
    "table1 --pairs 1,5 --sizes 3",
    "diverge --pairs 1,2",
    "table1 --format xml",
    "table2 --delete-tail x",
    "table2 --config /nonexistent/momtrunc.json",
    "table2 --config /",
)


def corpus() -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in the order they run."""
    import checks
    from momtrunc import cli

    runs = [
        (f"defaults-{command}-{fmt}", [command, "--format", fmt])
        for command in cli.EXPERIMENTS
        for fmt in FORMATS
    ]
    for workload in ("products-scale", "spectra-scale"):
        for seed in SEEDS:
            for i, invocation in enumerate(checks.invocations(workload, seed)):
                for fmt in FORMATS:
                    name = f"{workload}-seed{seed:02d}-{i}-{invocation.args[0]}-{fmt}"
                    runs.append((name, [*invocation.args, "--format", fmt]))
    for i, line in enumerate(REFUSALS, 1):
        argv = shlex.split(line)
        runs.append((f"refusal-{i:02d}-{argv[0]}", argv))
    return runs


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one ``main(argv)``."""
    from momtrunc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def main(out_dir: str) -> int:
    from momtrunc import cli

    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    codes: Counter[int] = Counter()
    for name, argv in corpus():
        stdout, stderr, code = run(argv)
        codes[code] += 1
        for suffix, text in [
            ("argv", shlex.join(argv) + "\n"),
            ("stdout", stdout),
            ("stderr", stderr),
            ("exit", f"{code}\n"),
        ]:
            (target / f"{name}.{suffix}").write_text(text, encoding="utf-8")
    counts = ", ".join(f"{n} exited {code}" for code, n in sorted(codes.items()))
    print(f"{codes.total()} runs of {cli.__file__}: {counts}")
    return 0


def relative_move(old: float, new: float) -> float:
    """|new - old| / |old|; 0 for equal values, inf from 0 or a non-finite value."""
    if old == new:
        return 0.0
    if old and math.isfinite(old) and math.isfinite(new):
        return abs(new - old) / abs(old)
    return math.inf


def float_moves(old: dict, new: dict, moves: dict[tuple[str, str], list[float]]) -> str:
    """Add each moved float cell of two JSON reports to ``moves``, keyed by
    (experiment, column); return what else differs, or "" if nothing does."""
    if {**old, "rows": None} != {**new, "rows": None}:
        return "keys, config or columns differ"
    if len(old["rows"]) != len(new["rows"]):
        return "row counts differ"
    for old_row, new_row in zip(old["rows"], new["rows"]):
        for column, x, y in zip(old["columns"], old_row, new_row, strict=True):
            if type(x) is not float or type(y) is not float:
                if type(x) is not type(y) or x != y:
                    return f"a cell of column {column} that is not a float differs"
            elif repr(x) != repr(y):
                moves.setdefault((old["experiment"], column), []).append(relative_move(x, y))
    return ""


def compare(old_dir: str, new_dir: str) -> int:
    """Print how two corpora differ: 0 if at most JSON floats moved, else 1."""
    old, new = Path(old_dir), Path(new_dir)
    names = sorted({path.name for path in [*old.iterdir(), *new.iterdir()]})
    moves: dict[tuple[str, str], list[float]] = {}
    faults, moved = [], 0
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            faults.append(f"{name}: in one directory only")
        elif a.read_bytes() == b.read_bytes():
            continue
        elif not name.endswith("-json.stdout"):
            faults.append(f"{name}: bytes differ")
        else:
            moved += 1
            try:
                fault = float_moves(json.loads(a.read_bytes()), json.loads(b.read_bytes()), moves)
            except (ValueError, KeyError, TypeError) as exc:
                fault = f"not a comparable report ({exc!r})"
            if fault:
                faults.append(f"{name}: {fault}")
    for (experiment, column), rel in sorted(moves.items()):
        print(f"{experiment} {column}: {len(rel)} cells moved, worst relative move {max(rel):.3g}")
    for fault in faults:
        print(f"DIFFERS {fault}")
    print(f"{len(names)} files: {moved} JSON reports moved, {len(faults)} other differences")
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR | --compare OLD_DIR NEW_DIR")
    sys.exit(main(sys.argv[1]))
