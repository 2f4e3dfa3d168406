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
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
from collections import Counter
from pathlib import Path

# At two BLAS threads rounding-level cells of table2 change; set before numpy loads.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks
from momtrunc import cli

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def main(out_dir: str) -> int:
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    sys.exit(main(sys.argv[1]))
