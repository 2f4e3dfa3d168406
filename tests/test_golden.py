"""Report bytes of the default experiments against frozen copies.

``tests/golden`` holds every default CSV report, every default JSON report
except ``table2``'s, and one small ``table2`` JSON report.  The default
``table2`` JSON is left out because its full-precision eigenvalues change
with the BLAS thread count; the CSVs and the small JSON do not.
"""

import contextlib
import io
from pathlib import Path

import pytest

from momtrunc.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ["table1", "table2", "p2check", "assoc", "diverge", "tails", "spectrum-pairs"]
CASES = (
    [(f"{command}.csv", [command]) for command in COMMANDS]
    + [
        (f"{command}.json", [command, "--format", "json"])
        for command in COMMANDS
        if command != "table2"
    ]
    + [
        (
            "table2-sizes-9-10-delete-tail-2.json",
            ["table2", "--sizes", "9,10", "--delete-tail", "2", "--format", "json"],
        )
    ]
)


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden_bytes(name, args):
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert main(args) == 0
    assert report.getvalue() == (GOLDEN / name).read_text(encoding="utf-8")
