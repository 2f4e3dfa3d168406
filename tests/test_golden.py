"""Report bytes of the default experiments against frozen copies.

``tests/golden`` holds every default CSV report, every default JSON report
except ``table2``'s, and three small ``table2`` JSON reports.  The default
``table2`` JSON is left out because its full-precision eigenvalues change
with the BLAS thread count; the CSVs and the small JSONs do not.  At
``--delete-tail 3`` the small ones derive two deletions from one factored
block, the rows side at sizes 40,41 (through the null vector's pole) and
the columns side at 59,60, so they pin the tail-row rotation between them.
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
            f"table2-sizes-{small}-{large}-delete-tail-{d}.json",
            ["table2", "--sizes", f"{small},{large}", "--delete-tail", str(d)]
            + ["--format", "json"],
        )
        for small, large, d in [(9, 10, 2), (40, 41, 3), (59, 60, 3)]
    ]
)


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden_bytes(name, args):
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert main(args) == 0
    assert report.getvalue() == (GOLDEN / name).read_text(encoding="utf-8")
