import re
import shlex
from pathlib import Path

from momtrunc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    # The first python block under README's "## Library" heading.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})


def test_cli_example_prints_as_shown(capsys):
    # The first fenced block after "For example:" under README's "## CLI"
    # heading: a "$ momtrunc ..." line, then the lines it prints.
    cli = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    example = cli.split("\nFor example:\n", 1)[1]
    block = re.search(r"```\n(.*?)```", example, re.DOTALL).group(1)
    command, printed = block.split("\n", 1)
    program, *args = shlex.split(command.removeprefix("$ "))
    assert program == "momtrunc"
    assert main(args) == 0
    assert capsys.readouterr().out == printed
