import ast
import inspect
import re
import shlex
from pathlib import Path

import momtrunc
from momtrunc import cli
from momtrunc.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_cli_block_runs_as_written(tmp_path):
    # Each "momtrunc ..." line of the first sh block under README's "## CLI"
    # heading, with --out appended so that no report lands in the checkout.
    cli = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("momtrunc ")]
    assert lines
    for i, line in enumerate(lines):
        _, *args = shlex.split(line, comments=True)
        assert main([*args, "--out", str(tmp_path / f"{i}.out")]) == 0, line


def test_benchmark_writer_compiles():
    # The heredoc under README's "## Benchmark" heading, the only writer of
    # BENCH_*.json; compiled, not run, since it runs the whole benchmark.
    bench = README.read_text(encoding="utf-8").split("\n## Benchmark\n", 1)[1]
    script = re.search(r"<<'EOF'\n(.*?)^EOF$", bench, re.DOTALL | re.MULTILINE).group(1)
    compile(script, f"{README}:Benchmark", "exec")


def _without_imports(path: Path) -> str:
    # The module's text with its import statements and __all__ blanked out:
    # naming a function there does not call it.
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        exported = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        )
        if exported or isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_every_public_function_has_a_caller():
    # Each name in momtrunc.__all__ or momtrunc.cli.__all__ is named outside
    # the imports and __all__ of another src/momtrunc module (not __init__,
    # which lists every public name), in the acceptance suite, the benchmark
    # or README's Library block; classes and __version__ are exempt.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    elsewhere = [
        library.split("\n## ", 1)[0],
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
        *(
            path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "perfbench").rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
        ),
    ]
    modules = [
        path for path in sorted((ROOT / "src" / "momtrunc").glob("*.py"))
        if path.name != "__init__.py"
    ]
    public = [(momtrunc, name) for name in momtrunc.__all__]
    public += [(cli, name) for name in cli.__all__]
    caller_less = []
    for module, name in public:
        function = getattr(module, name)
        if not inspect.isfunction(function):
            continue
        own = Path(inspect.getfile(function)).resolve()
        others = [path for path in modules if path.resolve() != own]
        texts = elsewhere + [_without_imports(path) for path in others]
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            caller_less.append(name)
    assert caller_less == []
