import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_a_later_test():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # Under the repo's pytest settings, warnings are errors.  Hypothesis's
    # report on a failing example must not turn into an INTERNALERROR that
    # ends the run before later tests and hides the falsifying example.
    (tmp_path / "test_throwaway.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout
    assert run.returncode == 1
