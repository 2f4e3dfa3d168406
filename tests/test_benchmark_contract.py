"""What the benchmark in ``perfbench/`` relies on, checked without running it.

``perfbench/tracer.py`` wraps library functions it looks up by name, and
``perfbench/checks.py`` compares the default reports with recorded ones.  A
rename or deletion that would break either fails here.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from momtrunc.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
checks = _load("checks")


def _report(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    return out.getvalue()


@pytest.mark.parametrize("span, module, attribute", [row[:3] for row in tracer.TRACED])
def test_traced_attributes_exist(span, module, attribute):
    assert callable(getattr(module, attribute, None)), span


def test_traced_run_reports_what_main_reports(monkeypatch):
    # The tracer replaces module attributes and numpy.linalg.eigh for good;
    # re-setting them through monkeypatch restores them afterwards.
    for module in tracer.MODULES:
        for _, _, attribute, _ in tracer.TRACED:
            if hasattr(module, attribute):
                monkeypatch.setattr(module, attribute, getattr(module, attribute))
    monkeypatch.setattr(np.linalg, "eigh", np.linalg.eigh)
    result = tracer.run_cli(["assoc"])
    assert result["code"] == 0
    assert result["report"] == _report(["assoc"])


@pytest.mark.parametrize("command", checks.DEFAULT_COMMANDS)
def test_default_report_passes_reference_check(command):
    assert checks.reference_check(command)(_report([command])) == []
