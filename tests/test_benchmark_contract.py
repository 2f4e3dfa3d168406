"""What the benchmark in ``perfbench/`` relies on, checked without running it.

``perfbench/tracer.py`` wraps library functions it looks up by name, and
``perfbench/checks.py`` compares the default reports with recorded ones.  A
rename or deletion that would break either fails here, and so does an array
sweep that no longer runs or sums the wrong products, or a spectra sweep
that no longer times each size or finds N eigenvalues at size N.  The
growth slopes of the ``diverge`` reports the benchmark runs are checked
against high-precision least-squares fits.
"""

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from momtrunc.cli import main
from momtrunc.operator import p3_hermitian_entry
from momtrunc.products import triple_product_sum

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


@pytest.fixture
def untraced(monkeypatch):
    # The tracer replaces module attributes and numpy.linalg.eigh for good;
    # re-setting them through monkeypatch restores them afterwards.
    for module in tracer.MODULES:
        for _, _, attribute, _ in tracer.TRACED:
            if hasattr(module, attribute):
                monkeypatch.setattr(module, attribute, getattr(module, attribute))
    monkeypatch.setattr(np.linalg, "eigh", np.linalg.eigh)


def test_traced_run_reports_what_main_reports(untraced):
    result = tracer.run_cli(["assoc"])
    assert result["code"] == 0
    assert result["report"] == _report(["assoc"])


def test_traced_spectrum_pairs_records_its_pairing_spans(untraced):
    # cli calls spectrum_pairing by its own global name, which the tracer
    # wraps because it is the object spectra exports.
    result = tracer.run_cli(["spectrum-pairs"])
    assert result["code"] == 0
    names = [span["name"] for span in result["spans"]]
    assert names.count("spectra.spectrum_pairing") == 2  # default sizes 999,1000


@pytest.mark.parametrize("command", checks.DEFAULT_COMMANDS)
def test_default_report_passes_reference_check(command):
    assert checks.reference_check(command)(_report([command])) == []


DIVERGE_RUNS = [("diverge",)] + [
    invocation.args
    for seed in range(1, 11)
    for invocation in checks.invocations("products-scale", seed)
    if invocation.args[0] == "diverge"
]


@pytest.mark.parametrize("args", DIVERGE_RUNS, ids=" ".join)
def test_diverge_growth_slopes_are_exact_least_squares_fits(args):
    # Each pair's slope is the least-squares slope of the float logs
    # log10 |fourth power - exact| against log10 size, rounded once: within
    # 2 eps of the same fit in 60 digits.
    report = json.loads(_report([*args, "--format", "json"]))
    rows = report["rows"]
    count = len(report["config"]["sizes"])
    assert rows and len(rows) % count == 0
    for start in range(0, len(rows), count):
        block = rows[start : start + count]
        xs = [math.log10(size) for _, _, size, *_ in block]
        ys = [math.log10(abs(value - exact)) for *_, value, exact, _, _ in block]
        with mpmath.workdps(60):
            x_mean = mpmath.fsum(xs) / count
            y_mean = mpmath.fsum(ys) / count
            numerator = mpmath.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
            exact_slope = numerator / mpmath.fsum((x - x_mean) ** 2 for x in xs)
            slope = block[0][-1]
            assert all(row[-1] == slope for row in block)
            error = abs(mpmath.mpf(slope) - exact_slope) / abs(exact_slope)
            assert error <= 2 * np.finfo(float).eps, (block[0][:2], float(error))


def test_array_sweep_times_every_size_and_sums_the_triple_products():
    result = tracer.sweep_arrays()
    sizes = tracer.SWEEP_SIZES
    assert sorted(result["times"]) == sorted(
        f"{layer}.n{size}_s"
        for layer in ("momentum_array", "triple_product_sum")
        for size in sizes
    )
    assert all(0.0 < seconds < 60.0 for seconds in result["times"].values())
    values = [result["values"][f"triple_product_sum.n{size}"] for size in sizes]
    assert values == [triple_product_sum(1, 2, size) for size in sizes]
    errors = [abs(value - p3_hermitian_entry(1, 2)) for value in values]
    assert errors[0] > errors[1] > errors[2]


def test_spectra_sweep_times_every_size_and_counts_the_eigenvalues(monkeypatch):
    # At the benchmark's sizes the dense eigh takes ~12 s; the sweep's shape
    # is the same at small ones.  It replaces numpy.linalg.eigh for good.
    sizes = (10, 20, 40)
    monkeypatch.setattr(tracer, "SWEEP_SIZES", sizes)
    monkeypatch.setattr(np.linalg, "eigh", np.linalg.eigh)
    result = tracer.sweep_spectra()
    assert sorted(result["times"]) == sorted(
        f"{layer}.n{size}_s"
        for layer in ("squared_momentum", "eigh", "eigen_symmetric")
        for size in sizes
    )
    assert all(0.0 < seconds < 60.0 for seconds in result["times"].values())
    assert result["values"] == {f"eigenvalues.n{size}": size for size in sizes}
