"""Child-side tracing harness: spans around calls into momtrunc's layers.

Run in a fresh interpreter, one per CLI invocation, so caches start as cold
as they do for a user; ``run.py`` starts it with ``PYTHONPATH=src``::

    python3 perfbench/tracer.py cli table1 --sizes 99,100
    python3 perfbench/tracer.py sweep-arrays
    python3 perfbench/tracer.py sweep-spectra

Spans come from wrappers installed on module attributes that ``cli`` and
the library look up at call time, plus ``numpy.linalg.eigh``; nothing in
``src/`` is edited.  Spans are kept in memory and printed as one JSON object
on stdout when the child ends.

Some work cannot be split from outside the program: square assembly inside
``spectrum_pairing`` and ``quad_power_entry`` (both call a private helper
directly), and the residual check inside ``eigen_symmetric``.  Those costs
land in the self time of the function that does them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time

import numpy as np

import momtrunc.cli
import momtrunc.operator
import momtrunc.products
import momtrunc.spectra
import momtrunc.tails

# (span name, module, attribute, argument recorded as the span's size)
TRACED = (
    ("operator.momentum_array", momtrunc.operator, "momentum_array", "size"),
    ("products.triple_product_sum", momtrunc.products, "triple_product_sum", "size"),
    ("products.quad_power_entry", momtrunc.products, "quad_power_entry", None),
    ("products.pp2p_partial_sum", momtrunc.products, "pp2p_partial_sum", None),
    ("products.p2_partial_sum", momtrunc.products, "p2_partial_sum", None),
    ("spectra.eigen_symmetric", momtrunc.spectra, "eigen_symmetric", None),
    ("spectra.spectrum_pairing", momtrunc.spectra, "spectrum_pairing", None),
    ("spectra.squared_momentum", momtrunc.spectra, "squared_momentum", None),
    ("spectra.truncate_after_squaring", momtrunc.spectra, "truncate_after_squaring", None),
    ("tails.tail_estimate", momtrunc.tails, "tail_estimate", None),
)
MODULES = (momtrunc.cli, momtrunc.operator, momtrunc.products, momtrunc.spectra, momtrunc.tails)
SWEEP_SIZES = (1000, 2000, 4000)


class Tracer:
    """Records spans: name, start, end, parent index and optional size."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size_arg: str | None = None):
        signature = inspect.signature(fn) if size_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            if signature is not None:
                span["size"] = int(signature.bind(*args, **kwargs).arguments[size_arg])
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a module holds a reference."""
        for name, home, attr, size_arg in TRACED:
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, size_arg)
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        np.linalg.eigh = self.wrap("spectra.eigh", np.linalg.eigh)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def run_cli(argv: list[str]) -> dict:
    tracer = Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", momtrunc.cli.main)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return {"code": code, "report": report.getvalue(), "spans": tracer.spans}


def _warm_up_lapack() -> None:
    # The first eigensolve in a fresh process can stall for most of a
    # second; the sweep times steady-state calls, so pay it here.
    sample = np.add.outer(np.arange(200.0), np.arange(200.0))
    np.linalg.eigh(sample)


def _timed(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def sweep_arrays() -> dict:
    """Cold entry-array builds, then warm triple products, per size."""
    _warm_up_lapack()
    times, values = {}, {}
    for size in SWEEP_SIZES:
        times[f"momentum_array.n{size}_s"], _ = _timed(momtrunc.operator.momentum_array, size)
        elapsed, value = _timed(momtrunc.products.triple_product_sum, 1, 2, size)
        times[f"triple_product_sum.n{size}_s"] = elapsed
        values[f"triple_product_sum.n{size}"] = value
    return {"times": times, "values": values}


def sweep_spectra() -> dict:
    """Cold square builds, then eigensolves split into eigh and the rest."""
    _warm_up_lapack()
    tracer = Tracer()
    eigh = tracer.wrap("spectra.eigh", np.linalg.eigh)
    np.linalg.eigh = eigh
    times, values = {}, {}
    for size in SWEEP_SIZES:
        times[f"squared_momentum.n{size}_s"], square = _timed(
            momtrunc.spectra.squared_momentum, size
        )
        before = tracer.total("spectra.eigh")
        elapsed, report = _timed(momtrunc.spectra.eigen_symmetric, square)
        eigh_s = tracer.total("spectra.eigh") - before
        times[f"eigh.n{size}_s"] = eigh_s
        times[f"eigen_symmetric.n{size}_s"] = elapsed - eigh_s
        values[f"eigenvalues.n{size}"] = len(report.eigenvalues)
    return {"times": times, "values": values}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        result = run_cli(rest)
    elif mode == "sweep-arrays":
        result = sweep_arrays()
    elif mode == "sweep-spectra":
        result = sweep_spectra()
    else:
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
