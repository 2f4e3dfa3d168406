"""Benchmark for the momtrunc CLI, run the way a researcher runs it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload defaults --seed 1 --seconds 38 --trace 0

Closed loop, one client: every CLI invocation is a fresh subprocess, and the
next starts only after the previous one has exited.  Each child runs with
one BLAS thread (``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``), because
at two threads rounding-level cells of the default table2 and
spectrum-pairs CSVs change.  Every report is checked (see ``checks.py``),
and every repeat at one seed must reproduce the first repeat's bytes.

``--trace 0`` repeats the workload for up to ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs every workload once through
``tracer.py``, the named workload once more untraced (for the tracing
overhead and a byte comparison), then the layer sweep, and reports the
per-layer metrics.  Metric names and units are declared in
``BENCHMARK.json``; ``layers.json`` says which end-to-end metric and
workload each layer metric should move.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the failed ratio over
every child process the run started.  Without a momtrunc source tree in the
working directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_REPEATS = 11
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
LAYER_STATS = (
    ("operator.momentum_array", ("calls", "distinct_sizes", "self_s", "bytes")),
    ("products.triple_product_sum", ("calls", "self_s", "terms")),
    ("products.quad_power_entry", ("calls", "self_s")),
    ("products.pp2p_partial_sum", ("self_s",)),
    ("products.p2_partial_sum", ("self_s",)),
    ("spectra.eigh", ("calls", "self_s")),
    ("spectra.eigen_symmetric", ("self_s",)),
    ("spectra.spectrum_pairing", ("self_s",)),
    ("spectra.squared_momentum", ("self_s",)),
    ("spectra.truncate_after_squaring", ("self_s",)),
    ("tails.tail_estimate", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
# Layers each workload calls at this commit.  A traced run reports only
# these for the workload: a layer it never calls would read zero every run.
WORKLOAD_LAYERS = {
    "defaults": tuple(name for name, _ in LAYER_STATS),
    "products-scale": (
        "operator.momentum_array",
        "products.triple_product_sum",
        "products.quad_power_entry",
        "products.pp2p_partial_sum",
        "cli.main",
    ),
    "spectra-scale": (
        "spectra.eigh",
        "spectra.eigen_symmetric",
        "spectra.spectrum_pairing",
        "spectra.squared_momentum",
        "spectra.truncate_after_squaring",
        "cli.main",
    ),
}
UNITS = {"calls": "count", "self_s": "s", "terms": "count", "distinct_sizes": "count", "bytes": "B"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Tally:
    """Every child process of a run, and which of them failed."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    peak_rss_mb: float = 0.0

    def record(self, child: Child, problems: list[str]) -> None:
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if child.code != 0:
            problems = [f"exit {child.code}: {child.stderr.strip()[-300:]}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Runner:
    """Starts children under one deadline and reaps each with ``os.wait4``.

    ``wait4`` returns the child's own resource usage.  ``RUSAGE_CHILDREN``
    would not do: its max RSS is the maximum over every child reaped so far,
    so a small child after a large one would report the large one's RSS.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)

    def run(self, argv: list[str]) -> Child:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("deadline passed before the run finished")
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        errors: list[bytes] = []
        reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
        killer = threading.Timer(timeout, proc.kill)
        try:
            reader.start()
            killer.start()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        return Child(
            code=proc.returncode,
            stdout=out.decode("utf-8", "replace"),
            stderr=b"".join(errors).decode("utf-8", "replace"),
            wall_s=time.perf_counter() - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "momtrunc.cli", *args]


def tracer_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), *args]


def setup_times(runner: Runner, tally: Tally, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing ``momtrunc.cli``."""
    times = []
    for _ in range(repeats):
        child = runner.run([sys.executable, "-c", "import momtrunc.cli"])
        tally.record(child, [])
        if child.code != 0:
            raise BenchError(f"cannot import momtrunc.cli: {child.stderr.strip()[-300:]}")
        times.append(child.wall_s)
    return times


def run_pass(
    runner: Runner,
    tally: Tally,
    invocations: list[checks.Invocation],
    first_reports: dict[int, str],
    argv_of: Callable[[tuple[str, ...]], list[str]] = cli_argv,
    parse: Callable[[Child], tuple[str, int]] | None = None,
) -> list[Child]:
    """One workload run: every invocation in order, each checked.

    ``first_reports`` holds each invocation's first report; a later report
    with other bytes is a failure.  ``parse`` turns a tracer child's output
    into the report and the CLI's exit code.
    """
    children = []
    for k, inv in enumerate(invocations):
        child = runner.run(argv_of(inv.args))
        report = child.stdout
        if parse is not None and child.code == 0:
            report, child.code = parse(child)
        problems = inv.check(report) if child.code == 0 else []
        if k in first_reports and report != first_reports[k]:
            problems.append(f"{' '.join(inv.args)}: report bytes differ from the first repeat")
        first_reports.setdefault(k, report)
        tally.record(child, problems)
        children.append(child)
    return children


def end_to_end(workload: str, seed: int, seconds: float, runner: Runner, tally: Tally):
    setup = setup_times(runner, tally, SETUP_REPEATS)
    invocations = checks.invocations(workload, seed)
    walls, cpus, first_reports = [], [], {}
    start = time.perf_counter()
    # Stop before a further workload run would end past ``seconds``.
    while not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds:
        children = run_pass(runner, tally, invocations, first_reports)
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
    print(f"samples: wall_s {[round(w, 4) for w in walls]}, cpu_s {[round(c, 4) for c in cpus]}")
    print(f"samples: setup_s {[round(t, 4) for t in setup]}")
    # A tail percentile needs at least 11 samples; a run has fewer workload
    # runs than that, so it reports medians and repeated runs give the spread.
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(workload: str, span_sets: list[list[dict]]):
    """Per-layer metrics of one workload from the spans of its traced children.

    Entry arrays are cached per process, so ``distinct_sizes`` and ``bytes``
    (computed as 8 N^2 per distinct size) add up over the children.
    """
    units = {f"{name}.{stat}": UNITS[stat] for name, stats in LAYER_STATS for stat in stats}
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in units.items()}
    for spans in span_sets:
        array_sizes = set()
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            metrics[f"{name}.self_s"] += own
            if f"{name}.calls" in metrics:
                metrics[f"{name}.calls"] += 1
            if name == "operator.momentum_array":
                array_sizes.add(span["size"])
            elif name == "products.triple_product_sum":
                metrics["products.triple_product_sum.terms"] += span["size"] ** 2
        metrics["operator.momentum_array.distinct_sizes"] += len(array_sizes)
        metrics["operator.momentum_array.bytes"] += sum(8 * n * n for n in array_sizes)
    return {
        f"{workload}.{name}": (value, units[name])
        for name, value in metrics.items()
        if name.rsplit(".", 1)[0] in WORKLOAD_LAYERS[workload]
    }


def _parse_traced(store: list[list[dict]]):
    def parse(child: Child) -> tuple[str, int]:
        result = json.loads(child.stdout)
        store.append(result["spans"])
        return result["report"], result["code"]

    return parse


def sweep_problems(result: dict) -> list[str]:
    problems = []
    target = 0.5 * 5 * checks.momentum_entry(1, 2)
    for name, value in result["values"].items():
        size = int(name.rsplit(".n", 1)[1])
        if name.startswith("triple_product_sum") and abs(value - target) > checks.TABLE1_TOL * abs(target):
            problems.append(f"sweep {name} = {value}, target {target}")
        if name.startswith("eigenvalues") and value != size:
            problems.append(f"sweep {name} = {value}")
    return problems


def traced(workload: str, seed: int, runner: Runner, tally: Tally):
    """One traced pass of every workload, the sweep, and the overhead.

    The overhead is the traced minus the untraced wall time of one pass of
    ``workload``; the traced pass must also reproduce the untraced bytes.
    """
    setup_times(runner, tally, 1)  # compiles bytecode before anything is timed
    metrics = {}
    for name in checks.WORKLOADS:
        invocations = checks.invocations(name, seed)
        first_reports: dict[int, str] = {}
        if name == workload:
            untraced = run_pass(runner, tally, invocations, first_reports)
        span_sets: list[list[dict]] = []
        children = run_pass(
            runner,
            tally,
            invocations,
            first_reports,
            argv_of=lambda args: tracer_argv("cli", *args),
            parse=_parse_traced(span_sets),
        )
        if name == workload:
            overhead = sum(c.wall_s for c in children) - sum(c.wall_s for c in untraced)
        metrics.update(layer_metrics(name, span_sets))
    for mode in ("sweep-arrays", "sweep-spectra"):
        child = runner.run(tracer_argv(mode))
        if child.code != 0:
            raise BenchError(f"{mode} failed: {child.stderr.strip()[-300:]}")
        result = json.loads(child.stdout)
        tally.record(child, sweep_problems(result))
        metrics.update({f"sweep.{k}": (v, "s") for k, v in result["times"].items()})
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


MACHINE_PROBE = """
import json, os, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"nproc": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas["name"] + " " + blas["version"]}))
"""


def machine_block(runner: Runner) -> dict:
    """nproc, Python, numpy and BLAS as the children see them."""
    child = runner.run([sys.executable, "-c", MACHINE_PROBE])
    if child.code != 0:
        raise BenchError(f"machine probe failed: {child.stderr.strip()[-300:]}")
    return {**json.loads(child.stdout), **BLAS_THREADS}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runner = Runner(time.monotonic() + DEADLINE_S)
    tally = Tally()
    try:
        if not (ROOT / "src" / "momtrunc" / "cli.py").is_file():
            raise BenchError(f"no momtrunc source under {ROOT / 'src'}; run from a checkout root")
        declared = declared_metrics(bool(args.trace))
        machine = machine_block(runner)
        if args.trace:
            metrics = traced(args.workload, args.seed, runner, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, runner, tally)
        emitted = {name: unit for name, (_, unit) in metrics.items()}
        if emitted != declared:
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(emitted.items() ^ declared.items())}")
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print("machine: " + json.dumps(machine))
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    print(f"failed_ratio: {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
