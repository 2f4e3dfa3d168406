"""Self-tests for the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

They start real CLI children, including one traced and one untraced run of
the ``defaults`` workload, so they take about a minute.
"""

from __future__ import annotations

import json
import sys
import time
import unittest

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fresh_runner() -> run.Runner:
    return run.Runner(time.monotonic() + 120.0)


def printer(text: str) -> list[str]:
    return [sys.executable, "-c", f"import sys; sys.stdout.write({text!r})"]


class OutputChecks(unittest.TestCase):
    def test_corrupted_cell_counts_as_failure(self):
        reference = (checks.REFERENCE_DIR / "assoc.csv").read_text(encoding="utf-8")
        corrupted = reference.replace("13.751", "13.752")
        self.assertNotEqual(corrupted, reference)
        invocation = checks.invocations("defaults", 0)[3]
        self.assertEqual(invocation.args, ("assoc",))
        runner, tally = fresh_runner(), run.Tally()
        run.run_pass(runner, tally, [invocation], {})
        run.run_pass(runner, tally, [invocation], {}, argv_of=lambda _: printer(corrupted))
        self.assertEqual((tally.failed, tally.attempted), (1, 2))
        self.assertGreater(tally.failed / tally.attempted, 0.0)

    def test_repeat_with_other_bytes_counts_as_failure(self):
        invocation = checks.Invocation(("assoc",), lambda text: [])
        runner, tally, first = fresh_runner(), run.Tally(), {}
        run.run_pass(runner, tally, [invocation], first)
        other = first[0].replace("\n", "\r\n")
        run.run_pass(runner, tally, [invocation], first, argv_of=lambda _: printer(other))
        self.assertEqual(tally.failed, 1)

    def test_rounding_cells_use_library_tolerances(self):
        check = checks.reference_check("table2")
        reference = (checks.REFERENCE_DIR / "table2.csv").read_text(encoding="utf-8")
        # The zero mode and pair gaps as printed with two BLAS threads.
        self.assertEqual(check(reference.replace("3.964495e-12", "-4.076512e-12")), [])
        self.assertNotEqual(check(reference.replace("3.964495e-12", "0.5")), [])
        self.assertNotEqual(check(reference.replace("0.9966632,0.9966632", "0.9966632,0.9966633")), [])
        pairs = checks.reference_check("spectrum-pairs")
        text = (checks.REFERENCE_DIR / "spectrum-pairs.csv").read_text(encoding="utf-8")
        self.assertEqual(pairs(text.replace("1.248e-11", "5.076e-11")), [])
        self.assertNotEqual(pairs(text.replace("1.248e-11", "2.000e-06")), [])
        self.assertNotEqual(pairs(text.replace("true", "false", 1)), [])

    def test_table1_steps_match_exact_increments(self):
        reference = (checks.REFERENCE_DIR / "table1.csv").read_text(encoding="utf-8")
        pairs = [(1, 2), (2, 3), (20, 31), (60, 91)]
        check = checks.table1_check(pairs, (99, 100, 999, 1000, 1999, 2000))
        self.assertEqual(check(reference), [])
        # The N=100 value replaced by the N=99 one: a step that is not there.
        self.assertNotEqual(check(reference.replace("1,2,100,2.08815", "1,2,100,2.15596")), [])

    def test_malformed_report_is_a_problem_not_a_crash(self):
        check = checks.invocations("spectra-scale", 1)[0].check
        self.assertNotEqual(check(""), [])
        self.assertNotEqual(check("rank\nnot,a,table\n"), [])


class Workloads(unittest.TestCase):
    @staticmethod
    def sizes_only(invocations):
        return [
            tuple(a for k, a in enumerate(inv.args) if k == 0 or inv.args[k - 1] == "--sizes")
            for inv in invocations
        ]

    def test_seeds_change_labels_not_sizes(self):
        for workload in checks.WORKLOADS:
            first = checks.invocations(workload, 1)
            second = checks.invocations(workload, 2)
            self.assertEqual(self.sizes_only(first), self.sizes_only(second))
        args = [checks.invocations("products-scale", s)[0].args for s in (1, 2)]
        self.assertNotEqual(args[0], args[1])
        tails = {checks.invocations("spectra-scale", s)[0].args[-1] for s in range(20)}
        self.assertEqual(tails, {"1", "2", "3"})

    def test_same_seed_same_invocations(self):
        for workload in checks.WORKLOADS:
            args = [[inv.args for inv in checks.invocations(workload, 7)] for _ in range(2)]
            self.assertEqual(args[0], args[1])


class Usage(unittest.TestCase):
    def test_small_child_after_large_reports_own_rss(self):
        runner = fresh_runner()
        large = runner.run([sys.executable, "-c", "x = b'x' * (300 << 20)"])
        small = runner.run([sys.executable, "-c", "pass"])
        self.assertEqual((large.code, small.code), (0, 0))
        self.assertGreater(large.rss_mb, 300.0)
        self.assertLess(small.rss_mb, 100.0)


class Metrics(unittest.TestCase):
    def emitted(self, trace: int) -> dict:
        runner = fresh_runner()
        child = runner.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "defaults",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        )
        self.assertEqual(child.code, 0, child.stderr)
        result = json.loads(child.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_every_emitted_metric_is_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            metrics = self.emitted(trace)
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_layer_notes_cover_every_layer_metric(self):
        layers = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
        noted = [name for group in layers.values() for name in group["metrics"]]
        self.assertEqual(sorted(noted), sorted(m["name"] for m in SPEC["per_layer"]))
        workloads = {w["name"] for w in SPEC["workloads"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for group in layers.values():
            self.assertLessEqual(set(group["workloads"]), workloads)
            self.assertLessEqual(set(group["moves"]), end_to_end)

    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
            {"name": "spectra.eigen_symmetric", "parent": 0, "start": 1.0, "end": 7.0},
            {"name": "spectra.eigh", "parent": 1, "start": 2.0, "end": 6.0},
        ]
        self.assertEqual(run.self_times(spans), [4.0, 2.0, 4.0])


if __name__ == "__main__":
    unittest.main()
