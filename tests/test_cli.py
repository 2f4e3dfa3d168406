import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momtrunc import cli, exact, operator, products, spectra, tails
from momtrunc.cli import main


def run_cli(args):
    """Invoke the CLI in-process, returning its exit code."""
    try:
        return main(args)
    except SystemExit as exc:  # argparse-style usage exits
        return exc.code


def read_csv(path):
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    return [dict(zip(columns, line.split(","))) for line in lines]


class TestTable1:
    def test_printed_digits_round_trip(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = run_cli(
            ["table1", "--pairs", "1,2;60,91", "--sizes", "99,100", "--out", str(out)]
        )
        assert code == 0
        rows = {
            (r["m"], r["n"], r["size"]): r for r in read_csv(out)
        }
        assert round(float(rows[("1", "2", "99")]["triple_product"]), 3) == 2.156
        assert round(float(rows[("60", "91", "99")]["triple_product"]), 1) == 5198.7
        assert round(float(rows[("1", "2", "99")]["target"]), 3) == 2.122

    def test_empty_pairs_is_usage_error(self, tmp_path):
        assert run_cli(["table1", "--pairs", "", "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_pairs_is_usage_error(self):
        assert run_cli(["table1", "--pairs", "1;2,3"]) == 2

    def test_descending_sizes_is_usage_error(self):
        assert run_cli(["table1", "--pairs", "1,2", "--sizes", "100,99"]) == 2


class TestTable2:
    def test_layout_and_blanks(self, tmp_path):
        out = tmp_path / "t2.csv"
        code = run_cli(
            ["table2", "--sizes", "9,10", "--delete-tail", "1", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text
        rows = read_csv(out)
        assert list(rows[0]) == ["rank", "complete_9", "truncated_10_to_9", "complete_10"]
        assert len(rows) == 10
        # orders 9 and the repaired 9 stop at rank 9
        assert rows[9]["complete_9"] == ""
        assert rows[9]["truncated_10_to_9"] == ""
        assert rows[9]["complete_10"] != ""

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "t2.json"
        code = run_cli(
            ["table2", "--sizes", "9,10", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["experiment"] == "table2"
        assert payload["config"]["sizes"] == [9, 10]
        assert payload["columns"][0] == "rank"
        assert len(payload["rows"]) == 10
        assert payload["rows"][9][1] is None  # rank 10 of the order-9 column

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli(["table2", "--sizes", "9,10", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_deletion_above_the_largest_size_names_its_flag(self, capsys):
        assert run_cli(["table2", "--sizes", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "momtrunc: error: --delete-tail must be < the largest size 1, "
            "got 1 (it defaults to 1)\n"
        )
        assert run_cli(["table2", "--sizes", "1", "--delete-tail", "0"]) == 0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--delete-tail", "x", "delete_tail must be a nonnegative integer, got 'x'"),
            (
                "--delete-tail",
                "1.5",
                "delete_tail must be a nonnegative integer, got '1.5'",
            ),
            ("--format", "xml", "format must be 'csv' or 'json', got 'xml'"),
        ],
        ids=["delete-tail-x", "delete-tail-1.5", "format-xml"],
    )
    def test_bad_flag_values_are_one_usage_line(self, flag, value, message, capsys):
        # The key's reader refuses the flag's text, as it refuses a config value.
        assert run_cli(["table2", "--sizes", "9,10", flag, value]) == 2
        assert capsys.readouterr().err == f"momtrunc: error: {message}\n"


class TestOtherCommands:
    def test_p2check_values(self, tmp_path):
        out = tmp_path / "p2.csv"
        code = run_cli(
            ["p2check", "--pairs", "1,1", "--sizes", "100,1000", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["exact"] for r in rows] == ["1", "1"]
        assert abs(float(rows[1]["partial_sum"]) - 1.0) < 1e-2

    def test_assoc_blank_ratio_for_even_pair(self, tmp_path):
        out = tmp_path / "assoc.csv"
        code = run_cli(["assoc", "--pairs", "1,2;3,3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert float(rows[0]["ratio"]) == 4.0
        assert rows[1]["ratio"] == ""

    def test_diverge_requires_same_parity(self):
        assert run_cli(["diverge", "--pairs", "1,2", "--sizes", "30,60"]) == 2

    def test_diverge_reports_growth(self, tmp_path):
        out = tmp_path / "div.csv"
        code = run_cli(
            ["diverge", "--pairs", "1,1", "--sizes", "30,60,120", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        values = [float(r["fourth_power"]) for r in rows]
        assert values[0] < values[1] < values[2]
        assert {r["exact_fourth_power"] for r in rows} == {"1"}
        assert float(rows[0]["growth_slope"]) > 0

    def test_diverge_fits_its_slope_without_lapack(self, monkeypatch, capsys):
        # The growth slope is a closed-form fit; no numpy least-squares call.
        def fail(*args, **kwargs):
            raise AssertionError("numpy least squares called")

        monkeypatch.setattr(np, "polyfit", fail)
        monkeypatch.setattr(np.linalg, "lstsq", fail)
        assert run_cli(["diverge"]) == 0
        golden = Path(__file__).parent / "golden" / "diverge.csv"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_tails_rejects_odd_sizes(self):
        assert run_cli(["tails", "--pairs", "1,2", "--sizes", "199,399"]) == 2

    def test_tails_report(self, tmp_path):
        out = tmp_path / "tails.csv"
        code = run_cli(
            ["tails", "--pairs", "1,2", "--sizes", "200,400", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["k_max"] for r in rows] == ["20", "40"]
        assert float(rows[0]["exact"]) == pytest.approx(3.952e-5, rel=1e-3)

    @pytest.mark.parametrize(
        "args", [["table2", "--sizes", "9,10", "--delete-tail", "3"], ["spectrum-pairs"]]
    )
    def test_spectra_use_no_dense_eigensolve_or_array(self, args, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense path called")

        eigh = np.linalg.eigh

        def half_size_eigh(matrix, *args, **kwargs):
            # ceil(N/2) = 5 at the largest N = 10 here: no order-N solve.
            if max(matrix.shape) > 5:
                refuse()
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", half_size_eigh)
        monkeypatch.setattr(operator, "momentum_array", refuse)
        monkeypatch.setattr(spectra, "squared_momentum", refuse)
        assert run_cli(args + ["--out", os.devnull]) == 0

    @pytest.mark.parametrize(
        "sizes, delete_tail, factored",
        [
            ("199,200", "3", 1),  # every block within two deletions of W(100, 100)
            ("10,200", "1", 2),  # W(5, 5) is too far from it: its own eigh
        ],
    )
    def test_table2_factors_only_blocks_it_cannot_derive(
        self, sizes, delete_tail, factored, eigh_calls
    ):
        args = ["table2", "--sizes", sizes, "--delete-tail", delete_tail]
        assert run_cli(args + ["--out", os.devnull]) == 0
        assert len(eigh_calls) == factored, eigh_calls

    def test_spectrum_pairs_takes_no_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposition called")

        for name in ("svd", "eigh", "eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("_factor_block", "_w_block"):
            monkeypatch.setattr(spectra, name, refuse)
        assert run_cli(["spectrum-pairs", "--out", os.devnull]) == 0

    def test_spectrum_pairs_report(self, tmp_path):
        out = tmp_path / "pairs.csv"
        code = run_cli(["spectrum-pairs", "--sizes", "9,10", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["zero_modes"] for r in rows] == ["1", "0"]
        assert [r["pair_count"] for r in rows] == ["4", "5"]
        assert {r["pairing_ok"] for r in rows} == {"true"}


class TestConfigAndErrors:
    def test_config_file_supplies_values_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"pairs": [[1, 2]], "sizes": [50, 99], "format": "json"}),
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code = run_cli(
            [
                "table1",
                "--config",
                str(cfg),
                "--format",
                "csv",  # overrides the file's json
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert [(r["m"], r["n"]) for r in rows] == [("1", "2"), ("1", "2")]
        assert [r["size"] for r in rows] == ["50", "99"]

    def test_config_file_takes_the_flag_strings(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": "1,2", "sizes": "50,99"}), encoding="utf-8")
        assert run_cli(["table1", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert run_cli(["table1", "--pairs", "1,2", "--sizes", "50,99"]) == 0
        assert capsys.readouterr().out == from_config

    def test_config_file_takes_every_key_as_flag_text(self, tmp_path, capsys):
        flags = {"sizes": "9,10", "delete_tail": "2", "format": "json"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags), encoding="utf-8")
        assert run_cli(["table2", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        args = [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        assert run_cli(["table2", *args]) == 0
        assert capsys.readouterr().out == from_config

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pears": 1}), encoding="utf-8")
        assert run_cli(["table1", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            b'{"sizes": [9, 10], "note": "\xff"}',
            b'{"sizes": [' + b"9" * 5000 + b"]}",
            b"[" * 100000,
        ],
        ids=["not-utf-8", "5000-digit-integer", "nested-100000-deep"],
    )
    def test_unparsable_config_files_are_usage_errors(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run_cli(["table2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("momtrunc: error: config file") and err.count("\n") == 1

    def test_unreadable_config_files_are_usage_errors(self, tmp_path, capsys):
        for cfg in (tmp_path / "missing.json", tmp_path):
            assert run_cli(["table2", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"momtrunc: error: cannot read config file {cfg}: ")
            assert err.count("\n") == 1

    def test_config_file_must_hold_a_json_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert run_cli(["table2", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"momtrunc: error: config file {cfg} must hold a JSON object\n"
        )

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("table2", "pairs", "1,2"),
            ("spectrum-pairs", "pairs", "1,2"),
            ("assoc", "sizes", "10000000000000"),
            ("table1", "delete_tail", "1"),
        ],
    )
    def test_flags_and_config_keys_a_command_does_not_read_are_usage_errors(
        self, command, key, value, tmp_path, capsys
    ):
        assert run_cli([command, "--" + key.replace("_", "-"), value]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        assert run_cli([command, "--config", str(cfg)]) == 2
        assert f"config keys {command} does not read" in capsys.readouterr().err

    def test_unread_flag_is_reported_with_the_subcommand_usage(self, capsys):
        assert run_cli(["table2", "--pairs", "1,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: momtrunc table2 ")
        assert err.count("error:") == 1

    @pytest.mark.parametrize("command", list(cli.EXPERIMENTS))
    def test_json_config_echo_reproduces_the_report(self, command, tmp_path, capsys):
        assert run_cli([command, "--format", "json"]) == 0
        report = capsys.readouterr().out
        echo = json.loads(report)["config"]
        assert "out" not in echo
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(echo), encoding="utf-8")
        assert run_cli([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == report

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = run_cli(
            ["table1", "--pairs", "1,2", "--sizes", "50", "--out", str(missing_dir)]
        )
        assert code == 1

    def test_missing_output_directory_is_refused_before_computing(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(p, q):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr(spectra, "_factor_block", refuse)
        missing = tmp_path / "no" / "out.csv"
        assert run_cli(["table2", "--sizes", "4000", "--out", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("momtrunc: error: cannot write") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["", "."], ids=["empty", "directory"])
    def test_path_naming_no_file_is_refused_before_computing(
        self, target, tmp_path, monkeypatch, capsys
    ):
        def refuse(p, q):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr(spectra, "_factor_block", refuse)
        monkeypatch.chdir(tmp_path)
        assert run_cli(["table2", "--sizes", "4000", "--out", target]) == 1
        err = capsys.readouterr().err
        assert err.startswith("momtrunc: error: cannot write") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_stdout_default(self, capsys):
        assert run_cli(["assoc", "--pairs", "1,2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "m,n,left_product,right_product,ratio"

    def test_failed_residual_check_is_runtime_error(self, monkeypatch, capsys):
        monkeypatch.setattr(spectra, "_RESIDUAL_TOL", -1.0)
        assert run_cli(["table2", "--sizes", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("momtrunc: error: eigensolve residual")
        assert err.count("\n") == 1

    def test_failed_bracket_check_is_runtime_error(self, monkeypatch, capsys):
        reciprocals = spectra._reciprocals
        # A secular function with the wrong sign has no bracket to check.
        monkeypatch.setattr(
            spectra, "_reciprocals", lambda shifted, tau: -reciprocals(shifted, tau)
        )
        assert run_cli(["table2", "--sizes", "9,10", "--delete-tail", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("momtrunc: error: secular equation: no checked bracket")
        assert err.count("\n") == 1


class TestHelp:
    def test_top_level_help(self, capsys):
        assert run_cli(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.EXPERIMENTS)

    @pytest.mark.parametrize("command", list(cli.EXPERIMENTS))
    def test_each_command_lists_its_flags(self, command, capsys):
        # argparse %-formats help texts, so a bad one fails only here.
        assert run_cli([command, "--help"]) == 0
        out = capsys.readouterr().out
        keys = cli.EXPERIMENTS[command].keys
        for flag in ["--" + key.replace("_", "-") for key in keys] + ["--config"]:
            assert flag in out, flag


class TestDenseSizeGuard:
    def test_estimate_is_that_of_the_largest_size(self):
        # Orders 999 and 1000 both factor a 500 x 500 block: 96 * 500^2 bytes.
        assert exact.largest_order(96 * 500**2) == 1000
        assert exact.largest_order(96 * 500**2 - 1) == 998
        assert exact.largest_order(96 * 1000**2) == 2000
        assert exact.largest_order(96 * 1000**2 - 1) == 1998

    def test_limit_admits_sizes_up_to_13376(self):
        assert exact.largest_order(cli._MAX_DENSE_BYTES) == 13376
        assert cli.EXPERIMENTS["table2"].max_size == 13376
        assert type(cli.EXPERIMENTS["table2"].max_size) is int
        # 12 float64 arrays of ceil(N/2)^2 entries: 96 bytes per entry.
        assert 96 * 6688**2 <= cli._MAX_DENSE_BYTES < 96 * 6689**2

    def test_linear_limit_admits_sizes_up_to_67108864(self):
        assert cli._MAX_LABEL == 67108864
        for name, experiment in cli.EXPERIMENTS.items():
            if name != "table2":
                assert experiment.max_size == cli._MAX_LABEL

    def test_labels_up_to_the_linear_limit_evaluate_exactly(self):
        # Up to the limit m^2 is exact in float64, so the scalar and the array
        # evaluation of a_mn agree bit for bit.
        label = cli._MAX_LABEL
        assert label * label < 2**53
        entry = operator.momentum_entry
        assert entry(label - 1, label) == -entry(label, label - 1)
        partners = operator._partners(label, 5)
        row = dict(zip(partners, operator._closed_form(label, partners)))
        for s in range(1, 6):
            assert row.get(s, 0.0) == entry(label, s)

    def test_linear_limit_covers_the_measured_peak(self):
        # Each O(N) command's peak RSS at N = 10^6, less a bare import's,
        # scaled to the largest accepted size, fits the memory limit.  On
        # Linux a child's ru_maxrss starts from its parent's RSS at spawn, so
        # the children are started from a launcher that never imports numpy.
        launcher = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "child.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(child.returncode, usage.ru_maxrss * 1024)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}

        def peak(*args):
            argv = [sys.executable, "-c", launcher, sys.executable, *args]
            result = subprocess.run(
                argv, env=env, capture_output=True, text=True, check=True
            )
            code, rss = map(int, result.stdout.split())
            assert code == 0
            return rss

        size = 10**6
        # The O(N) commands load numpy; importing momtrunc.cli alone does not.
        imported = peak("-c", "import numpy, momtrunc.cli")
        linear = [("table1", "1,2"), ("diverge", "1,1"), ("p2check", "1,1"), ("tails", "1,2")]
        for command, pairs in linear:
            args = ["-m", "momtrunc.cli", command, "--pairs", pairs, "--sizes", str(size)]
            per_label = (peak(*args) - imported) / size
            scaled = imported + per_label * cli._MAX_LABEL
            assert scaled <= cli._MAX_DENSE_BYTES, (command, per_label)

    @pytest.mark.parametrize(
        "command, pairs",
        [
            ("table1", "1,2"),
            ("diverge", "1,1"),
            ("p2check", "1,1"),
            ("tails", "1,2"),
            ("spectrum-pairs", None),
        ],
    )
    def test_oversized_linear_request_exits_before_allocating(
        self, command, pairs, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array")

        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        args = [command, "--sizes", "1000000000000"]
        if pairs is not None:
            args += ["--pairs", pairs]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("momtrunc: error:") and err.count("\n") == 1
        assert "accepted up to N = 67108864" in err

    @pytest.mark.parametrize("command", ["table2"])
    def test_oversized_request_exits_before_allocating(self, command, monkeypatch, capsys):
        def refuse(*shape):
            raise AssertionError(f"allocated an array of shape {shape}")

        monkeypatch.setattr(operator, "_w_block", refuse)
        monkeypatch.setattr(spectra, "_w_block", refuse)
        # The largest size decides, whatever sizes come before it.
        for sizes in ("13377", "10,13377"):
            assert run_cli([command, "--sizes", sizes]) == 2
            err = capsys.readouterr().err
            assert err.startswith("momtrunc: error:") and err.count("\n") == 1
            assert "accepted up to N = 13376" in err

    @pytest.mark.parametrize(
        "command, size, flag, limit",
        [("table1", 67108865, "100", 67108864), ("table2", 13377, "9,10", 13376)],
    )
    def test_oversized_config_size_is_refused_under_a_flag(
        self, command, size, flag, limit, tmp_path, capsys
    ):
        # Like a bad label, an oversized size in a config file is refused even
        # where a flag overrides it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [size]}), encoding="utf-8")
        assert run_cli([command, "--config", str(cfg), "--sizes", flag]) == 2
        assert capsys.readouterr().err == (
            f"momtrunc: error: {command} at size {size} is too large; "
            f"sizes are accepted up to N = {limit}\n"
        )

    def test_spectrum_pairs_is_accepted_beyond_the_spectra_limit(self, capsys):
        assert run_cli(["spectrum-pairs", "--sizes", "13377"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "13377,6688,1,0.000e+00,true"


COMMANDS = ["table1", "table2", "p2check", "assoc", "diverge", "tails", "spectrum-pairs"]
# Small labels often, so that tails' size >= 10 (m + n) can hold at size 64.
LABELS = st.integers(1, 4) | st.integers(1, 64)
ANY_LABEL = st.integers(-1, 64)


# A valid flag value for each key.
OVERRIDES = {
    "pairs": "1,2",
    "sizes": "9,10",
    "delete_tail": "1",
    "format": "csv",
    "out": os.devnull,
}


def _joined(items, sep):
    return sep.join(map(str, items))


# Flag-like strings of small numbers, so that no drawn size is costly.
FLAG_TEXT = st.lists(
    st.tuples(
        ANY_LABEL.map(str) | st.sampled_from(["", " ", "x", "1.5"]),
        st.sampled_from([",", ";"]),
    ),
    max_size=4,
).map(lambda parts: "".join(item + sep for item, sep in parts))
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), ANY_LABEL, FLAG_TEXT, st.just("json")),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
# Config values a command may accept, each in the forms a config file holds.
ACCEPTABLE = {
    "pairs": st.lists(st.tuples(LABELS, LABELS), min_size=1, max_size=2).flatmap(
        lambda ps: st.sampled_from(
            [[list(p) for p in ps], _joined((f"{m},{n}" for m, n in ps), ";")]
        )
    ),
    "sizes": st.lists(LABELS, min_size=1, max_size=3, unique=True).flatmap(
        lambda ss: st.sampled_from([sorted(ss), _joined(sorted(ss), ",")])
    ),
    "delete_tail": st.integers(0, 3),
    "format": st.sampled_from(["csv", "json"]),
    "out": st.none(),  # or a path the test gives
}


@st.composite
def cli_arguments(draw):
    """A subcommand with the flags it takes, mostly well formed."""
    command = draw(st.sampled_from(COMMANDS))
    pairs = draw(
        st.lists(st.tuples(LABELS, LABELS), min_size=1, max_size=2).map(
            lambda ps: _joined((f"{m},{n}" for m, n in ps), ";")
        )
        | st.lists(st.tuples(ANY_LABEL, ANY_LABEL), max_size=2).map(
            lambda ps: _joined((f"{m},{n}" for m, n in ps), ";")
        )
        | st.text(alphabet="0123456789,;- x", max_size=8)
    )
    sizes = draw(
        st.lists(LABELS, min_size=1, max_size=3, unique=True).map(
            lambda ss: _joined(sorted(ss), ",")
        )
        | st.lists(ANY_LABEL, max_size=3).map(lambda ss: _joined(ss, ","))
    )
    keys = cli.EXPERIMENTS[command].keys
    args = [command]
    if "pairs" in keys:
        args += ["--pairs", pairs]
    if "sizes" in keys:
        args += ["--sizes", sizes]
    # Any text but a flag's (argparse takes text that starts with "-" as one).
    text = st.sampled_from(["x", "1.5", "", "xml"]) | st.text(max_size=4).filter(
        lambda value: not value.startswith("-")
    )
    if "delete_tail" in keys and draw(st.booleans()):
        args += ["--delete-tail", draw(ANY_LABEL.map(str) | text)]
    formats = st.sampled_from(["csv", "json"])
    args += ["--format", draw(st.one_of(formats, formats, text))]
    return args


class TestExitCodes:
    @settings(deadline=None, max_examples=300)
    @given(cli_arguments())
    def test_fuzzed_arguments_end_in_a_report_or_a_usage_error(self, args):
        # No fuzzed input can hit a runtime fault (exit 1), so every input
        # the library would reject must be refused by the CLI with exit 2.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(args)
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert code == 2, err.getvalue()
            assert err.getvalue().splitlines()[-1].startswith("momtrunc")
            assert "Traceback" not in err.getvalue()

    @settings(
        deadline=None,
        max_examples=100,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_config_files_end_in_a_report_or_a_usage_error(self, data, tmp_path):
        command = data.draw(st.sampled_from(COMMANDS))
        report = tmp_path / "report"
        config = {}
        for key in cli.EXPERIMENTS[command].keys:
            acceptable, anything = ACCEPTABLE[key], JSON_VALUE
            if key == "out":
                # An unwritable path is a runtime error, so out gets one path.
                acceptable |= st.just(str(report))
                anything = JSON_VALUE.filter(lambda value: not isinstance(value, str))
            # Three to one for acceptable values, so that some runs end in a report.
            choice = st.one_of(acceptable, acceptable, acceptable, anything)
            config[key] = data.draw(choice, label=key)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([command, "--config", str(path)])
        if code == 0:
            assert not err.getvalue()
            text = report.read_text() if config["out"] else out.getvalue()
            assert text
        else:
            assert code == 2, err.getvalue()
            assert err.getvalue().startswith("momtrunc: error:"), err.getvalue()
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(
        "command, pairs, sizes",
        [
            ("tails", "2,2", "40"),  # m even
            ("tails", "1,1", "40"),  # n odd
            ("tails", "1,4", "40"),  # size < 10 (m + n)
            ("table1", "1,20", "10"),  # size < n
            ("diverge", "1,3", "2,4"),  # size < n
        ],
    )
    def test_inputs_the_library_rejects_are_usage_errors(self, command, pairs, sizes):
        assert run_cli([command, "--pairs", pairs, "--sizes", sizes]) == 2

    @pytest.mark.parametrize(
        "command, pairs, sizes",
        [
            ("table1", "1,2;1,20", "10"),  # the first pair fits, the second not
            ("diverge", "1,1;1,3", "2,4"),
            ("tails", "1,2;2,2", "40"),  # the first pair is valid, the second not
        ],
    )
    def test_refusals_come_before_any_computation(
        self, command, pairs, sizes, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError(f"computed {args} before refusing")

        for module, name in [
            (products, "triple_product_sum"),
            (products, "quad_power_entry"),
            (products, "pp2p_partial_sum"),
            (tails, "tail_estimate"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        assert run_cli([command, "--pairs", pairs, "--sizes", sizes]) == 2

    @pytest.mark.parametrize(
        "command, pairs, sizes, message",
        [
            ("tails", "1,2;2,2", "40", "(2,2) at size 40: m must be odd, got 2"),
            ("tails", "1,1", "40", "(1,1) at size 40: n must be even, got 1"),
            ("tails", "1,2", "40,41", "(1,2) at size 41: size must be even, got 41"),
            (
                "tails",
                "1,4",
                "40",
                "(1,4) at size 40: size must be >= 10 * (m + n) = 50, got 40",
            ),
            (
                "table1",
                "1,2;1,20",
                "10",
                "(1,20) at size 10: size must be >= max(m, n) = 20, got 10",
            ),
            (
                "diverge",
                "1,1;1,2",
                "30",
                "(1,2) at size 30: m + n must be even, got m=1, n=2",
            ),
            (
                "diverge",
                "1,1;1,3",
                "2,4",
                "(1,3) at size 2: size must be >= max(m, n) = 3, got 2",
            ),
            # Each check runs over every cell before the next check: the
            # parity of (1,2) is refused before the size of (1,3).
            (
                "diverge",
                "1,3;1,2",
                "2",
                "(1,2) at size 2: m + n must be even, got m=1, n=2",
            ),
        ],
        ids=[
            "m-even", "n-odd", "size-odd", "size-below-10(m+n)",
            "label-above-size", "mixed-parity", "label-above-first-size",
            "one-check-at-a-time",
        ],
    )
    def test_library_refusals_name_the_cell(
        self, command, pairs, sizes, message, capsys
    ):
        # The message after the cell is the library's own, raised by the
        # check its function runs.
        assert run_cli([command, "--pairs", pairs, "--sizes", sizes]) == 2
        assert capsys.readouterr().err == f"momtrunc: error: {message}\n"

    def test_pair_labels_above_the_largest_size_are_usage_errors(self, tmp_path, capsys):
        # Such labels would reach float conversion, which raises for 10^160.
        huge = 10**160
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": [[1, huge]]}), encoding="utf-8")
        for args in (
            ["assoc", "--pairs", f"{huge},2"],
            ["p2check", "--pairs", f"{huge},2", "--sizes", "10"],
            ["p2check", "--pairs", "67108865,2", "--sizes", "10"],
            ["assoc", "--config", str(cfg)],
        ):
            assert run_cli(args) == 2, args
            assert "pair labels must be <= 67108864" in capsys.readouterr().err
        assert run_cli(["assoc", "--pairs", "67108864,1"]) == 0

    @pytest.mark.parametrize("error", [ValueError, ArithmeticError])
    def test_library_errors_are_runtime_errors(self, error, monkeypatch, capsys):
        def fail(*args):
            raise error("no convergence")

        monkeypatch.setattr(spectra, "singular_spectra", fail)
        assert run_cli(["table2", "--sizes", "9,10"]) == 1
        assert capsys.readouterr().err == "momtrunc: error: no convergence\n"

    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 MiB"])
    @pytest.mark.parametrize(
        "module, name, args",
        [
            (spectra, "_factor_block", ["table2", "--sizes", "9,10"]),
            (
                products,
                "triple_product_sum",
                ["table1", "--pairs", "1,2", "--sizes", "9"],
            ),
        ],
    )
    def test_running_out_of_memory_is_one_error_line(
        self, module, name, args, message, monkeypatch, capsys
    ):
        def fail(*args):
            raise MemoryError(message)

        monkeypatch.setattr(module, name, fail)
        assert run_cli(args) == 1
        detail = f": {message}" if message else ""
        assert capsys.readouterr().err == f"momtrunc: error: out of memory{detail}\n"

    @pytest.mark.parametrize(
        "config",
        [
            {"tolerance_overrides": {}},
            {"sizes": [True]},
            {"pairs": [[1, True]]},
            {"delete_tail": False},
            {"out": 5},
            {"delete_tail": 1.5},
            {"format": "xml"},
            {"sizes": [10, 9]},
            {"pairs": []},
        ],
    )
    def test_bad_config_values_are_usage_errors(self, config, tmp_path):
        # table2 reads every key but pairs, which table1 reads.
        command = "table1" if "pairs" in config else "table2"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args = [command, "--config", str(path), "--sizes", "9,10"]
        assert run_cli(args) == 2
        # A flag for the same key does not hide the bad value.
        [key] = config
        if key in OVERRIDES:
            flag = ["--" + key.replace("_", "-"), OVERRIDES[key]]
            assert run_cli(args + flag) == 2


def test_cli_imports_only_the_standard_library_and_the_numpy_free_module():
    # Modules the interpreter's site setup preloads are left out by taking
    # the difference with what was loaded before the import.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import momtrunc.cli\n"
        "for name in sorted(set(sys.modules) - before):\n"
        "    print(name)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    package = {"momtrunc", "momtrunc.cli", "momtrunc.exact"}
    assert package <= loaded
    others = {name.partition(".")[0] for name in loaded - package}
    assert others <= sys.stdlib_module_names
    assert "numpy" not in others


# Runs cli.main on the arguments after -c and prints, as the last line of
# stderr, every module loaded by the time it exits.
_MODULES_AT_EXIT = (
    "import sys\n"
    "from momtrunc.cli import main\n"
    "try:\n"
    "    sys.exit(main(sys.argv[1:]))\n"
    "finally:\n"
    "    sys.stderr.write('\\n' + ' '.join(sorted(sys.modules)) + '\\n')\n"
)
_LINEAR = {"momtrunc.spectra", "momtrunc.tails"}
# (arguments, exit code, modules they must not load)
_LOADS = [
    (["assoc"], 0, {"numpy"}),
    (["spectrum-pairs"], 0, {"numpy"}),
    (["--help"], 0, {"numpy"}),
    (["table1", "--sizes", "0"], 2, {"numpy"}),
    (["table2", "--sizes", "99999"], 2, {"numpy"}),
    (["table2", "--sizes", "abc"], 2, {"numpy"}),
    (["table2", "--sizes", "3", "--delete-tail", "3"], 2, {"numpy"}),
    (["table1", "--pairs", "1,5", "--sizes", "3"], 2, {"numpy"}),
    (["diverge", "--pairs", "1,2"], 2, {"numpy"}),
    (["tails", "--pairs", "1,1", "--sizes", "10"], 2, {"numpy"}),
    (["table1"], 0, _LINEAR),
    (["p2check"], 0, _LINEAR),
    (["diverge"], 0, _LINEAR),
    (["tails"], 0, {"momtrunc.spectra", "momtrunc.products"}),
    (["table2"], 0, {"momtrunc.products", "momtrunc.tails"}),
]


@pytest.mark.parametrize(
    "args, code, absent", _LOADS, ids=[" ".join(args) for args, _, _ in _LOADS]
)
def test_each_command_loads_only_the_modules_it_runs(args, code, absent):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_AT_EXIT, *args],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == code, result.stderr
    loaded = set(result.stderr.splitlines()[-1].split())
    assert "momtrunc.cli" in loaded
    assert not loaded & absent


def test_cli_adds_no_module_to_the_import_chain():
    # Each module imported at startup adds to every command's setup time.
    # After numpy and the standard modules the package imports, importing
    # momtrunc.cli loads only the package and __future__.
    code = (
        "import sys\n"
        "import numpy, argparse, json, pathlib, typing, math, itertools\n"
        "before = set(sys.modules)\n"
        "import momtrunc.cli\n"
        "for name in sorted(set(sys.modules) - before):\n"
        "    print(name)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "momtrunc.cli" in added
    assert {name for name in added if name.partition(".")[0] != "momtrunc"} <= {
        "__future__"
    }
