import argparse
import contextlib
import csv
import errno
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import fstest
from fstest import cli, engine, robustness
from fstest.asymptotics import efficiency_grid
from fstest.cli import build_parser, main
from fstest.dataio import read_rows, write_rows
from fstest.engine import StatKind
from fstest.estimators import EstimatorKind

DATA = Path(__file__).parent / "data" / "gauss_n60_d3.csv"

FAST_POWER = [
    "power-table",
    "--seed", "5",
    "--family", "gaussian",
    "--reps", "40",
    "--null-reps", "200",
    "--n", "30",
    "--d", "2",
    "--beta-grid", "0,0.5",
]


class TestArgumentHandling:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["power-table"])
        assert exc.value.code == 2

    def test_unknown_family_rejected_by_argparse(self):
        for flag, value in [("--family", "student"), ("--format", "xml")]:
            with pytest.raises(SystemExit) as exc:
                main(["power-table", "--seed", "1", flag, value])
            assert exc.value.code == 2

    def test_bad_gamma_exits_one(self, capsys):
        rc = main(FAST_POWER + ["--gamma", "1.5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_beta_exits_one(self, capsys):
        rc = main(FAST_POWER[:-2] + ["--beta-grid", "0,2"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_data_file_exits_one(self, capsys):
        rc = main(["test", "--seed", "1", "--data", "/nonexistent/file.csv"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_validation(self, capsys):
        for argv, message in [
            (FAST_POWER + ["--gamma", "0.0"], "--gamma must lie in (0, 1]"),
            (FAST_POWER + ["--reps", "0"], "--reps must be positive"),
            (["critical-value", "--seed", "0", "--null-reps", "50"], "--null-reps must be at least 100"),
        ]:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    #: an out-of-range value of each flag in cli._FLAGS
    OUT_OF_RANGE = {"d": "0", "n": "1", "gamma": "0", "alpha": "1", "reps": "0", "null_reps": "99"}

    @staticmethod
    def _flag_pairs():
        """(subcommand, required argv, option string, dest) for every _FLAGS flag build_parser defines."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        pairs = []
        for command, parser in sub.choices.items():
            required = [arg for a in parser._actions if a.required
                        for arg in (a.option_strings[0], "/nonexistent/data.csv" if a.dest == "data" else "1")]
            pairs += [(command, required, a.option_strings[0], a.dest)
                      for a in parser._actions if a.dest in cli._FLAGS]
        return pairs

    def test_every_table_flag_is_checked_before_the_command_runs(self, capsys):
        pairs = self._flag_pairs()
        # breakdown's --gamma list and table2's ignored --mc-samples are not table flags
        assert len(pairs) == 22
        assert ("breakdown", ["--seed", "1"], "--gamma", "gamma") not in pairs
        for command, required, flag, dest in pairs:
            # test's --data names a missing file: the range error comes first
            assert main([command, *required, flag, self.OUT_OF_RANGE[dest]]) == 1, (command, flag)
            assert capsys.readouterr().err == f"error: {cli._FLAGS[dest][2]}\n", (command, flag)

    def test_range_error_precedes_a_missing_file(self, capsys):
        assert main(["test", "--seed", "1", "--data", "/nonexistent/file.csv", "--gamma", "2"]) == 1
        assert capsys.readouterr().err == "error: --gamma must lie in (0, 1]\n"

    def test_ignored_flags_stay_unchecked(self, capsys):
        assert main(["table2", "--seed", "1", "--delta", "0.5", "--mc-samples", "5", "--offset-reps", "-1"]) == 0
        assert main(["table3", "--seed", "1", "--family", "gaussian", "--n-grid", "10", "--d-grid", "2",
                     "--reps", "5", "--bootstrap", "-1"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["table2", "--seed", "1", "--delta", "nan"],
        ["table2", "--seed", "1", "--delta", "inf"],
        ["table3", "--seed", "1", "--n-grid", "nan", "--d-grid", "2", "--reps", "10"],
        ["table4", "--d-grid", "inf"],
    ])
    def test_non_finite_list_entries_exit_one(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith("contains non-finite entries\n")

    @pytest.mark.parametrize("argv, message", [
        (["table3", "--seed", "1", "--d-grid", "2,x"], "--d-grid must be a comma-separated list of reals, got '2,x'"),
        (["table3", "--seed", "1", "--d-grid", ","], "--d-grid must not be empty"),
        (["table3", "--seed", "1", "--n-grid", "10.5"], "--n-grid must contain integers, got '10.5'"),
        (["test", "--seed", "1", "--data", str(DATA), "--calibration", "formula", "--family", "cauchy",
          "--kind", "t2"],
         "formula calibration unavailable: the t2 limit variance is infinite for family 'cauchy' at gamma = 0.5"),
        (["critical-value", "--seed", "1", "--kind", "t2", "--family", "cauchy"],
         "formula calibration unavailable: the t2 limit variance is infinite for family 'cauchy' at gamma = 0.5"),
    ])
    def test_malformed_grids_and_infinite_limit_exit_one(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sigma_that_is_not_spd_exits_one(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_rows(sigma_path, np.diag([1.0, -1.0, 1.0]).tolist())
        assert main(["test", "--seed", "1", "--data", str(DATA), "--sigma", str(sigma_path)]) == 1
        message = f"error: {sigma_path}: not a valid scatter matrix: matrix is not positive definite\n"
        assert capsys.readouterr().err == message

    def test_bad_thread_count_exits_one(self, monkeypatch, capsys):
        monkeypatch.setenv("FSTEST_THREADS", "abc")
        assert main(["test", "--seed", "1", "--data", str(DATA)]) == 1
        assert capsys.readouterr().err == "error: FSTEST_THREADS must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("extra", [
        ["--data", "{folder}"],
        ["--data", str(DATA), "--sigma", "{folder}"],
        ["--data", str(DATA), "--out", "{folder}"],
        ["--data", "{latin1}"],
    ])
    def test_os_and_decoding_errors_exit_one(self, tmp_path, capsys, extra):
        # a directory where a file belongs, or data that is not UTF-8 text
        folder, latin1 = tmp_path / "folder", tmp_path / "latin1.csv"
        folder.mkdir()
        latin1.write_bytes("caf\xe9,y\n1,2\n".encode("latin-1"))
        argv = ["test", "--seed", "1", "--calibration", "formula"]
        assert main(argv + [arg.format(folder=folder, latin1=latin1) for arg in extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # no temporary file beside --out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "latin1.csv"]
        assert list(folder.iterdir()) == []

    #: what a --data file is built from: cells, separators, quotes, line ends, a BOM, NUL, non-finite text
    DATA_TOKENS = [*"0123456789", ",", '"', "\n", "\r\n", "\ufeff", "\x00", "nan", "1e400", "-", ".", " "]

    @settings(max_examples=300)
    @given(text=st.lists(st.sampled_from(DATA_TOKENS), max_size=60).map("".join))
    def test_any_data_file_gives_a_report_or_one_error_line(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["test", "--data", str(path), "--seed", "1", "--calibration", "formula"])
        if code == 0:
            assert out.getvalue().startswith("schema,") and err.getvalue() == "", (text, err.getvalue())
        else:
            assert code == 1, text
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (text, err.getvalue())

    def test_out_directory_error_names_the_out_path(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = ["test", "--seed", "1", "--calibration", "formula", "--data", str(DATA), "--out", str(folder)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{folder}'\n"
        assert list(tmp_path.iterdir()) == [folder]
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("argv, flag, value", [
        (["power-table", "--seed", "1"], "--beta-grid", "0.2,0.2"),
        (["table2", "--seed", "1"], "--delta", "0.5,-0.5,0.50"),
        (["table3", "--seed", "1"], "--n-grid", "10,10"),
        (["table3", "--seed", "1"], "--d-grid", "2,2.0"),
        (["table4"], "--d-grid", "4,4"),
        (["breakdown", "--seed", "1"], "--gamma", "0.3,0.5,0.3"),
    ])
    def test_repeated_grid_entries_exit_one(self, capsys, argv, flag, value):
        # each entry is a table column: a repeat would simulate it and print it twice
        assert main([*argv, flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag} entries must be distinct, got {value!r}\n"

    def test_mu0_may_repeat_an_entry(self, capsys):
        # --mu0 is a vector, not a grid
        argv = ["test", "--seed", "1", "--data", str(DATA), "--mu0", "0.1,0.1,0.1", "--calibration", "formula"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("schema,")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


class TestCliSurface:
    """Every subcommand's option strings, pinned: a new flag fails here until it is listed."""

    OPTIONS = {
        "power-table": "--family --seed --out --format --d --n --gamma --alpha --reps --null-reps --beta-grid",
        "test": "--family --seed --out --format --data --kind --mu0 --sigma --gamma --alpha --j --calibration "
                "--null-reps",
        "table2": "--family --seed --out --format --d --gamma --alpha --delta --offset-reps --mc-samples",
        "table3": "--family --seed --out --format --gamma --reps --n-grid --d-grid --bootstrap",
        "table4": "--family --gamma --d-grid --out --format",
        "breakdown": "--seed --out --format --gamma --n --d",
        "critical-value": "--family --seed --out --format --kind --d --n --gamma --alpha --calibration --null-reps",
    }

    PAPER_TABLES = "passed by the paper_tables workload of benchmarks/workloads.py"
    #: the flags a command accepts and ignores, and why each stays
    IGNORED = {
        ("table2", "--offset-reps"): PAPER_TABLES + "; the drifts are closed-form; goes with ROADMAP 5(a), then 5(b)",
        ("table2", "--mc-samples"): PAPER_TABLES + "; the powers are exact; goes with ROADMAP 5(a), then 5(b)",
        ("table3", "--bootstrap"): PAPER_TABLES + "; the SE is closed-form; goes with ROADMAP 5(a), then 5(b)",
    }

    def test_option_strings_are_pinned(self):
        got = {
            command: " ".join(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))
            for command, parser in _subcommands().items()
        }
        assert got == self.OPTIONS
        assert sum(len(options.split()) for options in got.values()) == 65
        assert list(cli._FLAGS) == ["d", "n", "gamma", "alpha", "reps", "null_reps"]

    def test_ignored_flags_are_the_listed_ones(self):
        accepted = {
            (command, a.option_strings[0])
            for command, parser in _subcommands().items()
            for a in parser._actions
            if (a.help or "").startswith("accepted; changes no number")
        }
        assert accepted == set(self.IGNORED)

    @pytest.mark.parametrize("command", ["test", "critical-value"])
    def test_mc_samples_is_rejected_by_single_tests(self, command, capsys):
        # equal limit weights take the exact point, unequal ones DEFAULT_MC_SAMPLES draws
        data = ["--data", str(DATA)] if command == "test" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", *data, "--mc-samples", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mc-samples 1000" in capsys.readouterr().err

    def test_family_help_names_each_commands_default(self):
        every = "restrict to one family (default: all)"
        one = "family of the null law that calibrates the critical value (default: gaussian)"
        helps = {
            command: a.help
            for command, parser in _subcommands().items()
            for a in parser._actions
            if a.dest == "family"
        }
        assert helps == {"power-table": every, "test": one, "table2": every, "table3": every, "table4": every,
                         "critical-value": one}


def _limit_address_space():
    """Cap the child's own address space at 2 GiB (run between fork and exec)."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, size", [
    (["critical-value", "--d", "40000"], "11.9 GiB"),  # the dense identity scatter
    (["table3", "--d-grid", "20000", "--n-grid", "10", "--reps", "20"], "2.98 GiB"),
    (["test", "--kind", "t4", "--calibration", "formula"], "2.78 GiB"),  # the Hodges-Lehmann band index
])
def test_out_of_memory_is_one_error_line(argv, size, tmp_path):
    if argv[0] == "test":
        column = tmp_path / "column.csv"
        column.write_text("x\n" + "".join(f"{(7 * i % 1001) / 500 - 1}\n" for i in range(40_000)))
        argv = [*argv, "--data", str(column)]
    src = str(Path(fstest.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "fstest", *argv, "--seed", "1"], env=env,
                          preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: out of memory: Unable to allocate {size}")


class TestPowerTableCommand:
    def test_csv_matches_library(self, tmp_path):
        out = tmp_path / "power.csv"
        assert main(FAST_POWER + ["--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["family", "test", "beta=0", "beta=0.5"]
        assert [row[1] for row in rows] == [k.value for k in StatKind]
        table = engine.power_table(
            ("gaussian",), (0.0, 0.5), d=2, n=30, reps=40, gamma=0.5,
            alpha=0.05, null_reps=200, seed=5,
        )
        for row in rows:
            kind = StatKind(row[1])
            assert float(row[2]) == table["gaussian"][kind][0.0]
            assert float(row[3]) == table["gaussian"][kind][0.5]

    def test_json_envelope(self, capsys):
        assert main(FAST_POWER + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fstest/1"
        assert payload["command"] == "power-table"
        assert payload["config"]["seed"] == 5
        assert set(payload["power"]) == {"gaussian"}

    def test_all_families_by_default(self, tmp_path):
        out = tmp_path / "p.csv"
        args = [a for a in FAST_POWER if a not in ("--family", "gaussian")]
        assert main(args + ["--beta-grid", "0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert sorted({row[0] for row in rows}) == ["cauchy", "gaussian", "light100"]
        assert len(rows) == 12


class TestTestCommand:
    def test_retains_at_true_center(self, capsys):
        rc = main([
            "test", "--seed", "3", "--data", str(DATA),
            "--null-reps", "400", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fstest/1"
        assert payload["decision"] == "retain"
        assert payload["statistic"] == "t1"

    def test_rejects_far_center(self, capsys):
        rc = main([
            "test", "--seed", "3", "--data", str(DATA), "--mu0", "5",
            "--null-reps", "400", "--format", "json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "reject"

    def test_bootstrap_p_value(self, capsys):
        rc = main([
            "test", "--seed", "3", "--data", str(DATA), "--kind", "t2",
            "--j", "400", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_sigma_from_csv(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_rows(sigma_path, np.eye(3).tolist())
        rc = main([
            "test", "--seed", "3", "--data", str(DATA),
            "--sigma", str(sigma_path), "--null-reps", "400", "--format", "json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "retain"

    def test_wrong_sigma_dimension_exits_one(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_rows(sigma_path, np.eye(2).tolist())
        rc = main(["test", "--seed", "3", "--data", str(DATA), "--sigma", str(sigma_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_formula_p_value_is_the_exact_limit_tail(self, capsys):
        rc = main(["test", "--seed", "3", "--data", str(DATA), "--kind", "t2", "--calibration", "formula",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        scale = engine.LimitLaw(StatKind.T2, "gaussian", 3, 0.5).scale
        assert payload["p_value"] == pytest.approx(1 - special.chdtr(3, payload["value"] / scale), abs=1e-10)
        assert payload["mc_samples"] == 0

    def test_formula_with_spread_sigma_draws_monte_carlo(self, tmp_path, capsys):
        # unequal limit weights have no exact point; the default is a 200,000-draw Monte Carlo quantile
        sigma_path = tmp_path / "sigma.csv"
        write_rows(sigma_path, np.diag([1.0, 1.0, 1e9]).tolist())
        argv = ["test", "--seed", "3", "--data", str(DATA), "--sigma", str(sigma_path), "--calibration", "formula",
                "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mc_samples"] == engine.DEFAULT_MC_SAMPLES
        assert payload["p_value"] is None

    def test_wrong_mu0_length_exits_one(self, capsys):
        rc = main(["test", "--seed", "3", "--data", str(DATA), "--mu0", "0,0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTableCommands:
    def test_table4_matches_grid(self, tmp_path):
        out = tmp_path / "t4.csv"
        assert main(["table4", "--d-grid", "2,4", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["family", "estimator", "d=2", "d=4"]
        labels = {"e1": "mean", "e2": "cw_median", "e3": "hodges_lehmann"}
        by_key = {(row[0], row[1]): row for row in rows}
        for family in ("gaussian", "cauchy", "light100"):
            grid = efficiency_grid(family, d_grid=(2, 4))
            for which, label in labels.items():
                row = by_key[(family, label)]
                for col, d in ((2, 2), (3, 4)):
                    assert float(row[col]) == pytest.approx(grid[which][d], rel=1e-12)

    def test_table4_cauchy_mean_row_is_inf(self, tmp_path):
        out = tmp_path / "t4.csv"
        main(["table4", "--family", "cauchy", "--d-grid", "2", "--out", str(out)])
        _, rows = read_rows(out)
        mean_row = next(r for r in rows if r[1] == "mean")
        assert float(mean_row[2]) == np.inf

    TABLE3 = ["table3", "--seed", "9", "--family", "gaussian", "--n-grid", "12,20",
              "--d-grid", "2,3", "--reps", "40", "--bootstrap", "5", "--format", "json"]

    def test_table3_cells_equal_single_efficiency_calls(self, tmp_path):
        out = tmp_path / "t3.json"
        assert main(self.TABLE3 + ["--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            single = robustness.finite_sample_efficiency(
                EstimatorKind(row["estimator"]), family="gaussian", n=row["n"], d=row["d"],
                reps=40, gamma=0.5, seed=9,
            )
            assert (row["value"], row["stderr"]) == (single.value, single.stderr)

    @pytest.mark.parametrize("argv", [
        # three replications of four coordinates: a singular covariance
        ["--d-grid", "4", "--n-grid", "10", "--reps", "3", "--bootstrap", "0"],
        ["--d-grid", "4", "--n-grid", "10", "--reps", "1", "--bootstrap", "0"],
    ])
    def test_table3_bad_inputs_exit_one(self, capsys, argv):
        assert main(["table3", "--seed", "1", "--family", "gaussian"] + argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--gamma", "2"],
        ["--gamma", "0"],
        ["--alpha", "1.5"],
        ["--mu0", "nan"],
        ["--alpha", "0"],
        ["--null-reps", "3"],
    ])
    def test_test_bad_inputs_exit_one(self, capsys, argv):
        assert main(["test", "--seed", "1", "--data", str(DATA)] + argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_bootstrap_resamples_exit_one(self, capsys):
        rc = main(["test", "--seed", "1", "--data", str(DATA), "--mu0", "0", "--j", "-1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_table3_simulates_each_cell_once(self, tmp_path, monkeypatch):
        calls = []
        simulate = robustness._replicated_estimates

        def counted(family, n, d, *args):
            calls.append((family, n, d))
            return simulate(family, n, d, *args)

        monkeypatch.setattr(robustness, "_replicated_estimates", counted)
        assert main(self.TABLE3 + ["--out", str(tmp_path / "t3.json")]) == 0
        assert sorted(calls) == [("gaussian", n, d) for n in (12, 20) for d in (2, 3)]

    def test_table3_bootstrap_flag_changes_no_byte(self, tmp_path):
        argv = ["table3", "--seed", "9", "--family", "gaussian", "--n-grid", "12",
                "--d-grid", "2,3", "--reps", "40"]
        outputs = []
        for draws in ("0", "100"):
            out = tmp_path / f"t3_{draws}.csv"
            assert main(argv + ["--bootstrap", draws, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_breakdown_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main([
            "breakdown", "--seed", "2", "--gamma", "0.5,0.7", "--n", "12", "--d", "2",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_rows(out)
        assert header[:3] == ["gamma", "n", "d"]
        assert len(rows) == 2 * 11

    def test_critical_value_formula(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t2", "--d", "2",
            "--family", "gaussian", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fstest/1"
        # the gaussian t2 limit is chi2_2 itself
        assert payload["critical_value"] == pytest.approx(special.chdtri(2, 0.05), rel=1e-12, abs=0)

    @pytest.mark.parametrize("calibration", ["formula", "empirical"])
    def test_critical_value_command_matches_test_command(self, capsys, calibration):
        sizes = ["--calibration", calibration, "--null-reps", "200", "--format", "json"]
        assert main(["critical-value", "--seed", "4", "--kind", "t3", "--d", "3", "--n", "60"] + sizes) == 0
        standalone = json.loads(capsys.readouterr().out)
        assert main(["test", "--seed", "4", "--kind", "t3", "--data", str(DATA), "--mu0", "0"] + sizes) == 0
        assert json.loads(capsys.readouterr().out)["critical_value"] == standalone["critical_value"]

    def test_formula_critical_value_at_a_tiny_alpha(self, capsys):
        # 1 - alpha rounds to 1 below 1.1e-16: the lower-tail point raised here
        argv = ["critical-value", "--seed", "1", "--alpha", "1e-17", "--calibration", "formula", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        scale = engine.LimitLaw(StatKind.T1, "gaussian", 4, 0.5).scale
        assert payload["critical_value"] == pytest.approx(scale * special.chdtri(4, 1e-17), rel=1e-12, abs=0)

    def test_cauchy_t2_formula_exits_one(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t2", "--family", "cauchy",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_cauchy_t1_formula_uses_trimmed_variance(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t1", "--family", "cauchy", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        scale = engine.LimitLaw(StatKind.T1, "cauchy", 4, 0.5).scale
        # the exact chi2_4 upper 5% point, with no Monte Carlo error
        assert payload["critical_value"] == pytest.approx(scale * special.chdtri(4, 0.05), rel=1e-12, abs=0)
        assert payload["stderr"] == 0.0

    def test_cauchy_t1_formula_at_full_retention_exits_one(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t1", "--family", "cauchy", "--gamma", "1",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_gaussian_t1_formula_at_a_tiny_gamma(self, capsys):
        # d gamma^2 underflows at gamma = 1e-200; the limit variance does not
        gamma, d = 1e-200, 4
        mean = d * special.gammainc(d / 2 + 1, special.gammaincinv(d / 2, gamma))
        assert main(["critical-value", "--seed", "1", "--format", "json", "--gamma", str(gamma)]) == 0
        value = json.loads(capsys.readouterr().out)["critical_value"]
        assert value == pytest.approx(mean / (d * gamma) / gamma * special.chdtri(d, 0.05), rel=1e-12)

    def test_gaussian_t1_local_power_at_a_tiny_gamma_is_the_size(self, capsys):
        # kappa is 5.2e-201 at d = 1, gamma = 1e-100, so every shift leaves t1 at alpha;
        # 1 - 2 q f(q) / (d gamma) read -1.35e-14 there, and t1 printed power 1.0
        assert main(["table2", "--seed", "1", "--family", "gaussian", "--d", "1", "--gamma", "1e-100"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(abs(float(row["t1"]) - 0.05) < 1e-12 for row in rows)

    @pytest.mark.parametrize("d", ["1", "2", "4", "100"])
    def test_gaussian_t1_formula_at_any_gamma_ends_without_a_traceback(self, d, capsys):
        # where E[X 1{X <= q}] underflows, formula calibration is refused in one error line
        for gamma in ("1e-150", "1e-200", "1e-300", "5e-324"):
            rc = main(["critical-value", "--seed", "1", "--d", d, "--gamma", gamma])
            refused = f"error: formula calibration unavailable: the t1 limit variance cannot be evaluated" \
                      f" for family 'gaussian' at gamma = {float(gamma)}\n"
            assert (rc, capsys.readouterr().err) in ((0, ""), (1, refused)), (d, gamma)

    @pytest.mark.parametrize("kind", ["t1", "t2", "t3", "t4"])
    def test_gaussian_formula_beyond_the_overflow_of_i0(self, kind, capsys):
        # d = 400 used to end in an OverflowError traceback
        rc = main([
            "critical-value", "--seed", "1", "--kind", kind, "--d", "400",
            "--family", "gaussian", "--calibration", "formula", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        scale = engine.LimitLaw(StatKind(kind), "gaussian", 400, 0.5).scale
        # scale times the chi2_400 upper 5% point, 447.63
        assert payload["critical_value"] == pytest.approx(scale * special.chdtri(400, 0.05), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d, kind", [("3897", "t4"), ("34500", "t2")])
    def test_light100_constants_past_the_float_range_end_in_one_line(self, d, kind, capsys):
        # t4 printed nan, with a RuntimeWarning, from d = 3,897; t2 ended in an
        # OverflowError traceback from math.gamma at d = 34,500
        assert main(["table2", "--seed", "1", "--family", "light100", "--d", d]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: formula calibration unavailable: the {kind} limit variance cannot be evaluated in " \
                      f"floats for family 'light100' at d = {d}\n"

class TestOutput:
    @pytest.mark.parametrize("argv", [
        ["critical-value", "--seed", "4", "--kind", "t3", "--d", "3"],
        ["test", "--seed", "4", "--kind", "t2", "--data", str(DATA), "--j", "50"],
    ])
    def test_report_stdout_honours_format(self, argv, tmp_path, capsys):
        # stdout carries the bytes --out writes, CSV by default and JSON under --format json
        for fmt in ("csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            assert main(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == out.read_text()
        header, rows = read_rows(tmp_path / "report.csv")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert dict(zip(header, rows[0])) == {k: "" if v is None else str(v) for k, v in payload.items()}

    @pytest.mark.parametrize("argv", [
        FAST_POWER,
        ["test", "--seed", "4", "--kind", "t1", "--data", str(DATA), "--null-reps", "200"],
        ["test", "--seed", "4", "--kind", "t3", "--data", str(DATA), "--j", "50"],
        ["table2", "--seed", "4", "--delta", "0.5,-5"],
        ["table3", "--seed", "4", "--reps", "20", "--n-grid", "10", "--d-grid", "2"],
        ["table4", "--d-grid", "2,4"],
        ["breakdown", "--seed", "4", "--gamma", "0.5", "--n", "10", "--d", "2"],
        ["critical-value", "--seed", "4"],
        ["critical-value", "--seed", "4", "--calibration", "empirical", "--n", "20", "--null-reps", "200"],
    ], ids=["power-table", "test-empirical", "test-bootstrap", "table2", "table3", "table4", "breakdown",
            "critical-value-formula", "critical-value-empirical"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_out_file(self, argv, fmt, tmp_path, capsys):
        out = tmp_path / f"report.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("argv, field", [
        (["critical-value", "--seed", "4"], "n"),
        (["test", "--seed", "4", "--data", str(DATA), "--null-reps", "200"], "p_value"),
    ])
    def test_null_field_is_an_empty_csv_cell(self, argv, field, tmp_path, capsys):
        # JSON's null: the n of a formula critical value, the p-value of a calibrated test
        out = tmp_path / "report.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[field] is None
        header, rows = read_rows(out)
        assert dict(zip(header, rows[0]))[field] == ""

    def test_closed_pipe_exits_without_traceback(self):
        # the reader closes stdout before the command writes to it
        src = str(Path(fstest.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fstest", "table4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""

    def test_table2_has_no_n_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--seed", "1", "--n", "100"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_one_parser_serves_many_calls(self, tmp_path, capsys):
        first = ["test", "--seed", "3", "--kind", "t2", "--data", str(DATA), "--null-reps", "200",
                 "--format", "json"]
        assert main(first + ["--out", str(tmp_path / "a.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["test", "--seed", "3", "--kind", "t9"])
        assert exc.value.code == 2
        # flags the first call leaves at their defaults
        assert main(["critical-value", "--seed", "1", "--gamma", "0.3", "--alpha", "0.1",
                     "--calibration", "formula"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(first + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_main_reuses_its_parser_and_build_parser_makes_new_ones(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()


def _run_script(script: str) -> str:
    """The last line a fresh interpreter prints running ``script`` against this fstest."""
    src = str(Path(fstest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise AssertionError(f"the script exited with status {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.split("\n")[-2]


#: an import-cost script's scipy_modules(): every scipy module the process holds
SCIPY_MODULES = """
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


class TestImportCost:
    def test_package_runs_every_command_without_scipy(self):
        # a None entry in sys.modules makes any import of scipy, or of a submodule, raise
        script = f"""
import contextlib, importlib, io, json, pkgutil, sys
sys.modules["scipy"] = None
import fstest
# __main__ runs the command line when imported
names = sorted(m.name for m in pkgutil.iter_modules(fstest.__path__) if m.name != "__main__")
for name in names:
    importlib.import_module("fstest." + name)
import fstest.cli
small = ["--reps", "5", "--null-reps", "100", "--n", "10", "--d", "2", "--beta-grid", "0,0.5"]
calls = [["power-table", *small, "--seed", "1"],
         ["table2", "--seed", "1"],
         ["table3", "--reps", "5", "--n-grid", "10", "--d-grid", "2", "--seed", "1"],
         ["table4"],
         ["breakdown", "--n", "12", "--d", "2", "--seed", "1"]]
calls += [["test", "--data", {str(DATA)!r}, "--family", family, *extra, "--seed", "1"]
          for family in ("gaussian", "cauchy", "light100")
          for extra in (["--calibration", "formula"], ["--null-reps", "100"], ["--j", "50"])]
calls += [["critical-value", "--family", family, "--kind", kind, "--alpha", "1e-17", "--seed", "1"]
          for family in ("gaussian", "cauchy", "light100") for kind in ("t1", "t3", "t4")]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fstest.cli.main(argv) == 0, argv
print(json.dumps([names, sorted({{argv[0] for argv in calls}})]))
"""
        names, commands = json.loads(_run_script(script))
        package = Path(fstest.__file__).parent
        assert names == sorted(p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "__main__"))
        assert commands == ["breakdown", "critical-value", "power-table", "table2", "table3", "table4", "test"]

    def test_a_failing_script_shows_its_stderr(self):
        with pytest.raises(AssertionError, match="status 1:\nno such input"):
            _run_script("import sys; sys.exit('no such input')")

    def test_serial_import_leaves_the_process_pool_unloaded(self):
        # a pool module loads with the first thread pool, not with the package
        script = """
import sys
import fstest.cli
pools = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
print(sorted(m for m in pools if m in sys.modules))
"""
        assert _run_script(script) == "[]"

    def test_threaded_run_loads_no_process_pool(self):
        # FSTEST_THREADS spreads simulation batches over threads of this process
        script = """
import contextlib, io, os, sys
os.cpu_count = lambda: 2
os.environ["FSTEST_THREADS"] = "2"
import fstest.cli
argv = ["power-table", "--reps", "200", "--null-reps", "200", "--n", "10", "--d", "2", "--beta-grid", "0,0.5",
        "--seed", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert fstest.cli.main(argv) == 0
pools = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
print(sorted(m for m in pools if m in sys.modules))
"""
        assert _run_script(script) == "['concurrent.futures.thread']"

    def test_gaussian_test_calls_import_no_scipy(self, tmp_path):
        # the gaussian closed forms need only math; a spread scatter takes the Monte Carlo quantile
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1,0,0\n0,2,0\n0,0,3\n")
        script = f"""
import contextlib, io, sys
import fstest.cli
calls = [["--calibration", "empirical", "--null-reps", "200"],
         ["--calibration", "formula", "--sigma", {str(sigma)!r}],
         ["--j", "100"],
         ["--calibration", "formula"]]
for extra in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fstest.cli.main(["test", "--data", {str(DATA)!r}, "--seed", "1", *extra]) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert fstest.cli.main(["critical-value", "--seed", "1", "--d", "400", "--calibration", "formula",
                            "--format", "json"]) == 0
{SCIPY_MODULES}
print(json.dumps([scipy_modules(), json.loads(out.getvalue())["critical_value"]]))
"""
        loaded, crit = json.loads(_run_script("import json\n" + script))
        assert loaded == []
        # the exact d = 400 point, drawn from nothing
        scale = engine.LimitLaw(StatKind.T1, "gaussian", 400, 0.5).scale
        assert crit == pytest.approx(scale * special.chdtri(400, 0.05), rel=1e-12, abs=0)

    def test_simulation_commands_import_no_scipy(self):
        # a model's normalizing constant is computed on first use, and simulating never uses it
        script = f"""
import contextlib, io, json, sys
import fstest.cli
small = ["--reps", "20", "--null-reps", "100", "--n", "10", "--d", "2", "--beta-grid", "0,0.5"]
calls = [["power-table", "--family", family, *small] for family in ("gaussian", "cauchy", "light100")]
calls += [["test", "--data", {str(DATA)!r}, "--family", "cauchy", *extra]
          for extra in (["--calibration", "empirical", "--null-reps", "100"], ["--j", "100"])]
calls += [["table3", "--family", "cauchy", "--reps", "5", "--n-grid", "10", "--d-grid", "2", "--bootstrap", "2"],
          ["breakdown"]]
{SCIPY_MODULES}
loaded = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fstest.cli.main([*argv, "--seed", "1"]) == 0
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""
        assert json.loads(_run_script(script)) == [[]] * 7

    def test_limit_law_commands_import_no_scipy(self):
        # the limit laws, the chi-squared quantile and the noncentral tail are closed
        # forms, series or fixed rules in math and numpy; scipy.stats alone costs ~1 s
        script = f"""
import contextlib, io, json, sys
import fstest.cli
calls = [["table2", "--seed", "1"], ["table2", "--seed", "1", "--d", "400"], ["table4"]]
calls += [["critical-value", "--seed", "1", "--family", family, "--kind", kind, "--calibration", "formula"]
          for family in ("cauchy", "light100") for kind in ("t1", "t3", "t4")]
{SCIPY_MODULES}
loaded = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fstest.cli.main(argv) == 0
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""
        assert json.loads(_run_script(script)) == [[]] * 9


class TestPackageNames:
    #: the package's public names, as README's "Public API" lists them
    PUBLIC = (
        "BreakdownResult", "CAUCHY", "ContiguousSpec", "Dataset", "DimensionMismatch", "DistanceOverflow",
        "DivergentIntegral", "EfficiencyResult", "EllipticalModel", "Estimate", "EstimatorKind", "FAMILY_TAGS",
        "ForwardSearchConfig", "GAUSSIAN", "InfiniteVariance", "LIGHT100", "LimitLaw", "MalformedTable",
        "MixtureModel", "MonteCarloQuantile", "NotSPD", "NotSymmetric", "OffsetEstimate", "SingularCovariance",
        "SpdMatrix", "StatKind", "TestReport", "breakdown_experiment", "calibrate", "component_variance",
        "contiguous_power", "critical_value", "efficiency", "efficiency_grid",
        "empirical_critical_value", "estimate", "finite_sample_efficiency", "forward_search",
        "generator_by_name", "hodges_lehmann", "limit_weights", "marginal_density_at_zero",
        "marginal_density_sq_integral", "power_table", "radial_integral", "read_dataset", "root_efficiency",
        "run_test", "standard_model", "statistic", "trim_count", "truncated_radial_mean", "write_rows",
        "__version__",
    )

    def test_every_public_name_is_its_modules_object(self):
        assert sorted(fstest.__all__) == sorted(self.PUBLIC)
        for name in self.PUBLIC[:-1]:
            module = importlib.import_module("fstest." + fstest._MODULE_OF[name])
            assert name in module.__all__, name
            assert getattr(fstest, name) is getattr(module, name), name

    def test_a_rebound_module_attribute_shows_through(self, monkeypatch):
        monkeypatch.setattr(engine, "run_test", lambda *args, **kwargs: "rebound")
        assert fstest.run_test() == "rebound"

    def test_unknown_name_and_dir(self):
        with pytest.raises(AttributeError, match="^module 'fstest' has no attribute 'no_such_name'$"):
            fstest.no_such_name
        assert set(fstest.__all__) <= set(dir(fstest))

    @pytest.mark.parametrize("name", ["sample_mean", "cw_median", "estimate_offsets"])
    def test_removed_wrappers_are_gone(self, name):
        # estimate(kind, data) and estimate_all_offsets(spec, (kind,), reps, seed)[kind] replace them
        with pytest.raises(AttributeError):
            getattr(fstest, name)

    @pytest.mark.parametrize("name", ["limit_behavior", "scatter_scale_constant", "empirical_limit_covariance"])
    def test_test_only_names_are_gone(self, name):
        # the tests compute these from efficiency, tests/oracles.py and robustness._replicated_estimates
        with pytest.raises(AttributeError):
            getattr(fstest, name)

    @pytest.mark.parametrize("name, argument", [
        ("critical_value", "mc_samples"), ("calibrate", "mc_samples"), ("run_test", "mc_samples"),
        ("contiguous_power", "mc_samples"), ("contiguous_power", "seed"),
        ("breakdown_experiment", "magnitude_ladder"),
    ])
    def test_arguments_without_a_caller_are_gone(self, name, argument):
        # no command set them: equal weights take the exact point, the local power draws
        # nothing and the breakdown sweep climbs DEFAULT_MAGNITUDE_LADDER
        assert argument not in inspect.signature(getattr(fstest, name)).parameters

    def test_readme_lists_each_modules_public_names(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        bullets = readme.split("## Public API\n")[1].split("\n\n")[1]
        listed = {}
        for bullet in bullets.removeprefix("- ").split("\n- "):
            module, names = bullet.split(":", 1)
            listed[module.strip("`")] = sorted(re.findall(r"`(\w+)`", names))
        assert listed == {module: sorted(names) for module, names in fstest._EXPORTS.items()}

    def test_import_loads_no_submodule_until_a_name_is_used(self):
        script = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("fstest."))
import fstest
before = loaded()
from fstest import StatKind, run_test
print(json.dumps([before, "fstest.engine" in loaded()]))
"""
        assert json.loads(_run_script(script)) == [[], True]

    def test_readme_quick_start_runs_as_written(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        code = readme.split("## Library quick start\n\n```python\n")[1].split("```")[0]
        decision, value, critical_value = _run_script(code).split()
        assert decision in ("reject", "retain")
        assert float(value) >= 0.0 and float(critical_value) > 0.0


def test_formula_test_of_an_overflowing_statistic_ends(tmp_path):
    # n |T - mu0|^2 overflows to inf at 1e200; its limit p-value once looped forever
    data = tmp_path / "big.csv"
    data.write_text("x1,x2\n1e200,2e200\n-3e200,1e200\n2e200,-1e200\n1e200,1e200\n")
    src = str(Path(fstest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-m", "fstest", "test", "--data", str(data), "--seed", "1",
           "--calibration", "formula", "--format", "json"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert (report["decision"], report["p_value"]) == ("reject", 0.0)


@pytest.mark.parametrize("extra", [[], ["--j", "20"], ["--calibration", "formula"]])
def test_forward_search_on_overflowing_distances_exits_one(tmp_path, capsys, extra):
    # finite rows at (1e200, 3e200) under a correlated scatter give inf - inf = NaN
    # distances; six of ten leave fewer than the five rows the forward search keeps
    data, sigma = tmp_path / "huge.csv", tmp_path / "sigma.csv"
    data.write_text("1e200,3e200\n" * 6 + "0.1,-0.2\n0.3,0.5\n-0.4,0.1\n0.2,0.2\n")
    sigma.write_text("1,0.5\n0.5,1\n")
    assert main(["test", "--data", str(data), "--sigma", str(sigma), "--seed", "1"] + extra) == 1
    message = "error: squared Mahalanobis distances overflow to NaN in more than 5 of 10 rows\n"
    assert capsys.readouterr().err == message


class TestDeterminism:
    def test_exact_formula_bytes_ignore_blas_threads(self):
        # the exact point involves no matrix-vector product, so BLAS's row split cannot touch it
        src = str(Path(fstest.__file__).resolve().parent.parent)
        cmd = [sys.executable, "-m", "fstest", "critical-value", "--seed", "1", "--d", "100",
               "--calibration", "formula"]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            outputs.append(subprocess.run(cmd, check=True, env=env, capture_output=True).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"schema,")

    #: sha256 of the JSON report of each single-test command on DATA at seed 29: the
    #: benchmark's test rotation (empirical t1-t3, formula t1-t4, bootstrap t1-t3),
    #: critical-value under both calibrations and, from the special functions, the
    #: cauchy and light100 formula points and table2 with its defaults
    PINNED_REPORTS = {
        "test --kind t1 --calibration empirical --null-reps 2000":
            "0354a40c762737179e353c3455d7c177476ef7f2a7f40ca98bd4d72408512980",
        "test --kind t1 --calibration empirical --null-reps 2000 --mu0 0.1":
            "d773f9db6c3931d00cb8c87733dc8738d0ba84343abb0a3c3632d3189c8bbdf4",
        "test --kind t2 --calibration empirical --null-reps 2000":
            "dc2f67389291f7d20a1ac227b6dd444c72d76be5c7fffbb3d81b3cda7a28f496",
        "test --kind t3 --calibration empirical --null-reps 2000":
            "f34e22f99a1dfe2b8db2c61ced45824136b045e8bcec986ea40dbedb55cc3cf7",
        "test --kind t1 --calibration formula":
            "7e8d5e2f7db8d8bd6b78de7abf8366c1c8fb8eb8dc585541f1ed72087e92b79f",
        "test --kind t2 --calibration formula":
            "92791498a2c18821201066e58c9944072bdd96a382e1b7a24549f9ceed7f169f",
        "test --kind t3 --calibration formula":
            "f00ab8c43ee6952a4b07390844f40b2ce0c52b8c163e38bb11e7eabb19944469",
        "test --kind t4 --calibration formula":
            "cac6278c1a2f7b98aa58caed99fc2090d68fe3c0b8728bb441e982c61eb388e8",
        "test --kind t1 --j 2000":
            "5026f9e4541c35e60936c2b1953622742f1f51556e784bbce308612189ac4184",
        "test --kind t2 --j 2000":
            "18372d8f193a2ed7031456efbea9dbc913a47f14c15a649bd827bc12881f7258",
        "test --kind t3 --j 2000":
            "1ce8d0ca24cfdf95026d647824a2e6c61bb673905eb55c2ff65f918407115950",
        "critical-value --calibration formula":
            "c97fe5795f4b1fb258c0b69073d05da9acb981c23919bd2e74eecefcd29ab16c",
        "critical-value --calibration empirical --n 60 --null-reps 2000":
            "86805fb8161cbdec0288504d7b64e5ae305fa7f68f49ec60a675af0f027af320",
        "critical-value --calibration formula --family cauchy --kind t1":
            "9abe47e6850cdea8175fb90bb5fe809b4e7dee4c918adcb46610fb0973a424f0",
        "critical-value --calibration formula --family cauchy --kind t3":
            "603086df0bd5fcf2212bc90971ddf61ef7fb440deb60020d508209d8240823f4",
        "critical-value --calibration formula --family cauchy --kind t4":
            "91826eaa50f11a21cc0e34ab1a6e198ee793cef3e11eb4d53b8bfcdd21401fa6",
        "critical-value --calibration formula --family light100 --kind t1":
            "c3b9c65e51a98a4a6de5cec303a8c75e845d92b49ab01cf26aa00f87b5879d00",
        "critical-value --calibration formula --family light100 --kind t2":
            "54ffbf410320e0ba7762aa759738be3a1192d01124c79d6c7a21e97fdd9e3c6c",
        "critical-value --calibration formula --family light100 --kind t3":
            "af38c2f9b59dc231e28f9dcf7cca97c56c7bd055632e3736d8318939b8343073",
        "critical-value --calibration formula --family light100 --kind t4":
            "949da4478e6c61a2ee0272bff93a83739575ce02aeac5225f8b4ddf8de375c62",
        "table2":
            "185654292b3af13012315eaf0c1af0a3478a1c6482200382c4284888478b2ef9",
    }

    def test_single_test_json_bytes_are_pinned(self, capsys):
        got = {}
        for command in self.PINNED_REPORTS:
            argv = command.split() + ["--seed", "29", "--format", "json"]
            if argv[0] == "test":
                argv += ["--data", str(DATA)]
            assert main(argv) == 0, command
            got[command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == self.PINNED_REPORTS

    def _run(self, out: Path, threads: str) -> bytes:
        env = dict(os.environ, FSTEST_THREADS=threads)
        cmd = [sys.executable, "-m", "fstest"] + FAST_POWER + ["--out", str(out)]
        subprocess.run(cmd, check=True, env=env, capture_output=True)
        return out.read_bytes()

    def test_rerun_and_thread_count_are_bitwise_identical(self, tmp_path):
        first = self._run(tmp_path / "a.csv", "1")
        again = self._run(tmp_path / "b.csv", "1")
        threaded = self._run(tmp_path / "c.csv", "2")
        assert first == again
        assert first == threaded
