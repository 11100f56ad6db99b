import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fstest
from fstest import engine, robustness
from fstest.asymptotics import efficiency_grid
from fstest.cli import main
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
            (["critical-value", "--seed", "0", "--mc-samples", "50"], "--mc-samples must be at least 100"),
        ]:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["table2", "--seed", "1", "--delta", "nan"],
        ["table2", "--seed", "1", "--delta", "inf"],
        ["table3", "--seed", "1", "--n-grid", "nan", "--d-grid", "2", "--reps", "10"],
        ["table4", "--d-grid", "inf"],
    ])
    def test_non_finite_list_entries_exit_one(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith("contains non-finite entries\n")

    def test_bad_thread_count_exits_one(self, monkeypatch, capsys):
        monkeypatch.setenv("FSTEST_THREADS", "abc")
        assert main(["test", "--seed", "1", "--data", str(DATA)]) == 1
        assert capsys.readouterr().err == "error: FSTEST_THREADS must be an integer, got 'abc'\n"


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
            "--null-reps", "400", "--mc-samples", "20000",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fstest/1"
        assert payload["decision"] == "retain"
        assert payload["statistic"] == "t1"

    def test_rejects_far_center(self, capsys):
        rc = main([
            "test", "--seed", "3", "--data", str(DATA), "--mu0", "5",
            "--null-reps", "400",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "reject"

    def test_bootstrap_p_value(self, capsys):
        rc = main([
            "test", "--seed", "3", "--data", str(DATA), "--kind", "t2",
            "--j", "400",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_sigma_from_csv(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_rows(sigma_path, np.eye(3).tolist())
        rc = main([
            "test", "--seed", "3", "--data", str(DATA),
            "--sigma", str(sigma_path), "--null-reps", "400",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "retain"

    def test_wrong_sigma_dimension_exits_one(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_rows(sigma_path, np.eye(2).tolist())
        rc = main(["test", "--seed", "3", "--data", str(DATA), "--sigma", str(sigma_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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
        ["--mc-samples", "5", "--calibration", "formula"],
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
            "--family", "gaussian", "--mc-samples", "200000",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fstest/1"
        assert payload["critical_value"] == pytest.approx(5.9915, abs=0.1)

    @pytest.mark.parametrize("calibration", ["formula", "empirical"])
    def test_critical_value_command_matches_test_command(self, capsys, calibration):
        sizes = ["--calibration", calibration, "--mc-samples", "1000", "--null-reps", "200"]
        assert main(["critical-value", "--seed", "4", "--kind", "t3", "--d", "3", "--n", "60"] + sizes) == 0
        standalone = json.loads(capsys.readouterr().out)
        assert main(["test", "--seed", "4", "--kind", "t3", "--data", str(DATA), "--mu0", "0"] + sizes) == 0
        assert json.loads(capsys.readouterr().out)["critical_value"] == standalone["critical_value"]

    def test_cauchy_t2_formula_exits_one(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t2", "--family", "cauchy",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_cauchy_t1_formula_uses_trimmed_variance(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t1", "--family", "cauchy",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        scale = engine.LimitLaw(StatKind.T1, "cauchy", 4, 0.5).scale
        # chi2_4 upper 5% point
        assert abs(payload["critical_value"] - scale * 9.487729) <= 4 * payload["stderr"]

    def test_cauchy_t1_formula_at_full_retention_exits_one(self, capsys):
        rc = main([
            "critical-value", "--seed", "7", "--kind", "t1", "--family", "cauchy", "--gamma", "1",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("kind", ["t1", "t2", "t3", "t4"])
    def test_gaussian_formula_beyond_the_overflow_of_i0(self, kind, capsys):
        # d = 400 used to end in an OverflowError traceback; 2000 draws keep
        # the 400-column draw matrix small
        rc = main([
            "critical-value", "--seed", "1", "--kind", kind, "--d", "400",
            "--family", "gaussian", "--calibration", "formula", "--mc-samples", "2000",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        scale = engine.LimitLaw(StatKind(kind), "gaussian", 400, 0.5).scale
        # chi2_400 upper 5% point is 447.63; the 2000-draw quantile is within a few SE
        assert abs(payload["critical_value"] - scale * 447.6325) <= 4 * payload["stderr"]

class TestImportCost:
    def test_gaussian_test_calls_import_no_scipy(self):
        # the gaussian closed forms need only math; scipy loads where quadrature or special functions run
        script = f"""
import contextlib, io, sys
import fstest.cli
calls = [["--calibration", "empirical", "--null-reps", "200"],
         ["--calibration", "formula", "--mc-samples", "1000"],
         ["--j", "100"]]
for extra in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fstest.cli.main(["test", "--data", {str(DATA)!r}, "--seed", "1", *extra]) == 0
print(sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules))
"""
        src = str(Path(fstest.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.split("\n")[-2] == "[]"

    def test_table2_leaves_scipy_stats_unloaded(self):
        # the exact local power needs scipy.special only; scipy.stats costs ~1 s to import
        script = """
import contextlib, io, sys
import fstest.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert fstest.cli.main(["table2", "--seed", "1"]) == 0
print("scipy.stats" in sys.modules)
"""
        src = str(Path(fstest.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.split("\n")[-2] == "False"


class TestDeterminism:
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
