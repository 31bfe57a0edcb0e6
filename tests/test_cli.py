import csv
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dpextrema.cli import main


def run_cli(args):
    """Run through the console entry point in-process, capturing exit code."""
    return main(args)


def write_gaussian_csv(path, n=300, k=2, mu=None, seed=0):
    rng = np.random.default_rng(seed)
    mu = np.zeros(k) if mu is None else np.asarray(mu)
    x = mu + rng.standard_normal((n, k))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(k)])
        writer.writerows(x.tolist())
    return path


def write_regression_csv(path, n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, 2))
    y = X @ np.array([0.0, 1.0]) + rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "y"])
        writer.writerows(np.column_stack([X, y]).tolist())
    return path


def write_orthogonal_regression_csv(path, n=2000, seed=0):
    """Two interest columns, one nuisance column orthogonal to them, then y."""
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-1.0, 1.0, (n, 2))
    x = rng.standard_normal(n)
    x = x - Z @ np.linalg.solve(Z.T @ Z, Z.T @ x)
    y = Z @ np.array([0.0, 0.5]) + 0.8 * x + rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z0", "z1", "x0", "y"])
        writer.writerows(np.column_stack([Z, x, y]).tolist())
    return path


class TestCiGaussian:
    def test_deterministic_rerun(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5",
            "--epsilon", "1.5", "--r", "1/10", "--B", "300", "--seed", "42",
        ]
        assert run_cli(args + ["--output", str(out1)]) == 0
        assert run_cli(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["seed"] == 42
        assert payload["ledger"]["total_sequential"] == pytest.approx(1.5)
        assert "lower_limit" in payload["result"]

    def test_single_coordinate_ppb_close_to_naive(self, tmp_path, capsys):
        # one coordinate means no selection: the bootstrap limit and the
        # textbook z-limit target the same quantity up to Monte Carlo error
        data = write_gaussian_csv(tmp_path / "one.csv", n=800, k=1, seed=3)
        out = tmp_path / "res.json"
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5",
            "--epsilon", "inf", "--r", "1/10", "--B", "2000", "--seed", "7",
            "--output", str(out),
        ]
        assert run_cli(args) == 0
        ppb_limit = json.loads(out.read_text())["result"]["lower_limit"]

        import dpextrema as dp

        x = np.loadtxt(data, delimiter=",", skiprows=1).reshape(-1, 1)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        est = dp.gaussian_private_mle(dp.GaussianData(x, dp.Bounds.symmetric(5.0, 1)), math.inf, rng)
        naive = dp.naive_lower_limit(est, private=False)
        z_margin = float(est.beta_priv[0]) - naive.lower_limit
        assert abs(ppb_limit - naive.lower_limit) <= 0.2 * z_margin

    def test_partial_flag(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv", k=4)
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5",
            "--epsilon", "1.5", "--seed", "1", "--partial", "2", "--B", "200",
        ]
        assert run_cli(args) == 0
        assert "lower_limit" in capsys.readouterr().out

    def test_cv_choice_of_r(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv")
        out = tmp_path / "res.json"
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5",
            "--epsilon", "1.5", "--r", "cv", "--seed", "5", "--B", "200",
            "--b-inner", "60", "--output", str(out),
        ]
        assert run_cli(args) == 0
        stdout = capsys.readouterr().out
        assert "chosen r" in stdout
        payload = json.loads(out.read_text())
        cv = payload["cv"]
        assert cv["chosen_r"] == payload["result"]["r_used"]
        assert cv["chosen_r"] in cv["grid"]
        assert len(cv["criterion"]) == len(cv["grid"])
        assert all(math.isfinite(c) for c in cv["criterion"])
        # at this budget the +-5 box makes the gram noise swamp the covariance
        repair = payload["estimate"]["repair"]
        assert repair["degenerate"] and repair["shift"] > 0.0
        assert f"repair      = shift {repair['shift']:g} (degenerate)\n" in stdout
        assert set(payload["estimate"]["noise_scales"]) == {"sum", "gram"}

    def test_release_diagnostics_without_noise(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv")
        out = tmp_path / "res.json"
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5",
            "--epsilon", "inf", "--seed", "5", "--B", "200", "--output", str(out),
        ]
        assert run_cli(args) == 0
        assert "repair      = shift 0\n" in capsys.readouterr().out
        estimate = json.loads(out.read_text())["estimate"]
        assert estimate == {
            "noise_scales": {"sum": 0.0, "gram": 0.0},
            "repair": {"shift": 0.0, "degenerate": False},
        }

    def test_missing_epsilon_is_usage_error(self, tmp_path):
        data = write_gaussian_csv(tmp_path / "data.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "dpextrema.cli", "ci", "gaussian",
             "--input", str(data), "--bounds=-5:5", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "--epsilon" in proc.stderr

    def test_split_shares_divide_the_budget(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv")
        out = tmp_path / "res.json"
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5", "--epsilon", "1.5",
            "--seed", "1", "--B", "200",
        ]
        assert run_cli(args + ["--split", "0.3,0.7", "--output", str(out)]) == 0
        charges = json.loads(out.read_text())["ledger"]["charges"]
        assert [c["statistic"] for c in charges] == ["gaussian:sum", "gaussian:gram"]
        assert [c["epsilon"] for c in charges] == pytest.approx([0.45, 1.05], rel=1e-15)
        for bad in ("0.3,0.6", "0.3,0.3,0.4", "-0.5,1.5", "nan,nan", "half,half"):
            assert run_cli(args + [f"--split={bad}"]) == 2
            assert "split" in capsys.readouterr().err

    def test_malformed_cell_reports_row_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        args = [
            "ci", "gaussian", "--input", str(bad), "--bounds=-5:5",
            "--epsilon", "1.5", "--seed", "1",
        ]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 2" in err


class TestCiRegression:
    def test_runs_and_reports_budget_views(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "reg.csv")
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--y-bounds=-6:6", "--epsilon", "1.5", "--seed", "3", "--B", "300",
        ]
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "parallel view" in out
        assert "repair      = shift " in out

    def test_missing_response_bounds_refused(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "reg.csv")
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--epsilon", "1.5", "--seed", "3",
        ]
        assert run_cli(args) == 2
        assert "sensitivity is undefined without bounds" in capsys.readouterr().err

    def test_partial_cv_choice_of_r(self, tmp_path, capsys):
        data = write_orthogonal_regression_csv(tmp_path / "orth.csv")
        out = tmp_path / "res.json"
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--y-bounds=-8:8", "--epsilon", "1.5", "--partial", "2", "--r", "cv",
            "--seed", "3", "--B", "300", "--b-inner", "60", "--output", str(out),
        ]
        assert run_cli(args) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["r_used"] in payload["cv"]["grid"]

    def test_numeric_degeneracy_exit_code(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "reg.csv", n=40)
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--y-bounds=-6:6", "--epsilon", "0.01", "--seed", "0",
        ]
        assert run_cli(args) == 3


class TestCvCommand:
    def test_gaussian_cv(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv")
        out = tmp_path / "cv.json"
        args = [
            "cv", "--input", str(data), "--bounds=-5:5", "--epsilon", "1.5",
            "--seed", "9", "--b-inner", "60", "--output", str(out),
        ]
        assert run_cli(args) == 0
        payload = json.loads(out.read_text())
        assert payload["chosen_r"] in payload["grid"]
        assert payload["budget_sequential_view"] == pytest.approx(10 * 1.5)


class TestSimulateAndPlot:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            textwrap.dedent(
                """
                [experiment]
                model = gaussian
                n = 200
                k = 2
                mu = 0, 0
                epsilon = 0.5, 1.5
                seed = 4
                reps = 20
                B = 200

                [methods]
                ppb = 1/10
                naive = private
                """
            )
        )
        report_csv = tmp_path / "report.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--output", str(report_csv)]) == 0
        plot_csv = tmp_path / "plot.csv"
        assert run_cli(
            ["plot-data", "--report", str(report_csv), "--axis", "epsilon",
             "--output", str(plot_csv)]
        ) == 0
        with open(plot_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis_value", "method", "coverage", "mean_length"]
        assert len(rows) == 1 + 4  # two methods x two budgets

    def test_single_axis_value_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            textwrap.dedent(
                """
                [experiment]
                model = gaussian
                n = 200
                k = 2
                epsilon = 1.5
                seed = 4
                reps = 5
                B = 200

                [methods]
                ppb = 1/10
                """
            )
        )
        report_csv = tmp_path / "report.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--output", str(report_csv)]) == 0
        code = run_cli(
            ["plot-data", "--report", str(report_csv), "--axis", "epsilon",
             "--output", str(tmp_path / "plot.csv")]
        )
        assert code == 2
