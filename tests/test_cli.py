import argparse
import csv
import json
import locale
import math
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpextrema import cli
from dpextrema.cli import build_parser, main
from dpextrema.crossval import CVConfig, cv_choose_r
from dpextrema.errors import ParameterError
from dpextrema.extrema import ppb_limits
from dpextrema.harness import ExperimentReport
from dpextrema.models import (
    GaussianData,
    GaussianStatistics,
    PrivatizedGaussianEstimate,
    RegressionData,
    fold_statistics,
)
from dpextrema.privacy import Bounds


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
    """Two interest columns, one nuisance column orthogonal to them, then y.

    The nuisance column's fit 0.8 x is part of y."""
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

    @pytest.mark.parametrize("r", ["1/10", "cv"])
    def test_result_is_the_stacked_path_on_a_stack_of_one(self, tmp_path, capsys, r):
        # at one seed: a release of one set, then (for --r cv) cross-validation,
        # then replica_draws and ppb_limits give the result bit for bit
        data = write_gaussian_csv(tmp_path / "data.csv")
        out = tmp_path / "res.json"
        args = [
            "ci", "gaussian", "--input", str(data), "--bounds=-5:5", "--epsilon", "1.5",
            "--r", r, "--B", "300", "--b-inner", "60", "--seed", "8", "--output", str(out),
        ]
        assert run_cli(args) == 0
        result = json.loads(out.read_text())["result"]

        x = GaussianData(np.loadtxt(data, delimiter=",", skiprows=1), Bounds.symmetric(5.0, 2))
        rng = np.random.default_rng(np.random.SeedSequence(8))
        est = fold_statistics([x]).release(1.5, rng)
        r_used = cv_choose_r(x, 1.5, rng, CVConfig(b_inner=60)).chosen_rs[0] if r == "cv" else 1 / 10
        draws, failed = est.replica_draws(300, rng, 1)
        lower, c_alpha = ppb_limits(est.betas, draws, failed.sum(axis=1), r_used, est.sizes)
        assert result["r_used"] == r_used
        assert result["lower_limit"] == lower[0]
        assert result["c_alpha"] == c_alpha[0]
        assert result["B"] + result["failed_draws"] == 300

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
        z_margin = float(est.betas[0, 0]) - naive.lower_limit
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
        payload = json.loads(out.read_text())
        cv = payload["cv"]
        assert f"cv          = chosen r {cv['chosen_r']:g}; budget 7.5\n" in stdout
        assert "budget      = 1.5\n" in stdout
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

    def test_nan_cell_is_refused_by_cell(self, tmp_path, capsys):
        # the reader returns NaN; the data class refuses it before any release
        bad = tmp_path / "nan.csv"
        bad.write_text("a,b\n1,nan\n2,3\n4,5\n")
        args = ["ci", "gaussian", "--input", str(bad), "--bounds=-3:3", "--epsilon", "1", "--seed", "1"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert "x[0, 1] is NaN" in captured.err and "lower_limit" not in captured.out

    @staticmethod
    def write_labelled(tmp_path, ragged=False):
        """Two numeric columns and a text label, and the same numbers alone."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 2))
        labelled, numbers = tmp_path / "labelled.csv", tmp_path / "numbers.csv"
        rows = [f"{a!r},{b!r}" for a, b in x.tolist()]
        numbers.write_text("\n".join(["x0,x1", *rows]) + "\n")
        labels = [f"{row},id{i}" for i, row in enumerate(rows)]
        if ragged:
            labels[6] = rows[6]
        labelled.write_text("\n".join(["x0,x1,label", *labels]) + "\n")
        return labelled, numbers

    def test_partial_reads_only_the_interest_columns_as_numbers(self, tmp_path, capsys):
        labelled, numbers = self.write_labelled(tmp_path)
        args = ["--bounds=-3:3", "--epsilon", "1.5", "--B", "200", "--seed", "5"]
        outputs = []
        for path, partial in ((labelled, ["--partial", "2"]), (numbers, [])):
            out = tmp_path / f"{path.stem}.json"
            assert run_cli(["ci", "gaussian", "--input", str(path), *args, *partial,
                            "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command",
        [
            ["ci", "gaussian"],
            ["ci", "gaussian", "--partial", "3"],
            ["ci", "regression", "--partial", "2", "--y-bounds=-3:3"],
            ["cv"],
        ],
        ids=["gaussian", "gaussian-partial-all", "regression-partial", "cv"],
    )
    def test_every_other_path_reads_every_cell(self, tmp_path, capsys, command):
        labelled, _ = self.write_labelled(tmp_path)
        args = command + [
            "--input", str(labelled), "--bounds=-3:3", "--epsilon", "1.5", "--seed", "5",
        ]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"error: {labelled}: row 2, column 3: not a number\n"

    def test_partial_refuses_a_ragged_row(self, tmp_path, capsys):
        labelled, _ = self.write_labelled(tmp_path, ragged=True)
        args = ["ci", "gaussian", "--input", str(labelled), "--bounds=-3:3", "--epsilon", "1.5",
                "--seed", "5", "--partial", "1"]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"error: {labelled}: row 8 has 2 cells, header has 3\n"

    @pytest.mark.parametrize("partial", ["4", "-1"])
    def test_out_of_range_partial_comes_after_file_errors(self, tmp_path, capsys, partial):
        labelled, _ = self.write_labelled(tmp_path)
        plain = write_gaussian_csv(tmp_path / "plain.csv", k=3)
        base = ["ci", "gaussian", "--bounds=-3:3", "--epsilon", "1.5", "--seed", "5",
                f"--partial={partial}"]
        assert run_cli(base + ["--input", str(labelled)]) == 2
        assert capsys.readouterr().err == f"error: {labelled}: row 2, column 3: not a number\n"
        assert run_cli(base + ["--input", str(plain)]) == 2
        message = "error: --partial must name between 1 and 3 interest columns\n"
        assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "model, bounds",
    [
        ("gaussian", ["--bounds=-1e200:1e200"]),
        ("gaussian", ["--bounds=-1e308:1e308"]),
        # the gram sensitivity stays finite; the cross one overflows
        ("regression", ["--bounds=-1e153:1e153", "--y-bounds=-1e155:1e155"]),
    ],
    ids=["gram", "sum", "cross"],
)
def test_overflowing_bounds_give_one_error_line(tmp_path, capsys, model, bounds):
    write = write_gaussian_csv if model == "gaussian" else write_regression_csv
    data = write(tmp_path / "data.csv")
    args = ["ci", model, "--input", str(data), *bounds, "--epsilon", "1.5", "--seed", "1"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == "error: sensitivity must be finite and >= 0\n"


def test_overflowing_residual_scale_gives_one_error_line(tmp_path, capsys):
    # every other sensitivity stays finite; the residual-variance one m_res^2
    # overflows, and it is refused at every epsilon, the infinite one included
    data = write_regression_csv(tmp_path / "data.csv")
    for epsilon in ("1.5", "inf"):
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1", "--y-bounds=-1e200:1e200",
            "--epsilon", epsilon, "--seed", "1",
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(args) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: residual-variance noise scale overflows; the response bounds are too wide\n"
        )


@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="a 0xff byte decodes in this locale's encoding",
)
@pytest.mark.parametrize("command", [["ci", "gaussian"], ["cv"]])
def test_undecodable_input_gives_one_error_line(tmp_path, capsys, command):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"a,b\n1,2\n3,\xff\n")
    args = command + ["--input", str(data), "--bounds=-5:5", "--epsilon", "1.5", "--seed", "1"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error: {data}: not utf-8 text (invalid start byte)\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--r", "0.7"], "ppb r token '0.7' must lie in (0, 0.5] or be full"),
        (["--r", "nan"], "ppb r token 'nan' must lie in (0, 0.5] or be full"),
        (["--r", "0"], "ppb r token '0' must lie in (0, 0.5] or be full"),
        (["--B", "99"], "B must be >= 100"),
        (["--alpha", "0.7"], "alpha must lie in (0, 0.5)"),
        (["--r", "cv", "--folds", "1"], "folds must be >= 2 (cross-validation needs at least 2 folds)"),
        (["--r", "cv", "--b-inner", "49"], "b_inner must be >= 50"),
    ],
    ids=["r-above-half", "r-nan", "r-zero", "B-small", "alpha-above-half", "cv-one-fold", "cv-b-inner-small"],
)
def test_a_bad_ci_flag_is_refused_before_any_release_or_draw(tmp_path, capsys, monkeypatch, flags, message):
    spy = lambda *args, **kwargs: pytest.fail("a release or a draw ran")  # noqa: E731
    monkeypatch.setattr(GaussianStatistics, "release", spy)
    monkeypatch.setattr(PrivatizedGaussianEstimate, "replica_draws", spy)
    data = write_gaussian_csv(tmp_path / "data.csv")
    args = ["ci", "gaussian", "--input", str(data), "--bounds=-5:5", "--epsilon", "1.5", "--seed", "1"]
    assert run_cli(args + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_file_error_comes_before_a_bad_ci_flag(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,oops\n")
    args = ["ci", "gaussian", "--input", str(bad), "--bounds=-5:5", "--epsilon", "1.5", "--seed", "1"]
    assert run_cli(args + ["--B", "99"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: row 2, column 2: not a number\n"


@pytest.mark.parametrize("command", [["ci", "gaussian"], ["cv"]])
def test_negative_seed_gives_one_error_line(tmp_path, capsys, command):
    data = write_gaussian_csv(tmp_path / "data.csv")
    args = command + ["--input", str(data), "--bounds=-5:5", "--epsilon", "1.5", "--seed", "-1"]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(args)
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith("argument --seed: seed must be a non-negative integer, got '-1'")


#: Inputs at the edges of what the CSV reader accepts, as file text.
EDGE_CASES = {
    "plain": "a,b\n1,2\n3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr_only": "a,b\r1,2\r3,4\r",
    "bom": "\ufeffa,b\n1,2\n",
    "blank_line": "a,b\n1,2\n\n3,4\n",
    "whitespace_line": "a,b\n1,2\n   \t\n3,4\n",
    "comma_blank_row": "a,b,c\n1,2,3\n,,\n4,5,6\n",
    "trailing_comma": "a,b\n1,2,\n",
    "hex": "a\n0x10\n",
    "fortran_exponent": "a\n1d3\n",
    "complex": "a\n1+2j\n",
    "nbsp": "a,b\n\xa01,2\xa0\n",
    "arabic_indic_digits": "a\n\u0661\u0662\n",
    "nan_inf": "a,b\nnan,inf\n-inf,NaN\nInfinity,-infinity\n",
    "single_row": "a,b,c\n1,2,3\n",
    "single_column": "a\n1\n2\n",
    "quoted_cells": 'a,b\n"1","2"\n',
    "underscore": "a\n1_0\n",
    "hash": "a,b\n1,2#x\n",
    "header_only": "a,b\n",
    "empty": "",
    "short_rows": "a,b,c\n1,2\n3,4\n",
    "ragged": "a,b\n1,2\n3\n",
    "not_a_number": "a,b\n1,x\n",
    "padded": "a,b\n 1 , 2 \n",
    "tabs": "a,b\n\t1,2\t\n",
    "no_final_newline": "a,b\n1,2",
    "quoted_header": '"a,1",b\n1,2\n',
    "multiline_header": '"x\n1',
    "file_separator": "a\n\x1c1\n",
    "unit_separator": "a\n1\x1f\n",
    "overflow": "a\n1e400\n",
    "empty_cell": "a,b\n1,\n",
    "blank_first_line": "\na,b\n1,2\n",
    "short_forms": "a,b,c,d\n+.5,5.,-0,1E5\n",
    "inner_space": "a\n1 2\n",
    "only_blank_rows": "a\n\n\n",
    "nul": "a\n1\x00\n",
    # cells after the first ones, which a read of fewer columns skips
    "text_after": "a,b,c\n1,x,yes\n2,abc,no\n",
    "quoted_comma_after": 'a,b,c\n1,"x,y",2\n3,"",4\n',
    "empty_after": "a,b,c\n1,,\n2,,3\n",
    "file_separator_after": "a,b\n1,\x1c\n",
    "ragged_after": "a,b,c\n1,x,y\n2,x\n",
    "long_after": "a,b\n1,x\n2,x,y\n",
    "crlf_text_after": "a,b\r\n1,x\r\n2,y\r\n",
    "cr_only_text_after": "a,b\r1,x\r2,y\r",
    "bom_text_after": "\ufeffa,b\n1,x\n",
}


def _read_outcome(read, path):
    """What a CSV reader makes of ``path``: the header and matrix, or the error text."""
    try:
        return read(path)
    except ParameterError as exc:
        return str(exc)


def assert_reader_matches_row_reader(path):
    """For every ``columns`` (``None``, each count up to the header's and one
    past it), ``_read_csv_matrix`` raises the row reader's error text, or
    returns its header and a bitwise-equal C-contiguous matrix (NaN counted
    equal to NaN)."""
    with open(path, newline="", encoding="utf-8") as fh:
        width = len(next(csv.reader(fh), []))
    for columns in [None, *range(1, width + 2)]:
        got = _read_outcome(lambda path: cli._read_csv_matrix(path, columns), path)
        want = _read_outcome(lambda path: cli._read_csv_rows(path, columns), path)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, columns
            continue
        assert got[0] == want[0]
        matrix, want_matrix = got[1], want[1]
        assert matrix.shape == want_matrix.shape and matrix.flags.c_contiguous
        assert matrix.shape[1] == min(width, columns or width)
        nan = np.isnan(want_matrix)
        assert np.array_equal(np.isnan(matrix), nan)
        assert matrix[~nan].tobytes() == want_matrix[~nan].tobytes()


class TestCsvReader:
    """The C-parsed fast path returns exactly what the row reader returns or
    raises, whether it reads every column or only the first ones."""

    @pytest.mark.filterwarnings("error")  # stderr carries the error line only
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_case_matches_the_row_reader(self, tmp_path, name):
        path = tmp_path / "input.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(EDGE_CASES[name])
        assert_reader_matches_row_reader(path)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.tuples(
                        st.floats(width=64),
                        st.sampled_from(["{!r}", "{:.17g}", "{:.3f}", "{:g}"]),
                        st.text(" ", max_size=2),
                        st.text(" ", max_size=2),
                    ),
                    min_size=k, max_size=k,
                ),
                min_size=1, max_size=5,
            )
        )
    )
    def test_written_doubles_match_the_row_reader(self, rows):
        lines = [",".join(f"{pad}{fmt.format(v)}{tail}" for v, fmt, pad, tail in row) for row in rows]
        header = ",".join(f"x{j}" for j in range(len(rows[0])))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_text("\n".join([header, *lines]) + "\n")
            assert_reader_matches_row_reader(path)

    def test_fast_path_serves_a_plain_file(self, tmp_path, monkeypatch, capsys):
        # written the way the benchmark writes its ci input; if this file fell
        # back to the row reader, every other reader test would still pass
        path = tmp_path / "input.csv"
        rng = np.random.default_rng(3)
        np.savetxt(path, rng.standard_normal((200, 3)), delimiter=",",
                   header="x0,x1,x2", comments="", fmt="%.17g")

        def refuse(path, columns=None):
            raise AssertionError("the row reader ran on a plain file")

        monkeypatch.setattr(cli, "_read_csv_rows", refuse)
        args = ["ci", "gaussian", "--input", str(path), "--bounds=-3:3", "--epsilon", "1.5",
                "--B", "200", "--seed", "5"]
        assert run_cli(args) == 0
        assert run_cli(args + ["--partial", "2"]) == 0


class TestCiRegression:
    def test_runs_and_reports_budget_views(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "reg.csv")
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--y-bounds=-6:6", "--epsilon", "1.5", "--seed", "3", "--B", "300",
        ]
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert "budget      = 1.5\n" in out
        assert "repair      = shift " in out

    def test_nan_response_is_refused_by_cell(self, tmp_path, capsys):
        # not as "the response bounds are too wide", as the rss noise once said
        data = write_regression_csv(tmp_path / "reg.csv")
        lines = data.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:2] + ["nan"])
        data.write_text("\n".join(lines) + "\n")
        args = ["ci", "regression", "--input", str(data), "--bounds=-1:1", "--y-bounds=-6:6", "--epsilon", "1.5", "--seed", "1"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "y[2] is NaN" in err and "too wide" not in err

    def test_a_column_past_partial_is_not_read(self, tmp_path, capsys):
        # neighbours that differ only in the last record's w cell, 0 against 1:
        # w is orthogonal to x on both sides, and a nuisance fit on it would
        # move rss / dof by about 1.0 against its declared delta of 0.0101
        signs = [1.0 if i % 2 == 0 else -1.0 for i in range(199)]
        shared = [row for s in signs for row in ([1.0, 1e-3 * s, s], [-1.0, 1e-3 * s, s])]
        tables = {
            "zero": [*shared, [0.0, 0.0, 0.0]],
            "one": [*shared, [0.0, 1.0, 0.0]],
            "skew": [[x, x + 0.5, y] for x, _, y in [*shared, [0.0, 0.0, 0.0]]],  # w not orthogonal to x
        }
        args = ["--bounds=-1:1", "--y-bounds=-1:1", "--epsilon", "1.5", "--B", "200", "--seed", "3"]
        outputs = {}
        for name, rows in tables.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("x,w,y\n" + "".join(f"{x!r},{w!r},{y!r}\n" for x, w, y in rows))
            outputs[name] = tmp_path / f"{name}.json"
            assert run_cli(["ci", "regression", "--input", str(path), "--partial", "1", *args,
                            "--output", str(outputs[name])]) == 0
        plain = tmp_path / "xy.csv"
        plain.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, _, y in tables["zero"]))
        assert run_cli(["ci", "regression", "--input", str(plain), *args, "--output", str(tmp_path / "xy.json")]) == 0
        assert outputs["zero"].read_bytes() == outputs["one"].read_bytes()
        assert outputs["skew"].read_bytes() == (tmp_path / "xy.json").read_bytes()

    def test_infinite_interest_cell_beside_an_unread_column_clamps_to_the_box(self, tmp_path, capsys):
        # only a NaN cell is refused: an infinity of X clamps to the box edge
        # with a column past --partial beside it, as without one
        lines = write_orthogonal_regression_csv(tmp_path / "orth.csv").read_text().splitlines()
        outputs = []
        for cell in ("inf", "1.0"):
            path = tmp_path / f"{cell}.csv"
            lines[3] = ",".join([cell] + lines[3].split(",")[1:])
            path.write_text("\n".join(lines) + "\n")
            outputs.append(tmp_path / f"{cell}.json")
            assert run_cli(["ci", "regression", "--input", str(path), "--partial", "2", "--bounds=-1:1",
                            "--y-bounds=-8:8", "--epsilon", "1.5", "--B", "200", "--seed", "1",
                            "--output", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_a_non_finite_cell_past_partial_is_not_read(self, tmp_path, capsys, cell):
        # a NaN of X or y is refused by cell; past --partial no cell is read
        data = write_orthogonal_regression_csv(tmp_path / "orth.csv")
        lines = data.read_text().splitlines()
        fields = lines[3].split(",")
        lines[3] = ",".join([*fields[:2], cell, fields[3]])
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(lines) + "\n")
        args = ["--partial", "2", "--bounds=-1:1", "--y-bounds=-8:8", "--epsilon", "1.5", "--B", "200", "--seed", "1"]
        outputs = {path: tmp_path / f"{path.stem}.json" for path in (data, edited)}
        for path, out in outputs.items():
            assert run_cli(["ci", "regression", "--input", str(path), *args, "--output", str(out)]) == 0
        assert outputs[data].read_bytes() == outputs[edited].read_bytes()

    @pytest.mark.parametrize("partial", [[], ["--partial", "2"]], ids=["plain", "partial"])
    def test_estimate_block_is_set_zero_of_the_release(self, tmp_path, capsys, partial):
        data = write_orthogonal_regression_csv(tmp_path / "orth.csv")
        out = tmp_path / "res.json"
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1", "--y-bounds=-8:8",
            "--epsilon", "1.5", "--seed", "3", "--B", "200", "--output", str(out), *partial,
        ]
        assert run_cli(args) == 0
        estimate = json.loads(out.read_text())["estimate"]

        rows = np.loadtxt(data, delimiter=",", skiprows=1)
        k1 = 2 if partial else 3
        x = RegressionData(rows[:, :k1], rows[:, -1], Bounds.symmetric(1.0, k1), Bounds.symmetric(8.0, 1))
        rng = np.random.default_rng(np.random.SeedSequence(3))
        est = fold_statistics([x]).release(1.5, rng)
        expected = {
            "noise_scales": {
                "gram": est.mechanisms[0].scale,
                "xty": est.mechanisms[1].scale,
                "rss": float(est.mechanisms[2].scale[0]),
            },
            "repair": {
                "shift": float(est.repairs.shift[0]),
                "degenerate": bool(est.repairs.degenerate[0]),
            },
        }
        assert json.dumps(estimate) == json.dumps(expected)  # key order included

    def test_missing_response_bounds_refused(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "reg.csv")
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--epsilon", "1.5", "--seed", "3",
        ]
        assert run_cli(args) == 2
        assert "sensitivity is undefined without bounds" in capsys.readouterr().err

    def test_partial_with_every_column_is_plain_regression(self, tmp_path, capsys):
        # --partial 2 on a two-column design reads every design column
        data = write_regression_csv(tmp_path / "reg.csv")
        args = [
            "ci", "regression", "--input", str(data), "--bounds=-1:1",
            "--y-bounds=-6:6", "--epsilon", "1.5", "--seed", "3", "--B", "300",
        ]
        plain, partial = tmp_path / "plain.json", tmp_path / "partial.json"
        assert run_cli(args + ["--output", str(plain)]) == 0
        assert run_cli(args + ["--partial", "2", "--output", str(partial)]) == 0
        assert plain.read_bytes() == partial.read_bytes()

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
        assert payload["budget"] == pytest.approx(5 * 1.5)
        assert "budget   = 7.5\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["ci", "regression"], ["cv", "--model", "regression"]])
    def test_response_only_input_refused(self, tmp_path, capsys, command):
        data = tmp_path / "y.csv"
        data.write_text("y\n" + "\n".join(str(i % 7) for i in range(50)) + "\n")
        args = command + [
            "--input", str(data), "--bounds=-1:1", "--y-bounds=-6:6", "--epsilon", "3", "--seed", "9",
        ]
        assert run_cli(args) == 2
        assert "at least one design column plus y" in capsys.readouterr().err


def subcommand(parser, *names):
    for name in names:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


SHARED_FLAGS = [
    "--input", "--bounds", "--epsilon", "--split", "--folds", "--b-inner", "--seed", "--output",
]


@pytest.mark.parametrize(
    "names, flags",
    [
        (("ci", "gaussian"), SHARED_FLAGS + ["--r", "--alpha", "--B", "--partial"]),
        (("ci", "regression"), SHARED_FLAGS + ["--r", "--alpha", "--B", "--partial", "--y-bounds"]),
        (("cv",), SHARED_FLAGS + ["--model", "--y-bounds", "--grid"]),
        (("simulate",), ["--config", "--output", "--reps", "--workers"]),
        (("plot-data",), ["--report", "--axis", "--output"]),
    ],
)
def test_option_strings_per_subcommand(names, flags):
    parser = subcommand(build_parser(), *names)
    options = {s for action in parser._actions for s in action.option_strings}
    assert options == {"-h", "--help", *flags}


class TestSimulateAndPlot:
    def test_split_with_the_wrong_share_count_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            textwrap.dedent(
                """
                [experiment]
                model = gaussian
                n = 200
                k = 2
                epsilon = 1.5
                split = 0.3, 0.3, 0.4
                seed = 4
                reps = 2
                B = 200

                [methods]
                ppb = 1/10
                """
            )
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert "split" in capsys.readouterr().err

    @pytest.mark.parametrize("key, present", [("n", "k = 2"), ("k", "n = 200")], ids=["n", "k"])
    def test_missing_size_key_exits_2(self, tmp_path, capsys, key, present):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[experiment]\nmodel = gaussian\n{present}\n"
            "epsilon = 1.5\nseed = 4\nreps = 2\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be a positive integer")

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("n = 200\nrep = 5", "unknown [experiment] key 'rep'"),
            ("n = 8x0", "cannot parse n '8x0'"),
            ("n = 200\nn = 300", "option 'n' in section 'experiment' already exists"),
            ("n = 200\nsigma_diag = nan, 1", "error: sigma_diag must be positive and finite\n"),
        ],
        ids=["unknown", "malformed", "duplicate", "non-finite"],
    )
    def test_unknown_or_malformed_key_exits_2(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[experiment]\nmodel = gaussian\n{lines}\nk = 2\n"
            "epsilon = 1.5\nseed = 4\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "experiment, methods, message",
        [
            ("cv_grid = 0.1, x", "ppb = cv", "error: cannot parse cv_grid ' x'"),
            ("", "ppb = 0.7", "error: ppb r token '0.7' must lie in (0, 0.5] or be full"),
        ],
        ids=["cv_grid", "method-token"],
    )
    def test_bad_r_value_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch, experiment, methods, message
    ):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the study ran"))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[experiment]\nmodel = gaussian\nn = 200\nk = 2\n{experiment}\n"
            f"epsilon = 1.5\nseed = 4\nB = 200\n\n[methods]\n{methods}\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        assert (code, capsys.readouterr().err) == (2, message + "\n")

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

    def test_negative_workers_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = gaussian\nn = 200\nk = 2\n"
            "epsilon = 1.5\nseed = 4\nreps = 2\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        args = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]
        code = run_cli(args + ["--workers", "-2"])
        assert code == 2
        assert "error: workers must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()
        assert run_cli(args + ["--workers", "0"]) == 2  # a flag given is checked, 0 included
        assert "error: workers must be a positive integer, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--reps", "0"], "reps must be a positive integer, got 0"),
            (["--reps", "-1"], "reps must be a positive integer, got -1"),
            (["--reps", "0", "--workers", "0"], "reps must be a positive integer, got 0"),
            (["--workers", "0"], "workers must be a positive integer, got 0"),
        ],
        ids=["reps-0", "reps-negative", "both-0", "workers-0"],
    )
    def test_zero_or_negative_override_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # 0 was read as "no override", so --reps 0 --workers 0 ran the configured 3 replications
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the study ran"))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = gaussian\nn = 200\nk = 2\n"
            "epsilon = 1.5\nseed = 4\nreps = 3\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")] + flags)
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_an_override_flag_sets_the_study(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: seen.append(config) or ExperimentReport())
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = gaussian\nn = 200\nk = 2\n"
            "epsilon = 1.5\nseed = 4\nreps = 3\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        args = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]
        assert run_cli(args) == 0 and run_cli(args + ["--reps", "5", "--workers", "2"]) == 0
        assert [(c.reps, c.workers) for c in seen] == [(3, 1), (5, 2)]

    def test_negative_seed_config_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the study ran"))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = gaussian\nn = 200\nk = 2\n"
            "epsilon = 1.5\nseed = -3\nreps = 2\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert (code, err) == (2, "error: seed must be a non-negative integer, got -3\n")

    def test_bad_half_width_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = regression\nn = 200\nk = 2\nx_half_width = -1\n"
            "epsilon = 1.5\nseed = 4\nreps = 2\nB = 200\n\n[methods]\nppb = 1/10\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert (code, err) == (2, "error: x_half_width must be positive and finite\n")

    def test_small_b_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = gaussian\nn = 200\nk = 2\n"
            "epsilon = 1.5\nseed = 4\nreps = 2\nB = 50\n\n[methods]\nppb = 1/10\n"
        )
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert "error: B must be >= 100" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda rows: [row[:2] + row[3:] for row in rows], "row 1, column r: not in the header"),
            (
                lambda rows: rows[:2] + [rows[2][:6] + ["2.5"] + rows[2][7:]],
                "row 3, column k: cannot read '2.5' as int",
            ),
        ],
        ids=["missing-column", "non-integer-cell"],
    )
    def test_malformed_report_exits_2_naming_row_and_column(self, tmp_path, capsys, edit, error):
        header = ["model", "method", "r", "epsilon", "truth", "n", "k", "coverage", "coverage_se",
                  "mean_length", "reps", "B", "seed", "failed_draws"]
        rows = [header] + [["gaussian", "ppb", "0.1", eps, "mu=(0,0)", "200", "2", "0.95", "0.01",
                            "0.3", "20", "200", "4", "0"] for eps in ("0.5", "1.5")]
        report_csv = tmp_path / "report.csv"
        with open(report_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        code = run_cli(["plot-data", "--report", str(report_csv), "--axis", "epsilon",
                        "--output", str(tmp_path / "plot.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {report_csv}: {error}\n"
