import csv
import math
import textwrap

import numpy as np
import pytest

from dpextrema.errors import ParameterError
from dpextrema.harness import (
    REPORT_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    MethodSpec,
    emit_plot_data,
    format_r_token,
    load_config,
    parse_r_token,
    run_experiment,
)
from dpextrema.extrema import FULL_CORRECTION


def small_config(**overrides):
    defaults = dict(
        model="gaussian",
        n=200,
        k=2,
        mu=(0.0, 0.0),
        epsilons=(1.5,),
        methods=(MethodSpec("ppb", ("1/10",)), MethodSpec("naive")),
        seed=11,
        reps=40,
        B=200,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestTokens:
    def test_parse_fraction_float_full(self):
        assert parse_r_token("1/10") == pytest.approx(0.1)
        assert parse_r_token("0.25") == 0.25
        assert parse_r_token("full") == FULL_CORRECTION

    def test_roundtrip_format(self):
        assert format_r_token(FULL_CORRECTION) == "full"
        assert format_r_token(0.5) == "0.5"

    def test_bad_token_rejected(self):
        with pytest.raises(ParameterError):
            parse_r_token("one-tenth")


class TestRunExperiment:
    def test_full_reproducibility(self):
        cfg = small_config()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_worker_pool_matches_serial(self):
        cfg = small_config(reps=16)
        serial = run_experiment(cfg)
        parallel = run_experiment(small_config(reps=16, workers=2))
        assert serial == parallel

    def test_coverage_bookkeeping(self):
        report = run_experiment(small_config())
        for row in report.rows:
            assert 0.0 <= row.coverage <= 1.0
            assert row.coverage_se == pytest.approx(
                math.sqrt(row.coverage * (1 - row.coverage) / row.reps)
            )
            assert row.reps == 40

    def test_epsilon_sweep_produces_row_per_value(self):
        cfg = small_config(
            epsilons=(0.5, 1.5), methods=(MethodSpec("ppb", ("1/10",)),)
        )
        report = run_experiment(cfg)
        assert [row.epsilon for row in report.rows] == [0.5, 1.5]

    def test_nonprivate_methods_use_infinite_budget(self):
        cfg = small_config(
            methods=(MethodSpec("npb", ("1/10",)), MethodSpec("naive", private=False))
        )
        report = run_experiment(cfg)
        labels = {row.method for row in report.rows}
        assert labels == {"npb", "naive_nonprivate"}

    def test_every_model_runs(self):
        for model, extra in (
            ("gaussian", {}),
            ("partial_gaussian", {"k_nuisance": 2}),
            ("regression", {"beta": (0.0, 1.0)}),
            (
                "partial_regression",
                {"beta": (0.0, 0.0), "k_nuisance": 2, "gamma": (0.5, -0.5), "n": 400},
            ),
        ):
            cfg = small_config(model=model, reps=5, B=200, **extra)
            report = run_experiment(cfg)
            assert report.rows

    def test_fixed_design_is_deterministic_and_differs_from_resampled(self):
        fixed = small_config(model="regression", beta=(0.0, 1.0), design="fixed", reps=10)
        resampled = small_config(model="regression", beta=(0.0, 1.0), reps=10)
        assert run_experiment(fixed) == run_experiment(fixed)
        assert run_experiment(fixed) != run_experiment(resampled)

    def test_cv_method_row(self):
        cfg = small_config(
            methods=(MethodSpec("ppb", ("cv",)),), reps=5, B=200, b_inner=60
        )
        report = run_experiment(cfg)
        assert report.rows[0].r == "cv"

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            small_config(reps=0)
        with pytest.raises(ParameterError):
            small_config(epsilons=())
        with pytest.raises(ParameterError):
            small_config(methods=())
        with pytest.raises(ParameterError):
            small_config(mu=(0.0,))
        with pytest.raises(ParameterError):
            small_config(split=(0.9, 0.9))
        with pytest.raises(ParameterError):
            MethodSpec("ppb")  # bootstrap method without r values

    def test_split_share_count_is_checked_by_the_release(self):
        # the shares fit any model until the release, which knows its count
        cfg = small_config(split=(0.3, 0.3, 0.4), reps=2)
        with pytest.raises(ParameterError, match="split"):
            run_experiment(cfg)


class TestReportIO:
    def test_csv_round_trip(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.csv"
        report.to_csv(path)
        assert ExperimentReport.from_csv(path) == report

    def test_infinite_epsilon_round_trip(self, tmp_path):
        cfg = small_config(epsilons=(math.inf,), methods=(MethodSpec("ppb", ("1/10",)),))
        report = run_experiment(cfg)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        back = ExperimentReport.from_csv(path)
        assert math.isinf(back.rows[0].epsilon)

    def test_column_order_is_stable(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == REPORT_COLUMNS


class TestPlotData:
    def test_budget_sweep_plot_rows(self, tmp_path):
        cfg = small_config(
            epsilons=(0.5, 1.0, 1.5), methods=(MethodSpec("ppb", ("1/10",)),), reps=10
        )
        report = run_experiment(cfg)
        out = tmp_path / "plot.csv"
        emit_plot_data(report, "epsilon", out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis_value", "method", "coverage", "mean_length"]
        assert len(rows) == 1 + 3  # one method, three budgets

    def test_single_axis_value_rejected(self, tmp_path):
        report = run_experiment(small_config(reps=5))
        with pytest.raises(ParameterError):
            emit_plot_data(report, "epsilon", tmp_path / "plot.csv")

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_plot_data(ExperimentReport([]), "epsilon", tmp_path / "plot.csv")

    def test_k_axis_over_merged_reports(self, tmp_path):
        small = run_experiment(small_config(reps=5))
        bigger = run_experiment(
            small_config(reps=5, k=3, mu=(0.0, 0.0, 0.0), n=300)
        )
        out = tmp_path / "plot.csv"
        emit_plot_data(small.merge(bigger), "k", out)
        with open(out) as fh:
            values = {row[0] for row in list(csv.reader(fh))[1:]}
        assert values == {"2", "3"}

    def test_r_axis_skips_baselines(self, tmp_path):
        cfg = small_config(
            methods=(MethodSpec("ppb", ("1/30", "1/10")), MethodSpec("naive")), reps=5
        )
        report = run_experiment(cfg)
        out = tmp_path / "plot.csv"
        emit_plot_data(report, "r", out)
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(row[1] == "ppb" for row in rows)


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.ini"
        path.write_text(textwrap.dedent(text))
        return path

    def test_load_full_config(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [experiment]
            model = gaussian
            n = 800
            k = 2
            mu = 0, 1
            epsilon = 0.5, 1.5
            split = 0.4, 0.6
            bounds_half_width = 2.8
            alpha = 0.05
            B = 1000
            reps = 250
            seed = 99
            workers = 2

            [methods]
            ppb = 1/30, 1/10, full, cv
            semi_naive = on
            naive = both
            bonferroni = private
            rppb = off
            """,
        )
        cfg = load_config(path)
        assert cfg.model == "gaussian" and cfg.n == 800 and cfg.k == 2
        assert cfg.mu == (0.0, 1.0)
        assert cfg.epsilons == (0.5, 1.5)
        assert cfg.split == (0.4, 0.6)
        assert cfg.bounds_half_width == 2.8
        assert cfg.seed == 99 and cfg.reps == 250 and cfg.workers == 2
        labels = [m.label for m in cfg.methods]
        assert labels == ["ppb", "semi_naive", "naive_private", "naive_nonprivate", "bonferroni_private"]
        assert cfg.methods[0].r_tokens == ("1/30", "1/10", "full", "cv")

    def test_zeros_shorthand(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [experiment]
            model = gaussian
            n = 100
            k = 8
            mu = zeros+1
            epsilon = 3
            seed = 1
            reps = 10

            [methods]
            ppb = 1/10
            """,
        )
        assert load_config(path).mu == (0.0,) * 7 + (1.0,)

    def test_missing_epsilon_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [experiment]
            model = gaussian
            n = 100
            k = 2
            seed = 1

            [methods]
            ppb = 1/10
            """,
        )
        with pytest.raises(ParameterError, match="epsilon"):
            load_config(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [experiment]
            model = gaussian
            n = 100
            k = 2
            epsilon = 1.5

            [methods]
            ppb = 1/10
            """,
        )
        with pytest.raises(ParameterError):
            load_config(path)

    def test_unknown_method_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [experiment]
            model = gaussian
            n = 100
            k = 2
            epsilon = 1.5
            seed = 1

            [methods]
            oracle = on
            """,
        )
        with pytest.raises(ParameterError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_config(tmp_path / "absent.ini")

    @pytest.mark.parametrize(
        "line",
        [
            "mu = 0, x",
            "split = 0.5, abc",
            "beta = 0, x",
            "gamma = 0.5, x",
            "sigma_diag = 1, x",
            "mu_nuisance = 0, x",
            "y_half_width = wide",
        ],
    )
    def test_malformed_number_names_its_key(self, tmp_path, line):
        path = self.write(
            tmp_path,
            f"""
            [experiment]
            model = gaussian
            n = 100
            k = 2
            epsilon = 1.5
            seed = 1
            {line}

            [methods]
            ppb = 1/10
            """,
        )
        key = line.split(" = ")[0]
        with pytest.raises(ParameterError, match=key):
            load_config(path)

    def test_gamma_must_match_k_nuisance(self, tmp_path):
        text = """
            [experiment]
            model = partial_regression
            n = 400
            k = 2
            epsilon = 1.5
            seed = 1
            {lines}

            [methods]
            ppb = 1/10
            """
        path = self.write(tmp_path, text.format(lines="k_nuisance = 3\n            gamma = 0.5, -0.5"))
        with pytest.raises(ParameterError, match="gamma"):
            load_config(path)
        # gamma alone sets the width, and a matching k_nuisance is accepted
        path = self.write(tmp_path, text.format(lines="gamma = 0.5, -0.5"))
        assert load_config(path).gamma == (0.5, -0.5)
        path = self.write(tmp_path, text.format(lines="k_nuisance = 2\n            gamma = 0.5, -0.5"))
        assert load_config(path).gamma == (0.5, -0.5)

    @pytest.mark.parametrize(
        "key, lines",
        [
            ("n", ["k = 2"]),
            ("k", ["n = 100"]),
            ("n", ["n = 0", "k = 2"]),
            ("k", ["n = 100", "k = -1"]),
        ],
        ids=["no-n", "no-k", "zero-n", "negative-k"],
    )
    def test_missing_or_nonpositive_size_names_its_key(self, tmp_path, key, lines):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nmodel = gaussian\n" + "\n".join(lines)
            + "\nepsilon = 1.5\nseed = 1\n\n[methods]\nppb = 1/10\n"
        )
        with pytest.raises(ParameterError, match=rf"^{key} must be a positive integer"):
            load_config(path)
