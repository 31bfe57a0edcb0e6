import csv
import math
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dpextrema import cli, harness
from dpextrema.crossval import CVConfig, cv_choose_r
from dpextrema.errors import DegeneracyError, NumericError, ParameterError
from dpextrema.harness import (
    REPORT_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    MethodSpec,
    divide_budget,
    emit_plot_data,
    format_r_token,
    load_config,
    parse_r_token,
    run_experiment,
)
from dpextrema.extrema import (
    FULL_CORRECTION,
    bonferroni_lower_limit,
    naive_lower_limit,
    ppb_limits,
    ppb_lower_limit,
)
from dpextrema.models import PrivatizedRegressionEstimate, RegressionData
from dpextrema.privacy import Bounds

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.ini")) + sorted(REPO.glob("bench/configs/*.ini"))


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

    @pytest.mark.parametrize("B", [0, 50])
    def test_too_few_bootstrap_draws_rejected(self, B):
        with pytest.raises(ParameterError, match="B must be >= 100"):
            run_experiment(small_config(B=B, reps=3))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            small_config(workers=0)

    def test_negative_seed_rejected(self):
        # SeedSequence takes non-negative integers only; refuse before any run
        with pytest.raises(ParameterError, match="^seed must be a non-negative integer, got -3$"):
            small_config(seed=-3)


ALL_METHODS = (
    MethodSpec("ppb", ("1/10", "cv")),
    MethodSpec("npb", ("cv", "1/10")),
    MethodSpec("rppb", ("1/10",)),
    MethodSpec("semi_naive"),
    MethodSpec("naive", private=True),
    MethodSpec("naive", private=False),
    MethodSpec("bonferroni", private=True),
    MethodSpec("bonferroni", private=False),
)

#: One small config per model, with every method; its 7 replications leave a
#: short last block at block size 3.
MODEL_CONFIGS = {
    "gaussian": dict(model="gaussian", mu=(0.0, 0.2)),
    "regression": dict(model="regression", n=2000, beta=(0.0, 0.5), epsilons=(20.0, math.inf)),
    "fixed_regression": dict(
        model="regression", n=2000, beta=(0.0, 0.5), epsilons=(20.0,), design="fixed"
    ),
    "partial_regression": dict(
        model="partial_regression", n=2000, epsilons=(20.0,), k_nuisance=2, gamma=(0.5, -0.5)
    ),
}


def model_config(name, **overrides):
    return small_config(
        **{"methods": ALL_METHODS, "reps": 7, "B": 100, "b_inner": 50, **MODEL_CONFIGS[name], **overrides}
    )


def oracle_replication(config, eps_index, rep, fixed_design):
    """One replication as the harness ran it one at a time: its own generator,
    a release of one set, and each estimate and draw made once."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, eps_index, rep)))
    budget = divide_budget(config.epsilons[eps_index], config.split)
    data = harness._generate_data(config, rng, fixed_design)
    estimates, draws, results = {}, {}, {}

    def release(private):
        if private not in estimates:
            stats = data.fold_statistics([slice(None)])
            estimates[private] = stats.release(budget if private else math.inf, rng)
        return estimates[private]

    def bootstrap(private, token, privacy_noise=True):
        e = release(private)
        if token == "cv":
            cv_config = CVConfig(folds=config.cv_folds, grid=config.cv_grid, b_inner=config.b_inner)
            r = cv_choose_r(data, budget if private else math.inf, rng, cv_config).chosen_rs[0]
        else:
            r = parse_r_token(token)
        if (private, privacy_noise) not in draws:
            d, failed = e.replica_draws(config.B, rng, 1, privacy_noise)
            draws[private, privacy_noise] = d, failed.sum(axis=1)
        d, failed = draws[private, privacy_noise]
        lower, _ = ppb_limits(e.betas, d, failed, r, e.sizes, config.alpha)
        return float(lower[0]), int(failed[0])

    for spec in config.methods:
        if spec.name in ("ppb", "npb", "rppb"):
            for token in spec.r_tokens:
                results[spec.label, token] = bootstrap(
                    spec.name != "npb", token, privacy_noise=spec.name != "rppb"
                )
        elif spec.name == "semi_naive":
            results[spec.label, "0.5"] = bootstrap(True, "0.5")
        else:
            limit = naive_lower_limit if spec.name == "naive" else bonferroni_lower_limit
            res = limit(release(spec.private), config.alpha, spec.private)
            results[spec.label, ""] = res.lower_limit, res.failed_draws
    true_max = config.true_max
    return {
        key: (lower <= true_max, true_max - lower, failed)
        for key, (lower, failed) in results.items()
    }


def assert_block_matches_oracle(config, fixed_design):
    for eps_index in range(len(config.epsilons)):
        block = harness._block_outcomes(config, eps_index, range(config.reps), fixed_design)
        for rep in range(config.reps):
            alone = oracle_replication(config, eps_index, rep, fixed_design)
            assert list(alone) == list(block)
            for key, outcome in alone.items():
                assert outcome == tuple(a[rep] for a in block[key]), (key, rep)


def collinear_design(n=400):
    """A design whose two columns are equal: its gram matrix is singular, so
    at a large budget the bootstrap's noisy systems sit near the singularity
    floor and some are retried."""
    x = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    return np.column_stack([x, x])


def collinear_config(epsilon):
    return small_config(
        model="regression", n=400, beta=(0.0, 0.5), design="fixed", epsilons=(epsilon,),
        methods=(MethodSpec("ppb", ("1/10",)), MethodSpec("naive")),
        seed=3, reps=6,
    )


class TestBlocks:
    """A block of replications gives each replication what it gets alone."""

    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    def test_reports_equal_across_block_sizes_and_workers(self, name, monkeypatch):
        config = model_config(name)
        reports = []
        for per_block in (1, 3, config.reps):
            monkeypatch.setattr(harness, "BLOCK_VALUES", per_block * harness._replication_values(config))
            assert harness._block_size(config) == per_block
            reports.append(run_experiment(config))
        reports.append(run_experiment(model_config(name, workers=2)))
        assert all(report == reports[0] for report in reports[1:])
        assert len(reports[0].rows) == 10 * len(config.epsilons)

    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    def test_each_replication_matches_the_single_set_oracle(self, name):
        config = model_config(name)
        assert_block_matches_oracle(config, harness._fixed_design_for(config))

    def test_replications_with_retried_systems_match_the_oracle(self, monkeypatch):
        retried_by = set()  # the generators whose block draws were retried
        noisy_systems = PrivatizedRegressionEstimate._noisy_systems

        def spy(self, owner, shape, rng, floor, s_eigvals):
            if len(shape) == 1 and self.sizes.size > 1:  # a block's retries
                retried_by.add(rng)
            return noisy_systems(self, owner, shape, rng, floor, s_eigvals)

        monkeypatch.setattr(PrivatizedRegressionEstimate, "_noisy_systems", spy)
        assert_block_matches_oracle(collinear_config(1e6), collinear_design())
        assert len(retried_by) >= 2

    def test_regression_block_holds_one_replications_systems(self, monkeypatch):
        # the benchmark's k = 8, B = 1000 study stacks 8 replications, while
        # its (B, k, k) systems are drawn and solved one replication at a time
        config = replace(load_config(REPO / "bench" / "configs" / "regression_k8.ini"), reps=8)
        assert harness._block_size(config) == 8
        calls = []  # (sets in the stack, values in the systems array)
        noisy_systems = PrivatizedRegressionEstimate._noisy_systems

        def spy(self, *args):
            systems, flags = noisy_systems(self, *args)
            calls.append((self.sizes.size, systems.size))
            return systems, flags

        monkeypatch.setattr(PrivatizedRegressionEstimate, "_noisy_systems", spy)
        run_experiment(config)
        assert max(sets for sets, _ in calls) == 8
        assert max(values for _, values in calls) <= harness.BLOCK_VALUES

    def test_rows_count_toward_a_block_only_under_cross_validation(self, monkeypatch):
        # 40,000 rows of two columns and the response exceed BLOCK_VALUES
        config = small_config(
            model="regression", n=40_000, beta=(0.0, 0.5), reps=3,
            methods=(MethodSpec("ppb", ("1/10", "cv")),),
        )
        assert config.n * (config.k + 1) > harness.BLOCK_VALUES
        assert harness._block_size(config) == 1
        assert harness._block_size(replace(config, methods=(MethodSpec("ppb", ("1/10",)),))) == 3
        blocks = []
        monkeypatch.setattr(harness, "_run_block", lambda c, e, reps, d: blocks.append(reps) or {})
        run_experiment(config)
        assert blocks == [range(0, 1), range(1, 2), range(2, 3)]

    @pytest.mark.parametrize("reps, per_block", [(10, 8), (7, 3), (9, 3), (1, 8), (1000, 8), (13, 13)])
    def test_blocks_are_near_equal_and_in_order(self, monkeypatch, reps, per_block):
        config = small_config(reps=reps)
        monkeypatch.setattr(harness, "BLOCK_VALUES", per_block * harness._replication_values(config))
        blocks = []
        monkeypatch.setattr(harness, "_run_block", lambda c, e, reps, d: blocks.append(reps) or {})
        run_experiment(config)
        sizes = [len(block) for block in blocks]
        assert [rep for block in blocks for rep in block] == list(range(reps))
        assert len(blocks) == -(-reps // per_block) and max(sizes) <= per_block
        assert max(sizes) - min(sizes) <= 1

    def test_block_memory_grows_by_its_replicas_not_its_systems(self):
        # at k = 8, B = 1000 one replication's draws are 64 kB and its
        # systems 512 kB; each replication a block adds may cost its draws
        # and a quarter more, never another set of systems
        config = replace(
            load_config(REPO / "bench" / "configs" / "regression_k8.ini"),
            methods=(MethodSpec("ppb", ("1/10",)),), reps=8,
        )
        harness._block_outcomes(config, 0, range(1), None)  # first-call set-up
        peaks = []
        for reps in (1, 8):
            tracemalloc.start()
            try:
                harness._block_outcomes(config, 0, range(reps), None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        draws = config.B * config.k * 8  # bytes of one replication's (B, k) draws
        assert peaks[1] - peaks[0] <= 7 * 1.25 * draws
        assert peaks[0] > config.B * config.k**2 * 8

    def test_single_set_limit_counts_failed_draws_in_b(self):
        # a release of one set on the collinear design: its failed draws are
        # NaN rows among the B requested, so B counts the valid ones
        x = collinear_design()
        rng = np.random.default_rng(4)
        data = RegressionData(
            x, x @ [0.0, 0.5] + rng.standard_normal(x.shape[0]),
            Bounds.symmetric(1.0, 2), Bounds.symmetric(6.0, 1),
        )
        estimate = data.fold_statistics([slice(None)]).release(1e6, rng)
        result = ppb_lower_limit(estimate, 0.1, rng, B=1000)
        assert result.failed_draws > 0
        assert result.B + result.failed_draws == 1000

    def test_a_failing_study_raises_as_one_replication_at_a_time(self, monkeypatch):
        # at epsilon 1e7 too many bootstrap systems fail twice
        config = collinear_config(1e7)
        monkeypatch.setattr(harness, "_fixed_design_for", lambda config: collinear_design())
        errors = set()
        for per_block in (1, 3, config.reps):
            monkeypatch.setattr(harness, "BLOCK_VALUES", per_block * harness._replication_values(config))
            with pytest.raises(DegeneracyError) as info:
                run_experiment(config)
            errors.add(str(info.value))
        assert len(errors) == 1

    def test_block_error_is_that_of_its_first_failing_replication(self, monkeypatch):
        # replication 3 fails early in the block and replication 1 late, so
        # the block stops at 3's error; a serial run stops at 1's
        def outcomes(config, eps_index, reps, fixed_design):
            if 3 in reps:
                raise DegeneracyError("replication 3")
            if 1 in reps:
                raise NumericError("replication 1")
            return {}

        monkeypatch.setattr(harness, "_block_outcomes", outcomes)
        with pytest.raises(NumericError, match="replication 1") as info:
            harness._run_block(small_config(), 0, range(0, 5), None)
        assert type(info.value) is NumericError


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

    def test_workers_key_below_one_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [experiment]
            n = 100
            k = 2
            epsilon = 1
            seed = 1
            workers = -4

            [methods]
            ppb = 1/10
            """,
        )
        with pytest.raises(ParameterError, match="workers"):
            load_config(path)

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

    def test_unknown_model_is_refused_with_the_supported_ones(self, tmp_path, capsys):
        # a model the harness does not simulate, such as partial_gaussian, is named
        path = self.write(
            tmp_path,
            """
            [experiment]
            model = partial_gaussian
            n = 100
            k = 2
            k_nuisance = 2
            epsilon = 1.5
            seed = 1

            [methods]
            ppb = 1/10
            """,
        )
        message = (
            "unknown model 'partial_gaussian'; "
            "the supported models are gaussian, regression, partial_regression"
        )
        with pytest.raises(ParameterError, match=f"^{message}$"):
            load_config(path)
        out = tmp_path / "report.csv"
        assert cli.main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("n = 100\nrep = 5", "unknown \\[experiment\\] key 'rep'"),
            ("n = 100\nbounds_halfwidth = 2.8", "unknown \\[experiment\\] key 'bounds_halfwidth'"),
            ("n = 8x0", "cannot parse n '8x0'"),
            ("n = 100\nreps = ten", "cannot parse reps 'ten'"),
            ("n = 100\nn = 200", "option 'n' in section 'experiment' already exists"),
            ("n = 100\ncv_grid = 0.1, x", "cannot parse cv_grid ' x'"),
            ("n = 100\ncv_grid = 0.1, 0.7", "cv_grid values must lie strictly inside \\(0, 0.5\\)"),
            ("n = 100\ncv_grid = 0.2, 0.1", "cv_grid must be sorted ascending"),
            ("n = 100\nB = 50", "^B must be >= 100"),
            ("n = 100\nalpha = 0.7", "^alpha must lie in \\(0, 0.5\\)"),
            ("n = 100\nb_inner = 10", "^b_inner must be >= 50"),
            ("n = 100\ncv_folds = 1", "^cv_folds must be >= 2"),
            ("n = 100\nbounds_half_width = -1", "^bounds_half_width must be positive"),
            ("n = 100\nx_half_width = -1", "^x_half_width must be positive and finite$"),
            ("n = 100\nx_half_width = inf", "^x_half_width must be positive and finite$"),
            ("n = 100\nx_half_width = 0", "^x_half_width must be positive and finite$"),
            ("n = 100\ny_half_width = -2", "^y_half_width must be positive and finite$"),
            ("n = 100\nmu_nuisance = 0, x", "unknown \\[experiment\\] key 'mu_nuisance'"),
            ("n = 100\nsigma_diag = nan, 1", "^sigma_diag must be positive and finite$"),
            ("n = 100\nsigma_diag = inf, 1", "^sigma_diag must be positive and finite$"),
            ("n = 100\nsigma_diag = 1, 0", "^sigma_diag must be positive and finite$"),
            ("n = 100\nsigma_diag = 1", "^sigma_diag length does not match k$"),
            ("n = 100\nmu = inf, 0", "^mu must be finite$"),
            ("n = 100\nbeta = nan, 0", "^beta must be finite$"),
            ("n = 100\ngamma = 0.5, -inf", "^gamma must be finite$"),
            ("n = 100\nsigma2 = nan", "^sigma2 must be positive and finite$"),
            ("n = 100\nsigma2 = inf", "^sigma2 must be positive and finite$"),
        ],
        ids=["rep", "bounds_halfwidth", "n", "reps", "duplicate", "cv_grid", "cv_grid-range",
             "cv_grid-order", "B", "alpha", "b_inner", "cv_folds", "bounds_half_width",
             "x_half_width-negative", "x_half_width-inf", "x_half_width-zero", "y_half_width",
             "mu_nuisance", "sigma_diag-nan", "sigma_diag-inf", "sigma_diag-zero",
             "sigma_diag-length", "mu-inf", "beta-nan", "gamma-inf", "sigma2-nan", "sigma2-inf"],
    )
    def test_unknown_or_malformed_key_is_named(self, tmp_path, lines, message):
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[experiment]\nmodel = gaussian\n{lines}\nk = 2\nepsilon = 1.5\nseed = 1\n"
            "\n[methods]\nppb = 1/10\n"
        )
        with pytest.raises(ParameterError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "methods, message",
        [
            ("ppb = 0.7", "ppb r token '0.7' must lie in \\(0, 0.5\\] or be full"),
            ("npb = 1/10, 0", "npb r token '0' must lie"),
            ("rppb = 1/10, 1/x", "cannot parse rppb r token '1/x'"),
        ],
        ids=["above-half", "zero", "malformed"],
    )
    def test_bad_r_token_names_its_method(self, tmp_path, methods, message):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nmodel = gaussian\nn = 100\nk = 2\nepsilon = 1.5\nseed = 1\n"
            f"\n[methods]\n{methods}\n"
        )
        with pytest.raises(ParameterError, match=f"^{message}"):
            load_config(path)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO)))
def test_every_shipped_config_loads(path):
    assert load_config(path).reps >= 1
