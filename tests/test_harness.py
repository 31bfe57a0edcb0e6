import ast
import concurrent.futures
import csv
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dpextrema import cli, harness, models
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
from dpextrema.models import PrivatizedRegressionEstimate, RegressionData, fold_statistics
from dpextrema.privacy import Bounds

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.ini")) + sorted(REPO.glob("bench/configs/*.ini"))


def small_config(**overrides):
    defaults = dict(
        model="gaussian",
        n=200,
        k=2,
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
                {"beta": (0.0, 0.0), "gamma": (0.5, -0.5), "n": 400},
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

    @pytest.mark.parametrize(
        "spec, field",
        [
            (lambda: MethodSpec("ppb", ("1/10",), private=False), "private"),
            (lambda: MethodSpec("rppb", ("1/10",), private=False), "private"),
            (lambda: MethodSpec("semi_naive", private=False), "private"),
            (lambda: MethodSpec("semi_naive", ("1/10", "cv")), "r_tokens"),
            (lambda: MethodSpec("naive", ("cv",)), "r_tokens"),
            (lambda: MethodSpec("bonferroni", ("1/10",), private=False), "r_tokens"),
        ],
        ids=["ppb-private", "rppb-private", "semi_naive-private", "semi_naive-r", "naive-r", "bonferroni-r"],
    )
    def test_a_field_the_method_does_not_read_is_refused(self, spec, field):
        # npb is the nonprivate bootstrap, semi_naive reports r = 0.5 alone and
        # the baselines take no r; such a field would be dropped, not applied
        with pytest.raises(ParameterError, match=f"^method '[a-z_]+' does not read {field}$"):
            spec()

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n=2.5), "n must be a positive integer, got 2.5"),
            (dict(k=None), "k must be a positive integer, got None"),
            (dict(seed=1.5), "seed must be a non-negative integer, got 1.5"),
            (dict(seed=None), "seed must be a non-negative integer, got None"),
            (dict(reps=2.5), "reps must be a positive integer, got 2.5"),
            (dict(reps=None), "reps must be a positive integer, got None"),
            (dict(workers=None), "workers must be a positive integer, got None"),
            (dict(B=None), "B must be an integer, got None"),
            (dict(B=150.5), "B must be an integer, got 150.5"),
            (dict(b_inner=60.5), "b_inner must be an integer, got 60.5"),
            (dict(cv_folds=None), "cv_folds must be an integer, got None"),
            (dict(alpha=None), "alpha must be a number, got None"),
            (dict(bounds_half_width=None), "bounds_half_width must be positive and finite"),
            (dict(model="regression", sigma2=None), "sigma2 must be positive and finite"),
            (dict(model="regression", x_half_width=None), "x_half_width must be positive and finite"),
            (dict(mu=1.0), "mu must be a sequence, got 1.0"),
            (dict(sigma_diag=2.0), "sigma_diag must be a sequence, got 2.0"),
            (dict(epsilons=1.5), "epsilons must be a sequence, got 1.5"),
            (dict(split=1.0), "split must be a sequence, got 1.0"),
            (dict(cv_grid=0.1), "cv_grid must be a sequence, got 0.1"),
            (dict(methods=MethodSpec("naive")),
             "methods must be a sequence, got MethodSpec(name='naive', r_tokens=(), private=True)"),
            (dict(methods=("ppb",)), "methods must hold MethodSpec entries, got 'ppb'"),
        ],
        ids=["n-float", "k-None", "seed-float", "seed-None", "reps-float", "reps-None", "workers-None",
             "B-None", "B-float", "b_inner-float", "cv_folds-None", "alpha-None", "bounds_half_width-None",
             "sigma2-None", "x_half_width-None", "mu-float", "sigma_diag-float", "epsilons-float", "split-float",
             "cv_grid-float", "methods-one-spec", "methods-str-entry"],
    )
    def test_a_constructor_value_of_the_wrong_type_names_its_field(self, overrides, message):
        # each was accepted, or raised TypeError, before the fields' checks refused them
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(mu=(None, 0.0)), "mu must be finite"),
            (dict(mu=("x", 1.0)), "mu must be finite"),
            (dict(mu="ones"), "mu must be a sequence, got 'ones'"),
            (dict(sigma_diag=(1.0, None)), "sigma_diag must be positive and finite"),
            (dict(sigma_diag=("1", 1.0)), "sigma_diag must be positive and finite"),
            (dict(model="regression", beta=(None, 0.5)), "beta must be finite"),
            (dict(model="regression", beta=(0.0, "x")), "beta must be finite"),
            (dict(model="partial_regression", gamma=(None,)), "gamma must be finite"),
            (dict(model="partial_regression", gamma=(0.5, "x")), "gamma must be finite"),
            (dict(epsilons=(None,)), "every epsilon must be positive (inf allowed)"),
            (dict(epsilons=("a",)), "every epsilon must be positive (inf allowed)"),
            (dict(epsilons=(1.5, "2")), "every epsilon must be positive (inf allowed)"),
        ],
        ids=["mu-None", "mu-str", "mu-unknown-shorthand", "sigma_diag-None", "sigma_diag-str", "beta-None",
             "beta-str", "gamma-None", "gamma-str", "epsilons-None", "epsilons-str", "epsilons-str-second"],
    )
    def test_an_entry_of_the_wrong_type_is_refused_with_its_vectors_message(self, overrides, message):
        # a config file reads every entry as a number; from Python these raised TypeError or ValueError
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "methods, message",
        [
            ((MethodSpec("ppb", ("cv", "cv")),), "ppb r token 'cv' is given twice"),
            ((MethodSpec("npb", ("1/10",)), MethodSpec("npb", ("cv", "1/10"))), "npb r token '1/10' is given twice"),
            ((MethodSpec("naive"), MethodSpec("naive")), "method 'naive_private' is given twice"),
            ((MethodSpec("bonferroni", private=False),) * 2, "method 'bonferroni_nonprivate' is given twice"),
            ((MethodSpec("semi_naive"), MethodSpec("ppb", ("1/10",)), MethodSpec("semi_naive")),
             "method 'semi_naive' is given twice"),
        ],
        ids=["one-spec", "two-specs", "naive", "bonferroni", "semi_naive"],
    )
    def test_a_repeated_report_row_is_refused(self, methods, message):
        # a repeated row ran twice and was reported once, its first run's draws spent for nothing
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            small_config(methods=methods)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            replace(small_config(), methods=methods)


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
        model="partial_regression", n=2000, epsilons=(20.0,), gamma=(0.5, -0.5)
    ),
}


def model_config(name, **overrides):
    return small_config(
        **{"methods": ALL_METHODS, "reps": 7, "B": 100, "b_inner": 50, **MODEL_CONFIGS[name], **overrides}
    )


def oracle_replication(config, eps_index, rep, study):
    """One replication as the harness ran it one at a time: its own generator,
    a release of one set, and each estimate and draw made once.  Each row is
    its (lower limit, failed draws)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, eps_index, rep)))
    budget = divide_budget(config.epsilons[eps_index], config.split)
    data = harness._generate_data(config, rng, study)
    estimates, draws, results = {}, {}, {}

    def release(private):
        if private not in estimates:
            stats = fold_statistics([data])
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
    return results


def assert_block_matches_oracle(config):
    study = harness._MODELS[config.model].study(config)
    for eps_index in range(len(config.epsilons)):
        block = harness._block_outcomes(config, eps_index, range(config.reps), study)
        for rep in range(config.reps):
            alone = oracle_replication(config, eps_index, rep, study)
            assert list(alone) == list(block)
            for key, outcome in alone.items():
                assert outcome == tuple(a[rep] for a in block[key]), (key, rep)


def test_only_the_method_table_names_a_method():
    # MethodSpec.rows tells how each method becomes report rows, so the
    # block, the checks and the report loop over rows and name no method
    names = {"ppb", "npb", "rppb", "semi_naive", "naive", "bonferroni"}
    table = {"R_METHODS", "BASELINE_METHODS", "MethodSpec", "load_config"}
    named = []
    for top in ast.parse((REPO / "src" / "dpextrema" / "harness.py").read_text()).body:
        defines = {getattr(top, "name", None)} | {getattr(t, "id", None) for t in getattr(top, "targets", ())}
        if not defines & table:  # a class, function or assignment outside the table
            named += [
                f"harness.py:{node.lineno}"
                for node in ast.walk(top)
                if isinstance(node, ast.Constant) and node.value in names
            ]
    assert not named, f"a method named outside its table: {named}"


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


def spy_on_plan(monkeypatch):
    """The blocks of every task that ``run_experiment`` maps, in plan order;
    each block then runs as a stub that reports nothing."""
    blocks = []
    map_blocks = harness._map_blocks

    def spy(tasks, workers):
        blocks.extend(reps for _, _, reps, _ in tasks)
        return map_blocks(tasks, workers)

    monkeypatch.setattr(harness, "_map_blocks", spy)
    monkeypatch.setattr(harness, "_block_outcomes", lambda config, eps_index, reps, study: {})
    return blocks


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
        assert_block_matches_oracle(config)

    def test_replications_with_retried_systems_match_the_oracle(self, monkeypatch):
        retried_by = set()  # the generators whose block draws were retried
        noisy_systems = PrivatizedRegressionEstimate._noisy_systems

        def spy(self, owner, shape, rng, floor, s_eigvals):
            if len(shape) == 1 and self.sizes.size > 1:  # a block's retries
                retried_by.add(rng)
            return noisy_systems(self, owner, shape, rng, floor, s_eigvals)

        monkeypatch.setattr(PrivatizedRegressionEstimate, "_noisy_systems", spy)
        monkeypatch.setattr(harness, "_fixed_design_for", lambda config: collinear_design())
        assert_block_matches_oracle(collinear_config(1e6))
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
        blocks = spy_on_plan(monkeypatch)
        run_experiment(config)
        assert blocks == [range(0, 1), range(1, 2), range(2, 3)]

    def test_a_partial_regression_set_holds_its_design_and_response_alone(self):
        # W is drawn in its old order and added to y as W gamma; the data set,
        # and so a cross-validated block, holds no nuisance column
        config = model_config("partial_regression", n=400, methods=(MethodSpec("ppb", ("cv",)),))
        n, k = config.n, config.k
        data = harness._generate_data(config, np.random.default_rng(5), harness._MODELS[config.model].study(config))
        rng = np.random.default_rng(5)
        groups, treated = rng.integers(0, k, size=n), rng.integers(0, 2, size=n)
        X = np.zeros((n, k))
        X[np.arange(n), groups] = treated
        W = rng.uniform(-1.0, 1.0, (n, len(config.gamma)))
        for s in range(k):
            cell = (groups == s) & (treated == 1)
            W[cell] -= W[cell].mean(axis=0)
        y = X @ np.asarray(config.beta) + W @ np.asarray(config.gamma) + math.sqrt(config.sigma2) * rng.standard_normal(n)
        assert [f.name for f in fields(data)] == ["X", "y", "x_bounds", "y_bounds"]
        assert np.array_equal(data.X, X) and np.array_equal(data.y, y)
        assert harness._replication_values(config) == n * (k + 1) > config.B * k

    @pytest.mark.parametrize("reps, per_block", [(10, 8), (7, 3), (9, 3), (1, 8), (1000, 8), (13, 13)])
    def test_blocks_are_near_equal_and_in_order(self, monkeypatch, reps, per_block):
        config = small_config(reps=reps)
        monkeypatch.setattr(harness, "BLOCK_VALUES", per_block * harness._replication_values(config))
        blocks = spy_on_plan(monkeypatch)
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
        study = harness._MODELS[config.model].study(config)
        harness._block_outcomes(config, 0, range(1), study)  # first-call set-up
        peaks = []
        for reps in (1, 8):
            tracemalloc.start()
            try:
                harness._block_outcomes(config, 0, range(reps), study)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        draws = config.B * config.k * 8  # bytes of one replication's (B, k) draws
        assert peaks[1] - peaks[0] <= 7 * 1.25 * draws
        assert peaks[0] > config.B * config.k**2 * 8

    def test_draws_are_dropped_after_their_last_row(self):
        # ppb's draws are dropped before rppb draws its own, so a block that
        # runs both peaks like one that runs ppb alone (their systems loop)
        config = replace(load_config(REPO / "bench" / "configs" / "regression_k8.ini"), reps=8)
        study = harness._MODELS[config.model].study(config)
        peaks = []
        for methods in ((MethodSpec("ppb", ("1/10",)),), (MethodSpec("ppb", ("1/10",)), MethodSpec("rppb", ("1/10",)))):
            block = replace(config, methods=methods)
            harness._block_outcomes(block, 0, range(1), study)  # first-call set-up
            tracemalloc.start()
            try:
                harness._block_outcomes(block, 0, range(config.reps), study)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.03 * peaks[0]

    def test_single_set_limit_counts_failed_draws_in_b(self):
        # a release of one set on the collinear design: its failed draws are
        # NaN rows among the B requested, so B counts the valid ones
        x = collinear_design()
        rng = np.random.default_rng(4)
        data = RegressionData(
            x, x @ [0.0, 0.5] + rng.standard_normal(x.shape[0]),
            Bounds.symmetric(1.0, 2), Bounds.symmetric(6.0, 1),
        )
        estimate = fold_statistics([data]).release(1e6, rng)
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

    def test_rppb_solves_a_clipped_regression_release_as_released(self, monkeypatch):
        # at n = 800 this k = 8 study clips some of its released grams; a screen
        # of S against the floor of its repair, which clipping raised, failed
        # all 200 draws of every clipped set and aborted the study
        clipped = []
        repair = models.psd_repair_stack

        def spy(matrices):
            result = repair(matrices)
            clipped.append(int((result.shift > 0.0).sum()))
            return result

        monkeypatch.setattr(models, "psd_repair_stack", spy)
        config = replace(
            load_config(REPO / "bench" / "configs" / "regression_k8.ini"),
            n=800, reps=4, B=200, seed=3, methods=(MethodSpec("rppb", ("1/10",)),),
        )
        (row,) = run_experiment(config).rows
        assert sum(clipped) > 0
        assert row.failed_draws == 0 and row.reps == 4

    def test_a_failing_block_runs_once(self, monkeypatch):
        # the block's own error stops the study; the block is not run again
        config = collinear_config(1e7)
        monkeypatch.setattr(harness, "_fixed_design_for", lambda config: collinear_design())
        monkeypatch.setattr(harness, "BLOCK_VALUES", 3 * harness._replication_values(config))
        usable_cpus(monkeypatch, 1)
        calls = []
        block_outcomes = harness._block_outcomes

        def spy(config, eps_index, reps, study):
            calls.append(reps)
            return block_outcomes(config, eps_index, reps, study)

        monkeypatch.setattr(harness, "_block_outcomes", spy)
        with pytest.raises(DegeneracyError):
            run_experiment(config)
        assert calls == [range(0, 3)]


def usable_cpus(monkeypatch, count):
    """Let the harness see ``count`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestThreads:
    """With workers = 1 a study's blocks run on a thread pool of the usable
    CPUs, with the report and the error of a serial run."""

    @pytest.mark.parametrize("config", [
        replace(load_config(REPO / "bench" / "configs" / "regression_k8.ini"), reps=12),
        small_config(epsilons=(0.5, 1.5), reps=7, B=100),
        model_config("partial_regression", methods=(MethodSpec("ppb", ("1/10", "cv")), MethodSpec("naive"))),
    ], ids=["regression_k8", "gaussian_sweep", "partial_regression_cv"])
    def test_threads_change_no_report(self, monkeypatch, config):
        if config.model != "regression":  # 3 blocks of each epsilon
            monkeypatch.setattr(harness, "BLOCK_VALUES", 3 * harness._replication_values(config))
        assert harness._block_size(config) < config.reps
        blocks_ran_on = set()
        block_outcomes = harness._block_outcomes

        def spy(*task):
            blocks_ran_on.add(threading.current_thread() is threading.main_thread())
            return block_outcomes(*task)

        monkeypatch.setattr(harness, "_block_outcomes", spy)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads swap often, more of them than this host may have CPUs
        try:
            for cpus in (1, 2, 3):
                usable_cpus(monkeypatch, cpus)
                reports.append(run_experiment(config))
                assert blocks_ran_on == {cpus == 1}  # inline on one CPU, on pool threads otherwise
                blocks_ran_on.clear()
        finally:
            sys.setswitchinterval(interval)
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        assert harness._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert harness._usable_cpus() == 5

    def test_a_failing_study_raises_the_serial_error_on_threads(self, monkeypatch):
        config = collinear_config(1e7)
        monkeypatch.setattr(harness, "_fixed_design_for", lambda config: collinear_design())
        monkeypatch.setattr(harness, "BLOCK_VALUES", 2 * harness._replication_values(config))
        errors = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(DegeneracyError) as info:
                run_experiment(config)
            errors.append(str(info.value))
        assert errors[1] == errors[0]

    def test_an_earlier_block_that_fails_slowly_raises_its_error(self, monkeypatch):
        # block 0 fails after block 1 has failed; a serial run stops at block 0
        failed = threading.Event()

        def block_outcomes(config, eps_index, reps, study):
            if reps.start == 0:
                failed.wait(timeout=10)
                raise NumericError("block 0")
            failed.set()
            raise DegeneracyError("block 1")

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "_block_outcomes", block_outcomes)
        monkeypatch.setattr(harness, "BLOCK_VALUES", harness._replication_values(small_config()))
        with pytest.raises(NumericError, match="block 0") as info:
            run_experiment(small_config(reps=2))
        assert type(info.value) is NumericError and failed.is_set()

    def test_blocks_not_started_are_cancelled(self, monkeypatch):
        started = []

        def block_outcomes(config, eps_index, reps, study):
            started.append(reps.start)
            if reps.start == 0:
                raise NumericError("block 0")
            time.sleep(0.1)
            return {}

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "_block_outcomes", block_outcomes)
        monkeypatch.setattr(harness, "BLOCK_VALUES", harness._replication_values(small_config()))
        with pytest.raises(NumericError, match="block 0"):
            run_experiment(small_config(reps=10))
        assert 0 in started and len(started) < 10

    def test_no_thread_outlives_a_study(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        run_experiment(small_config(epsilons=(0.5, 1.5), reps=6, B=100))
        assert threading.active_count() == before

    def test_importing_the_package_leaves_multiprocessing_unloaded(self):
        # only a process pool needs it, and loading it costs every run about 1 MB of peak RSS
        code = "import sys, dpextrema.cli; print('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.stdout == "False\n", run.stderr

    @pytest.mark.parametrize("workers, tasks, pool", [(8, 2, 2), (3, 4, 3)])
    def test_a_process_pool_has_at_most_one_worker_per_task(self, monkeypatch, workers, tasks, pool):
        # a fork-started pool forks all its workers up front, whatever the task count
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):  # starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        config = small_config(reps=2 * tasks, B=100, workers=workers)
        monkeypatch.setattr(harness, "BLOCK_VALUES", 2 * harness._replication_values(config))
        report = run_experiment(config)
        assert sizes == [pool]
        assert report == run_experiment(replace(config, workers=1)) and sizes == [pool]

    def test_a_process_pool_after_threads_matches(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        config = small_config(epsilons=(0.5, 1.5), reps=16, B=100)
        threaded = run_experiment(config)
        assert run_experiment(replace(config, workers=2)) == threaded


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
        assert back.find("ppb", "1/10", math.inf) is back.rows[0]

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

    @pytest.mark.parametrize(
        "model, split, released",
        [("gaussian", "0.3, 0.3, 0.4", 2), ("regression", "0.5, 0.5", 3)],
        ids=["gaussian", "regression"],
    )
    def test_split_share_count_is_checked_at_load(self, tmp_path, capsys, model, split, released):
        # one share per statistic that the model releases, refused before any
        # replication runs; a library caller's release still checks it too
        message = f"the budget split has {len(split.split(','))} parts for {released} statistics"
        path = self.write(
            tmp_path,
            f"""
            [experiment]
            model = {model}
            n = 400
            k = 2
            epsilon = 1.5
            seed = 1
            split = {split}

            [methods]
            ppb = 1/10
            """,
        )
        with pytest.raises(ParameterError, match=f"^{message}$"):
            load_config(path)
        out = tmp_path / "report.csv"
        assert cli.main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        data = RegressionData(
            np.eye(4, 2), np.zeros(4), Bounds.symmetric(1.0, 2), Bounds.symmetric(1.0, 1)
        )
        with pytest.raises(ParameterError, match="^the budget split has 2 parts for 3 statistics$"):
            fold_statistics([data]).release((0.5, 0.5), np.random.default_rng(0))

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
            ("n = 100\ndesign = fixed", "^model 'gaussian' does not read design$"),
            ("n = 100\nk_nuisance = 2", "^unknown \\[experiment\\] key 'k_nuisance'$"),
            ("n = 100\ngamma = 0.5, -0.5", "^model 'gaussian' does not read gamma$"),
        ],
        ids=["rep", "bounds_halfwidth", "n", "reps", "duplicate", "cv_grid", "cv_grid-range",
             "cv_grid-order", "B", "alpha", "b_inner", "cv_folds", "bounds_half_width",
             "x_half_width-negative", "x_half_width-inf", "x_half_width-zero", "y_half_width",
             "mu_nuisance", "sigma_diag-nan", "sigma_diag-inf", "sigma_diag-zero",
             "sigma_diag-length", "mu-inf", "beta-nan", "gamma-inf", "sigma2-nan", "sigma2-inf",
             "design-fixed", "k_nuisance", "gamma"],
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
        "model, line, refused",
        [
            ("regression", "gamma = 0.5, -0.5", "gamma"),
            ("regression", "mu = 0, 0", "mu"),
            ("regression", "sigma_diag = 2, 2", "sigma_diag"),
            ("regression", "bounds_half_width = 2", "bounds_half_width"),
            ("partial_regression", "design = fixed", "design"),
            ("partial_regression", "design = resampled", "design"),
            ("partial_regression", "mu = 0, 0", "mu"),
            ("partial_regression", "sigma_diag = 2, 2", "sigma_diag"),
            ("partial_regression", "bounds_half_width = 2", "bounds_half_width"),
            ("partial_regression", "x_half_width = 2", "x_half_width"),
            ("gaussian", "beta = 5, 7", "beta"),
            ("gaussian", "sigma2 = 4", "sigma2"),
            ("gaussian", "x_half_width = 2", "x_half_width"),
            ("gaussian", "y_half_width = 3", "y_half_width"),
            ("gaussian", "design = resampled", "design"),
        ],
    )
    def test_key_another_model_reads_is_refused(self, tmp_path, capsys, model, line, refused):
        message = f"model {model!r} does not read {refused}"
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[experiment]\nmodel = {model}\nn = 400\nk = 2\nepsilon = 1.5\nseed = 1\n{line}\n"
            "\n[methods]\nppb = 1/10\n"
        )
        with pytest.raises(ParameterError, match=f"^{message}$"):
            load_config(path)
        out = tmp_path / "report.csv"
        assert cli.main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "methods, message",
        [
            ("ppb = cv, cv", "ppb r token 'cv' is given twice"),
            ("rppb = 1/10, full, 1/10", "rppb r token '1/10' is given twice"),
        ],
        ids=["cv", "fraction"],
    )
    def test_a_repeated_r_token_is_refused(self, tmp_path, capsys, methods, message):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nmodel = gaussian\nn = 100\nk = 2\nepsilon = 1.5\nseed = 1\n"
            f"\n[methods]\n{methods}\nnaive = both\n"
        )
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            load_config(path)
        out = tmp_path / "report.csv"
        assert cli.main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO)))
def test_every_shipped_config_loads(path):
    assert load_config(path).reps >= 1


def test_readme_lists_every_config_key_and_what_each_model_reads():
    text = (REPO / "README.md").read_text()
    section = text[text.index("## Experiment configs"):text.index("## Reproducibility")]
    table = {
        f.metadata["key"] or f.name: f.metadata["models"]
        for f in fields(ExperimentConfig) if f.metadata["parse"]
    }
    missing = [key for key in table if not re.search(rf"(?im)^{key} *=|`{key}`", section)]
    assert not missing, f"README's Experiment configs section does not name {missing}"
    sentence = section[section.index("Each model reads its own:"):]
    sentence = sentence[len("Each model reads its own:"):sentence.index(". ")]
    listed = {}
    for clause in sentence.split(";"):
        model, *keys = re.findall(r"`(\w+)`", clause)
        listed[model] = set(keys)
    readers = {
        model: {key for key, models in table.items() if models is not None and model in models}
        for model in harness._MODELS
    }
    assert listed == readers
