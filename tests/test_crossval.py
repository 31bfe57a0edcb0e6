import math
from types import SimpleNamespace

import numpy as np
import pytest

from dpextrema.crossval import CVConfig, cv_choose_r
from dpextrema.errors import DegeneracyError, NumericError, ParameterError
from dpextrema.models import (
    GaussianData,
    RegressionData,
    gaussian_private_mle,
    regression_private_mle,
)
from dpextrema.privacy import Bounds, GeneratorStack

from test_harness import collinear_design
from test_models import orthogonal_block, reference_regression_release


def gaussian_data(seed=0, n=200, k=2, mu=(0.0, 0.0)):
    rng = np.random.default_rng(seed)
    x = np.asarray(mu) + rng.standard_normal((n, k))
    return GaussianData(x, Bounds.centered(np.asarray(mu), 3.0))


class TestCvChooseR:
    def test_chosen_r_always_in_grid(self):
        config = CVConfig(b_inner=80)
        for seed in range(5):
            cv = cv_choose_r(gaussian_data(seed=seed), 1.5, np.random.default_rng(seed), config)
            assert cv.chosen_rs[0] in config.grid

    def test_deterministic_under_seed(self):
        data = gaussian_data(seed=3)
        a = cv_choose_r(data, 1.5, np.random.default_rng(21), CVConfig(b_inner=80))
        b = cv_choose_r(data, 1.5, np.random.default_rng(21), CVConfig(b_inner=80))
        assert a.chosen_rs[0] == b.chosen_rs[0]
        assert np.array_equal(a.criteria[0], b.criteria[0])
        assert np.array_equal(a.hs, b.hs)

    def test_single_element_grid(self):
        config = CVConfig(grid=(0.2,), b_inner=60)
        cv = cv_choose_r(gaussian_data(seed=4), 1.5, np.random.default_rng(0), config)
        assert cv.chosen_rs[0] == 0.2

    def test_duplicate_grid_value_ties_exactly_and_breaks_late(self):
        # duplicated r: same shared draws, identical criterion, deterministic
        # tie-break toward the larger index
        config = CVConfig(grid=(0.1, 0.1), b_inner=60)
        cv = cv_choose_r(gaussian_data(seed=5), 1.5, np.random.default_rng(1), config)
        assert cv.criteria[0][0] == cv.criteria[0][1]
        assert cv.chosen_rs[0] == config.grid[1]

    def test_partition_sizes(self):
        data = gaussian_data(seed=6, n=203)
        cv = cv_choose_r(data, 1.5, np.random.default_rng(2), CVConfig(b_inner=60))
        assert cv.sizes[0, 1].sum() == 203
        assert cv.sizes[0, 1].max() - cv.sizes[0, 1].min() <= 1
        assert (cv.sizes[0, 0] + cv.sizes[0, 1] == 203).all()

    def test_budget_views(self):
        # each record lies in v of the 2v fold releases (v - 1 training sets
        # and its held-out fold), so 5-fold CV at epsilon 1.5 costs 7.5
        data = gaussian_data(seed=7)
        cv = cv_choose_r(data, 1.5, np.random.default_rng(3), CVConfig(b_inner=60))
        assert cv.budget == pytest.approx(5 * 1.5)

    def test_zero_noise_budget_views_are_zero(self):
        cv = cv_choose_r(
            gaussian_data(seed=8), math.inf, np.random.default_rng(4), CVConfig(b_inner=60)
        )
        assert cv.budget == 0.0

    @pytest.mark.parametrize("v", [2, 5, 10])
    def test_each_record_lies_in_v_releases(self, v):
        n = 203  # divisible by none of the fold counts
        data = gaussian_data(seed=12, n=n)
        config = CVConfig(folds=v, b_inner=60)
        cv = cv_choose_r(data, 1.5, np.random.default_rng(v), config)
        assert cv.sizes.shape == (1, 2, v) and cv.sizes.sum() == v * n
        estimate = gaussian_private_mle(data, 1.5, np.random.default_rng(0))
        assert cv.budget == v * estimate.ledger.total()
        assert cv_choose_r(data, math.inf, np.random.default_rng(v), config).budget == 0.0

    def test_too_few_observations_rejected(self):
        data = gaussian_data(seed=9, n=8)
        with pytest.raises(ParameterError):
            cv_choose_r(data, 1.5, np.random.default_rng(0), CVConfig(folds=5, b_inner=60))

    def test_regression_fold_too_small_rejected(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, (12, 4))
        y = rng.standard_normal(12)
        data = RegressionData(X, y, Bounds.symmetric(1.0, 4), Bounds.symmetric(5.0, 1))
        with pytest.raises(ParameterError):
            cv_choose_r(data, 1.5, np.random.default_rng(0), CVConfig(folds=3, b_inner=60))

    def test_supports_regression_data(self):
        # 600-row folds: at 60 rows, half of all seeds meet an irreparable
        # fold gram matrix at this budget (see the degenerate case below)
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (3000, 2))
        y = X @ np.array([0.0, 1.0]) + rng.standard_normal(3000)
        data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))
        cv = cv_choose_r(data, 3.0, np.random.default_rng(5), CVConfig(b_inner=60))
        assert cv.chosen_rs[0] in CVConfig().grid

    def test_degenerate_regression_fold_raises(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (300, 2))
        y = X @ np.array([0.0, 1.0]) + rng.standard_normal(300)
        data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))
        with pytest.raises(NumericError):
            cv_choose_r(data, 0.05, np.random.default_rng(5), CVConfig(b_inner=60))

    def test_training_draws_over_the_failure_cap_refused(self):
        # two equal columns: at epsilon 1e7 the noisy systems of a training
        # set sit at the singularity floor and one of its 60 draws fails,
        # above the 1 % that a limit allows; at 1e6 none fails
        X = collinear_design()
        y = X @ [0.0, 0.5] + np.random.default_rng(4).standard_normal(X.shape[0])
        data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(6.0, 1))
        config = CVConfig(b_inner=60)
        assert cv_choose_r(data, 1e6, np.random.default_rng(3), config).chosen_rs[0] in config.grid
        with pytest.raises(DegeneracyError, match="^1 of 60 bootstrap draws failed"):
            cv_choose_r(data, 1e7, np.random.default_rng(3), config)

    def test_supports_nuisance_regression_data(self):
        data = nuisance_regression_data(seed=14, n=2000)
        cv = cv_choose_r(data, 3.0, np.random.default_rng(8), CVConfig(b_inner=60))
        assert cv.chosen_rs[0] in CVConfig().grid
        assert cv.hs.shape == (1, len(CVConfig().grid), CVConfig().folds, data.k)

    def test_supports_partitioned_gaussian(self):
        rng = np.random.default_rng(12)
        x1 = rng.standard_normal((200, 2))
        x2 = rng.standard_normal((200, 3))
        # the interest columns of the joint matrix, as ci --partial 2 reads them
        data = GaussianData(np.hstack([x1, x2])[:, :2], Bounds.symmetric(3.0, 2))
        cv = cv_choose_r(data, 1.5, np.random.default_rng(6), CVConfig(b_inner=60))
        assert cv.chosen_rs[0] in CVConfig().grid

    def test_h_scores_shape(self):
        config = CVConfig(b_inner=60)
        cv = cv_choose_r(gaussian_data(seed=13, k=3, mu=(0, 0, 0)), 1.5, np.random.default_rng(7), config)
        assert cv.hs.shape == (1, len(config.grid), config.folds, 3)

    def test_data_sets_of_different_sizes_rejected(self):
        data_sets = [gaussian_data(seed=1), gaussian_data(seed=2, n=150)]
        rng = GeneratorStack(np.random.default_rng(seed) for seed in (1, 2))
        with pytest.raises(ParameterError, match="one size"):
            cv_choose_r(data_sets, 1.5, rng, CVConfig(b_inner=60))


def nuisance_regression_data(seed, n):
    """Design X with nuisance covariates W orthogonal to it."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    W = orthogonal_block(X, rng.standard_normal((n, 2)))
    y = X @ np.array([0.2, 0.5]) + W @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    return RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(8.0, 1), W)


def _gaussian_case():
    data = gaussian_data(seed=15, mu=(0.3, 0.0))
    return data, lambda idx: gaussian_private_mle(
        GaussianData(data.x[idx], data.bounds), math.inf, np.random.default_rng(0)
    )


def _partitioned_case():
    rng = np.random.default_rng(16)
    joint = np.hstack([rng.standard_normal((200, 2)), rng.standard_normal((200, 3))])
    data = GaussianData(joint[:, :2], Bounds.symmetric(3.0, 2))
    return data, lambda idx: gaussian_private_mle(
        GaussianData(data.x[idx], data.bounds), math.inf, np.random.default_rng(0)
    )


def _regression_case():
    rng = np.random.default_rng(17)
    X = rng.uniform(-1, 1, (300, 2))
    y = X @ np.array([0.0, 1.0]) + rng.standard_normal(300)
    data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))
    return data, lambda idx: regression_private_mle(
        RegressionData(data.X[idx], data.y[idx], data.x_bounds, data.y_bounds),
        math.inf,
        np.random.default_rng(0),
    )


def _nuisance_case():
    data = nuisance_regression_data(seed=18, n=300)

    # a subset of an orthogonal design is not orthogonal, so it is no valid
    # RegressionData; the row-based reference releases it from its rows
    def estimate_subset(idx):
        ref = reference_regression_release(
            data.X[idx], data.y[idx], data.x_bounds, data.y_bounds, math.inf,
            np.random.default_rng(0), data.nuisance[idx],
        )
        variances = ref["sigma2"] * np.diag(np.linalg.inv(ref["S"])) / idx.size
        return SimpleNamespace(
            sizes=np.array([idx.size]), betas=ref["beta"][None], variances=lambda: variances[None]
        )

    return data, estimate_subset


class TestFoldStatisticsReference:
    """Without noise, CV on fold statistics equals estimation on each subset."""

    @pytest.mark.parametrize(
        "case", [_gaussian_case, _partitioned_case, _regression_case, _nuisance_case],
        ids=["gaussian", "partitioned", "regression", "nuisance"],
    )
    def test_fold_estimates_match_subset_estimates(self, case):
        data, estimate_subset = case()
        seed, v = 23, 5
        cv = cv_choose_r(data, math.inf, np.random.default_rng(seed), CVConfig(folds=v, b_inner=60))
        folds = np.array_split(np.random.default_rng(seed).permutation(data.n), v)
        for j in range(v):
            train = estimate_subset(np.sort(np.concatenate(folds[:j] + folds[j + 1:])))
            ref = estimate_subset(np.sort(folds[j]))
            assert tuple(cv.sizes[0, :, j]) == (train.sizes[0], ref.sizes[0])
            np.testing.assert_allclose(cv.betas[0, 0, j], train.betas[0], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(cv.betas[0, 1, j], ref.betas[0], rtol=1e-9, atol=1e-12)
            expected_h = (
                (cv.reduced[0][:, j, None] - ref.betas[0][None, :]) ** 2
                - ref.variances()[0][None, :]
            )
            np.testing.assert_allclose(cv.hs[0][:, j, :], expected_h, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "case, clamped_arrays",
    [(_gaussian_case, 1), (_partitioned_case, 1), (_regression_case, 2), (_nuisance_case, 2)],
    ids=["gaussian", "partitioned", "regression", "nuisance"],
)
def test_estimate_then_cv_clamps_each_array_once(monkeypatch, case, clamped_arrays):
    data, _ = case()
    calls = []
    clamp = Bounds.clamp
    monkeypatch.setattr(Bounds, "clamp", lambda self, x: calls.append(x) or clamp(self, x))
    data.fold_statistics([slice(None)]).release(math.inf, np.random.default_rng(0))
    cv_choose_r(data, math.inf, np.random.default_rng(1), CVConfig(b_inner=60))
    assert len(calls) == clamped_arrays


class TestCVConfig:
    def test_grid_outside_range_rejected(self):
        for grid in [(0.0, 0.1), (0.1, 0.5), (0.6,)]:
            with pytest.raises(ParameterError):
                CVConfig(grid=grid)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ParameterError):
            CVConfig(grid=(0.2, 0.1))

    def test_too_few_folds_rejected(self):
        with pytest.raises(ParameterError):
            CVConfig(folds=1)
