import math

import numpy as np
import pytest

from dpextrema.crossval import CVConfig, cv_choose_r
from dpextrema.errors import NumericError, ParameterError
from dpextrema.models import (
    GaussianData,
    RegressionData,
    gaussian_private_mle,
    regression_private_mle,
)
from dpextrema.partial import NuisanceRegressionData, PartitionedGaussianData
from dpextrema.privacy import Bounds


def gaussian_data(seed=0, n=200, k=2, mu=(0.0, 0.0)):
    rng = np.random.default_rng(seed)
    x = np.asarray(mu) + rng.standard_normal((n, k))
    return GaussianData(x, Bounds.centered(np.asarray(mu), 3.0))


class TestCvChooseR:
    def test_chosen_r_always_in_grid(self):
        config = CVConfig(b_inner=80)
        for seed in range(5):
            cv = cv_choose_r(gaussian_data(seed=seed), 1.5, np.random.default_rng(seed), config)
            assert cv.chosen_r in config.grid

    def test_deterministic_under_seed(self):
        data = gaussian_data(seed=3)
        a = cv_choose_r(data, 1.5, np.random.default_rng(21), CVConfig(b_inner=80))
        b = cv_choose_r(data, 1.5, np.random.default_rng(21), CVConfig(b_inner=80))
        assert a.chosen_r == b.chosen_r
        assert np.array_equal(a.criterion, b.criterion)
        assert np.array_equal(a.h, b.h)

    def test_single_element_grid(self):
        config = CVConfig(grid=(0.2,), b_inner=60)
        cv = cv_choose_r(gaussian_data(seed=4), 1.5, np.random.default_rng(0), config)
        assert cv.chosen_r == 0.2

    def test_duplicate_grid_value_ties_exactly_and_breaks_late(self):
        # duplicated r: same shared draws, identical criterion, deterministic
        # tie-break toward the larger index
        config = CVConfig(grid=(0.1, 0.1), b_inner=60)
        cv = cv_choose_r(gaussian_data(seed=5), 1.5, np.random.default_rng(1), config)
        assert cv.criterion[0] == cv.criterion[1]
        assert cv.chosen_r == config.grid[1]

    def test_partition_sizes(self):
        data = gaussian_data(seed=6, n=203)
        cv = cv_choose_r(data, 1.5, np.random.default_rng(2), CVConfig(b_inner=60))
        assert sum(cv.fold_sizes) == 203
        assert max(cv.fold_sizes) - min(cv.fold_sizes) <= 1
        for fold in cv.per_fold:
            assert fold["train_n"] + fold["ref_n"] == 203

    def test_budget_views(self):
        data = gaussian_data(seed=7)
        cv = cv_choose_r(data, 1.5, np.random.default_rng(3), CVConfig(b_inner=60))
        # one estimation run spends the full per-run budget; the worst case
        # charges all 2v fold estimations sequentially
        assert cv.budget_parallel_view == pytest.approx(1.5)
        assert cv.budget_sequential_view == pytest.approx(2 * 5 * 1.5)

    def test_zero_noise_budget_views_are_zero(self):
        cv = cv_choose_r(
            gaussian_data(seed=8), math.inf, np.random.default_rng(4), CVConfig(b_inner=60)
        )
        assert cv.budget_parallel_view == 0.0
        assert cv.budget_sequential_view == 0.0

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
        assert cv.chosen_r in CVConfig().grid

    def test_degenerate_regression_fold_raises(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (300, 2))
        y = X @ np.array([0.0, 1.0]) + rng.standard_normal(300)
        data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))
        with pytest.raises(NumericError):
            cv_choose_r(data, 0.05, np.random.default_rng(5), CVConfig(b_inner=60))

    def test_supports_nuisance_regression_data(self):
        data = nuisance_regression_data(seed=14, n=2000)
        cv = cv_choose_r(data, 3.0, np.random.default_rng(8), CVConfig(b_inner=60))
        assert cv.chosen_r in CVConfig().grid
        assert cv.h.shape == (len(CVConfig().grid), CVConfig().folds, data.k1)

    def test_supports_partitioned_gaussian(self):
        rng = np.random.default_rng(12)
        x1 = rng.standard_normal((200, 2))
        x2 = rng.standard_normal((200, 3))
        data = PartitionedGaussianData(x1, x2, Bounds.symmetric(3.0, 2))
        cv = cv_choose_r(data, 1.5, np.random.default_rng(6), CVConfig(b_inner=60))
        assert cv.chosen_r in CVConfig().grid

    def test_h_scores_shape(self):
        config = CVConfig(b_inner=60)
        cv = cv_choose_r(gaussian_data(seed=13, k=3, mu=(0, 0, 0)), 1.5, np.random.default_rng(7), config)
        assert cv.h.shape == (len(config.grid), config.folds, 3)


def nuisance_regression_data(seed, n):
    """Interest design Z with nuisance covariates X orthogonal to it."""
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-1, 1, (n, 2))
    x = rng.standard_normal((n, 2))
    X = x - Z @ np.linalg.solve(Z.T @ Z, Z.T @ x)
    y = Z @ np.array([0.2, 0.5]) + X @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    return NuisanceRegressionData(Z, X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(8.0, 1))


def _gaussian_case():
    data = gaussian_data(seed=15, mu=(0.3, 0.0))
    return data, lambda idx: gaussian_private_mle(
        GaussianData(data.x[idx], data.bounds), math.inf, np.random.default_rng(0)
    )


def _partitioned_case():
    rng = np.random.default_rng(16)
    data = PartitionedGaussianData(
        rng.standard_normal((200, 2)), rng.standard_normal((200, 3)), Bounds.symmetric(3.0, 2)
    )
    return data, lambda idx: gaussian_private_mle(
        GaussianData(data.x1[idx], data.bounds), math.inf, np.random.default_rng(0)
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
    # a subset of an orthogonal design is not orthogonal; the estimator
    # still uses only its statistics, which is what CV reproduces
    return data, lambda idx: regression_private_mle(
        NuisanceRegressionData(
            data.Z[idx], data.X[idx], data.y[idx], data.z_bounds, data.y_bounds,
            orthogonality_tolerance=math.inf,
        ),
        math.inf,
        np.random.default_rng(0),
    )


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
        for j, fold in enumerate(cv.per_fold):
            train = estimate_subset(np.sort(np.concatenate(folds[:j] + folds[j + 1:])))
            ref = estimate_subset(np.sort(folds[j]))
            assert (fold["train_n"], fold["ref_n"]) == (train.n, ref.n)
            np.testing.assert_allclose(fold["train_beta"], train.beta_priv, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(fold["ref_beta"], ref.beta_priv, rtol=1e-9, atol=1e-12)
            expected_h = (
                (np.asarray(fold["reduced_max"])[:, None] - ref.beta_priv[None, :]) ** 2
                - ref.coordinate_variances()[None, :]
            )
            np.testing.assert_allclose(cv.h[:, j, :], expected_h, rtol=1e-9, atol=1e-12)


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
