import math
from types import SimpleNamespace

import numpy as np
import pytest

from dpextrema.crossval import CVConfig, cv_choose_r
from dpextrema.errors import DegeneracyError, NumericError, ParameterError
from dpextrema.models import (
    GaussianData,
    RegressionData,
    fold_statistics,
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
        with pytest.raises(ParameterError, match="^a fold is too small for the model estimator$"):
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
        with pytest.raises(ParameterError, match="one class, size, width and box"):
            cv_choose_r(data_sets, 1.5, rng, CVConfig(b_inner=60))


def nuisance_regression_data(seed, n):
    """Design X, with the fit of nuisance covariates W orthogonal to it left in y."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    W = orthogonal_block(X, rng.standard_normal((n, 2)))
    y = X @ np.array([0.2, 0.5]) + W @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    return RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(8.0, 1))


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

    # the row-based reference releases each subset from its rows
    def estimate_subset(idx):
        ref = reference_regression_release(
            data.X[idx], data.y[idx], data.x_bounds, data.y_bounds, math.inf, np.random.default_rng(0)
        )
        variances = ref["sigma2"] * np.diag(np.linalg.inv(ref["S"])) / idx.size
        return SimpleNamespace(
            sizes=np.array([idx.size]), betas=ref["beta"][None], variances=lambda: variances[None]
        )

    return data, estimate_subset


def per_fold_reference(data_sets, perms, v):
    """The per-set, per-fold loop that the block path replaced, kept as the
    reference: each set's folds from ``np.array_split`` of its row order, each
    fold's statistics from its own gather.  One dict per fold, set by set."""
    rows = []
    for d, perm in zip(data_sets, perms):
        for f in np.array_split(perm, v):
            if isinstance(d, GaussianData):
                p = d.bounds.clamp(d.x)[f]
                rows.append({"n": p.shape[0], "sums": p.sum(axis=0), "grams": p.T @ p})
                continue
            x, t = d.x_bounds.clamp(d.X)[f], d.y_bounds.clamp(d.y)[f]
            rows.append({"n": t.size, "xtx": x.T @ x, "xty": x.T @ t, "yty": t @ t})
    return rows


def plain_regression_data(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = X @ np.array([0.0, 1.0]) + 3.0 * rng.standard_normal(n)  # some responses clamp
    return RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))


class TestBlockFoldStatistics:
    """One gather per fold across the block gives each set's per-fold statistics bit for bit."""

    @pytest.mark.parametrize("n", [800, 803], ids=["equal-folds", "unequal-folds"])
    @pytest.mark.parametrize("sets", [1, 3])
    @pytest.mark.parametrize(
        "make",
        [lambda seed, n: gaussian_data(seed=seed, n=n), plain_regression_data, nuisance_regression_data],
        ids=["gaussian", "regression", "nuisance"],
    )
    def test_matches_the_per_set_per_fold_loop(self, make, sets, n):
        v = 5
        data_sets = [make(40 + i, n) for i in range(sets)]
        perms = np.stack([np.random.default_rng(i).permutation(n) for i in range(sets)])
        block = fold_statistics(data_sets, v, perms)
        reference = per_fold_reference(data_sets, perms, v)
        assert block.n.shape == (sets * v,)
        for name, first in reference[0].items():
            got = getattr(block, name)
            assert got.shape[1:] == np.shape(first), name
            for row, want in zip(got, reference):
                assert [float(a).hex() for a in np.ravel(row)] == [
                    float(a).hex() for a in np.ravel(want[name])
                ], name

    def test_without_row_orders_a_set_is_one_fold_in_order(self):
        data = nuisance_regression_data(seed=19, n=803)
        whole = fold_statistics([data])
        (reference,) = per_fold_reference([data], [np.arange(data.n)], 1)
        for name, want in reference.items():
            assert np.array_equal(getattr(whole, name)[0], want), name

    def test_the_smallest_fold_decides(self):
        # 14 rows in 3 folds are 5, 5 and 4 rows, and 4 rows leave k = 4
        # coefficients no residual degree of freedom
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, (14, 4))
        data = RegressionData(X, rng.standard_normal(14), Bounds.symmetric(1.0, 4), Bounds.symmetric(5.0, 1))
        assert tuple(fold_statistics([data], 3, rng.permutation(14)[None]).n) == (5, 5, 4)
        with pytest.raises(ParameterError, match="^a fold is too small for the model estimator$"):
            cv_choose_r(data, 1e6, np.random.default_rng(0), CVConfig(folds=3, b_inner=60))


    @pytest.mark.parametrize(
        "other",
        [
            lambda data: RegressionData(data.X, data.y, Bounds.symmetric(2.0, 2), data.y_bounds),
            lambda data: RegressionData(data.X, data.y, data.x_bounds, Bounds.symmetric(9.0, 1)),
            # the magnitudes that calibrate the noise are the first set's, the clamp is not
            lambda data: RegressionData(data.X, data.y, Bounds(-np.ones(2), np.full(2, 0.5)), data.y_bounds),
            lambda data: RegressionData(data.X[:, :1], data.y, Bounds.symmetric(1.0, 1), data.y_bounds),
            lambda data: gaussian_data(seed=41, n=data.n),
            lambda data: nuisance_regression_data(41, data.n + 1),
        ],
        ids=["x-box", "y-box", "x-box-of-one-magnitude", "width", "class", "size"],
    )
    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_sets_of_one_stack_share_their_layout(self, other, first):
        # one release calibrates its noise to the first set's box, and the
        # statistics of sets of unlike shape cannot stack
        data = nuisance_regression_data(40, 200)
        pair = [data, other(data)] if first else [other(data), data]
        with pytest.raises(ParameterError, match="one class, size, width and box"):
            fold_statistics(pair)
        with pytest.raises(ParameterError, match="one class, size, width and box"):
            cv_choose_r(pair, 1.5, GeneratorStack(np.random.default_rng(s) for s in (1, 2)), CVConfig(b_inner=60))

    def test_equal_boxes_of_distinct_objects_stack(self):
        data = nuisance_regression_data(40, 200)
        copy = RegressionData(data.X, data.y, Bounds.symmetric(1.0, 2), Bounds.symmetric(8.0, 1))
        assert fold_statistics([data, copy]).n.tolist() == [200, 200]


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
    fold_statistics([data]).release(math.inf, np.random.default_rng(0))
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
