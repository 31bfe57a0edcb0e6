import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpextrema.crossval import CVConfig
from dpextrema.errors import DegeneracyError, ParameterError
from dpextrema.extrema import (
    FULL_CORRECTION,
    _statistic_batch,
    bias_correction,
    bias_reduced_from_draws,
    bonferroni_limits,
    bonferroni_lower_limit,
    correction_factor,
    naive_limits,
    naive_lower_limit,
    ppb_limits,
    ppb_lower_limit,
    quantile,
)
from dpextrema.models import GaussianData, gaussian_private_mle
from dpextrema.privacy import Bounds


def gaussian_estimate(seed=1, n=200, k=2, epsilon=1.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    return gaussian_private_mle(GaussianData(x, Bounds.symmetric(4.0, k)), epsilon, rng)


class TestBiasCorrection:
    def test_r_half_disables_correction(self):
        shifts = bias_correction(np.array([0.3, 0.7]), 0.5, 800)
        assert np.array_equal(shifts, [0.0, 0.0])

    def test_full_correction_is_distance_to_max(self):
        shifts = bias_correction(np.array([0.3, 0.7]), FULL_CORRECTION, 800)
        assert np.allclose(shifts, [0.4, 0.0])
        assert shifts[1] == 0.0

    def test_formula_against_high_precision_oracle(self):
        shifts = bias_correction(np.array([0.3, 0.7]), 1.0 / 10.0, 800)
        with mpmath.workdps(50):
            factor = 1 - mpmath.mpf(800) ** (mpmath.mpf(1) / 10 - mpmath.mpf("0.5"))
            expected = float(factor * mpmath.mpf("0.4"))
        assert shifts[0] == pytest.approx(expected, abs=1e-12)
        assert shifts[0] == pytest.approx(0.37244, abs=5e-5)

    def test_stack_of_estimates_matches_one_at_a_time(self):
        rng = np.random.default_rng(14)
        betas = rng.standard_normal((3, 4))
        r, n = np.array([0.1, 0.5, FULL_CORRECTION]), np.array([50, 400, 9000])
        stacked = bias_correction(betas, r, n)
        assert stacked.shape == (3, 4)
        for f in range(3):
            assert np.array_equal(stacked[f], bias_correction(betas[f], r[f], n[f]))

    @pytest.mark.parametrize("r", [0.0, -0.2, 0.6, math.nan])
    def test_out_of_range_r_rejected(self, r):
        with pytest.raises(ParameterError):
            bias_correction(np.array([0.0, 1.0]), r, 100)

    def test_full_correction_sentinel_accepted_by_factor(self):
        assert correction_factor(FULL_CORRECTION, 800) == 1.0
        assert correction_factor(0.5, 800) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
        ),
        r_pair=st.tuples(
            st.floats(min_value=0.01, max_value=0.5), st.floats(min_value=0.01, max_value=0.5)
        ),
        n=st.integers(min_value=2, max_value=10_000),
    )
    def test_invariants(self, beta, r_pair, n):
        beta = np.asarray(beta)
        r_small, r_big = min(r_pair), max(r_pair)
        s_small = bias_correction(beta, r_small, n)
        s_big = bias_correction(beta, r_big, n)
        for shifts in (s_small, s_big):
            assert np.all(shifts >= 0.0)
            assert shifts[int(np.argmax(beta))] == 0.0
        # componentwise nonincreasing in r
        assert np.all(s_small >= s_big - 1e-15)
        full = bias_correction(beta, FULL_CORRECTION, n)
        assert np.all(full >= s_small - 1e-15)


class TestBootstrapStatistic:
    def test_hand_computed_example(self):
        value = _statistic_batch(np.array([[0.0, 0.0]]), np.array([0.0, 0.4]), 0.7, 100)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(-3.0)
        # brute-force max over coordinates agrees
        assert value[0] == pytest.approx(
            10.0 * max(0.0 + 0.0 - 0.7, 0.0 + 0.4 - 0.7)
        )

    def test_zero_at_the_attained_max(self):
        beta = np.array([0.3, 0.7])
        shifts = bias_correction(beta, 0.5, 400)
        assert _statistic_batch(beta[None, :], shifts, beta.max(), 400)[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_permutation_invariance(self, perm):
        rng = np.random.default_rng(12)
        star = rng.standard_normal(5)
        shifts = np.abs(rng.standard_normal(5))
        base = _statistic_batch(star[None, :], shifts, 0.4, 50)[0]
        p = np.array(perm)
        assert _statistic_batch(star[None, p], shifts[p], 0.4, 50)[0] == base

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            _statistic_batch(np.zeros((1, 3)), np.zeros(2), 0.0, 10)


class TestQuantile:
    def test_order_statistic_convention(self):
        values = np.arange(1.0, 101.0)
        assert quantile(values, 0.95) == 96.0

    def test_constant_vector(self):
        assert quantile(np.full(37, 2.5), 0.3) == 2.5
        assert quantile(np.full(37, 2.5), 0.99) == 2.5

    def test_single_value(self):
        assert quantile([4.2], 0.5) == 4.2

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            quantile([], 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, math.nan])
    def test_bad_level_rejected(self, p):
        with pytest.raises(ParameterError):
            quantile([1.0, 2.0], p)

    def test_matches_sort_oracle_on_random_vectors(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            size = int(rng.integers(1, 200))
            values = rng.standard_normal(size)
            p = float(rng.uniform(0.01, 0.99))
            idx = min(max(math.ceil(p * (size + 1)), 1), size)
            assert quantile(values, p) == sorted(values)[idx - 1]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        p=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_sort_oracle_property(self, values, p):
        idx = min(max(math.ceil(p * (len(values) + 1)), 1), len(values))
        assert quantile(values, p) == sorted(values)[idx - 1]


class TestPpbLowerLimit:
    def test_arithmetic_identity(self):
        est = gaussian_estimate()
        res = ppb_lower_limit(est, 0.1, np.random.default_rng(3), B=500)
        assert res.lower_limit + res.c_alpha / math.sqrt(est.sizes[0]) == pytest.approx(
            est.betas[0].max(), abs=1e-15
        )

    def test_monotone_in_correction_strength(self):
        # same draw set: stronger correction shifts every statistic up,
        # so c_alpha is nondecreasing and the limit nonincreasing
        est = gaussian_estimate(seed=5)
        draws, failed = est.replica_draws(500, np.random.default_rng(8), 1)
        failed = failed.sum(axis=1)
        lower_weak, c_weak = ppb_limits(est.betas, draws, failed, 0.4, est.sizes)
        lower_strong, c_strong = ppb_limits(est.betas, draws, failed, 0.05, est.sizes)
        shifts_weak = bias_correction(est.betas[0], 0.4, est.sizes[0])
        shifts_strong = bias_correction(est.betas[0], 0.05, est.sizes[0])
        assert np.all(shifts_strong >= shifts_weak)
        assert c_strong[0] >= c_weak[0]
        assert lower_strong[0] <= lower_weak[0]

    def test_permutation_equivariance_from_draws(self):
        est = gaussian_estimate(seed=6, k=3)
        draws, failed = est.replica_draws(400, np.random.default_rng(2), 1)
        failed = failed.sum(axis=1)
        base = ppb_limits(est.betas, draws, failed, 0.1, est.sizes)
        perm = np.array([2, 0, 1])
        permuted = ppb_limits(est.betas[:, perm], draws[..., perm], failed, 0.1, est.sizes)
        assert permuted[0][0] == base[0][0]
        assert permuted[1][0] == base[1][0]

    def test_small_b_rejected(self):
        est = gaussian_estimate()
        with pytest.raises(ParameterError):
            ppb_lower_limit(est, 0.1, np.random.default_rng(0), B=99)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, math.nan])
    def test_bad_alpha_rejected(self, alpha):
        est = gaussian_estimate()
        with pytest.raises(ParameterError):
            ppb_lower_limit(est, 0.1, np.random.default_rng(0), alpha=alpha)

    def test_failed_draw_budget(self):
        # failed draws are NaN rows counted in B: 10 of 510 is over 1 %, 5 of
        # 505 is not, and the limit then reads the 500 valid rows alone
        est = gaussian_estimate()
        draws, _ = est.replica_draws(500, np.random.default_rng(1), 1)

        def limits(failed):
            padded = np.concatenate([draws, np.full((1, failed, est.k), np.nan)], axis=1)
            return ppb_limits(est.betas, padded, np.array([failed]), 0.1, est.sizes)

        with pytest.raises(DegeneracyError, match="^10 of 510 bootstrap draws failed"):
            limits(10)
        lower, c_alpha = limits(5)
        shifts = bias_correction(est.betas[0], 0.1, est.sizes[0])
        t = math.sqrt(est.sizes[0]) * ((draws[0] + shifts).max(axis=1) - est.betas[0].max())
        assert c_alpha[0] == quantile(t, 0.95)
        assert lower[0] == est.betas[0].max() - c_alpha[0] / math.sqrt(est.sizes[0])

    def test_position_of_failed_rows_does_not_matter(self):
        # the order statistic sorts NaN rows last, so interleaving them among
        # the draws gives the limits of appending them, bit for bit
        rng = np.random.default_rng(15)
        betas = rng.standard_normal((3, 4))
        valid = betas[:, None, :] + 0.1 * rng.standard_normal((3, 303, 4))
        failed = np.array([0, 1, 3])
        appended = np.full((3, 303, 4), np.nan)
        interleaved = np.full((3, 303, 4), np.nan)
        for f, m in enumerate(failed):
            appended[f, : 303 - m] = valid[f, : 303 - m]
            keep = np.sort(rng.choice(303, 303 - m, replace=False))
            interleaved[f, keep] = valid[f, : 303 - m]
        n = np.array([100, 200, 300])
        for r in (0.1, FULL_CORRECTION):
            at_end = ppb_limits(betas, appended, failed, r, n)
            mixed = ppb_limits(betas, interleaved, failed, r, n)
            assert np.array_equal(at_end[0], mixed[0])
            assert np.array_equal(at_end[1], mixed[1])

    def test_method_tags(self):
        est = gaussian_estimate()
        rng = np.random.default_rng(4)
        assert ppb_lower_limit(est, 0.1, rng, B=100).method == "ppb"
        assert ppb_lower_limit(est, 0.5, rng, B=100).method == "semi_naive"
        assert ppb_lower_limit(est, 0.1, rng, B=100, privacy_noise=False).method == "rppb"

    def test_deterministic_given_seed(self):
        est = gaussian_estimate()
        r1 = ppb_lower_limit(est, 0.1, np.random.default_rng(42), B=300)
        r2 = ppb_lower_limit(est, 0.1, np.random.default_rng(42), B=300)
        assert r1 == r2


class TestBaselines:
    def test_naive_single_mean_nominal_coverage(self):
        # eps = inf, k = 1: the textbook one-sided z-interval covers ~95%
        covered = 0
        reps = 1000
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(909, spawn_key=(rep,)))
            x = rng.standard_normal((800, 1))
            est = gaussian_private_mle(GaussianData(x, Bounds.symmetric(4.0, 1)), math.inf, rng)
            res = naive_lower_limit(est, private=False)
            covered += res.lower_limit <= 0.0
        se = math.sqrt(0.95 * 0.05 / reps)
        assert abs(covered / reps - 0.95) < 3 * se

    def test_bonferroni_reduces_to_naive_for_one_coordinate(self):
        est = gaussian_estimate(k=1)
        naive = naive_lower_limit(est, private=True)
        bonf = bonferroni_lower_limit(est, private=True)
        assert bonf.lower_limit == naive.lower_limit

    def test_bonferroni_not_above_naive(self):
        est = gaussian_estimate(k=3, seed=9)
        assert (
            bonferroni_lower_limit(est, private=True).lower_limit
            <= naive_lower_limit(est, private=True).lower_limit
        )

    def test_naive_identity_bookkeeping(self):
        est = gaussian_estimate()
        res = naive_lower_limit(est, private=True)
        assert res.lower_limit + res.c_alpha / math.sqrt(est.sizes[0]) == pytest.approx(
            est.betas[0].max(), abs=1e-14
        )
        assert res.method == "naive_private"
        assert res.B is None

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_normal_quantiles_match_scipy(self, alpha):
        # zero estimates with unit variances put each limit at -z
        for k in range(1, 65):
            betas, variances, n = np.zeros((1, k)), np.ones((1, k)), np.array([1])
            naive, _ = naive_limits(betas, variances, n, alpha)
            bonferroni, _ = bonferroni_limits(betas, variances, n, alpha)
            assert -naive[0] == pytest.approx(stats.norm.ppf(1.0 - alpha), rel=1e-14, abs=0)
            assert -bonferroni[0] == pytest.approx(stats.norm.ppf(1.0 - alpha / k), rel=1e-14, abs=0)


class TestBiasReducedEstimate:
    def test_single_coordinate_near_identity(self):
        # no selection with one coordinate: the reduction term is the (near
        # zero) single-mean bootstrap bias
        est = gaussian_estimate(k=1, n=400, epsilon=math.inf)
        draws, _ = est.replica_draws(400, np.random.default_rng(3), 1)
        value = bias_reduced_from_draws(est.betas[0], draws[0], 0.1, est.sizes[0])
        mc_se = math.sqrt(float(est.repairs.matrix[0, 0, 0]) / est.sizes[0] / 400)
        assert abs(value - float(est.betas[0, 0])) <= 3 * mc_se

    def test_reduces_selection_bias_at_tied_means(self):
        # mu = (0, 0): the plug-in max is biased up; the reduced estimate
        # should be closer to 0 on average
        reps = 1000
        raw = np.empty(reps)
        reduced = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(404, spawn_key=(rep,)))
            x = rng.standard_normal((800, 2))
            est = gaussian_private_mle(
                GaussianData(x, Bounds.symmetric(3.0, 2)), 1.5, rng
            )
            raw[rep] = est.betas[0].max()
            draws, _ = est.replica_draws(200, rng, 1)
            reduced[rep] = bias_reduced_from_draws(est.betas, draws, 0.1, est.sizes)[0]
        assert abs(reduced.mean()) < abs(raw.mean())

    def test_deterministic(self):
        est = gaussian_estimate()
        v1, v2 = (
            bias_reduced_from_draws(
                est.betas, est.replica_draws(200, np.random.default_rng(11), 1)[0], 0.1, est.sizes
            )
            for _ in range(2)
        )
        assert np.array_equal(v1, v2)

    def test_small_b_inner_rejected(self):
        # cross-validation, the one caller, takes its inner draw count from CVConfig
        with pytest.raises(ParameterError, match="^b_inner must be >= 50"):
            CVConfig(b_inner=49)

    def test_stacked_call_matches_one_estimate_at_a_time(self):
        rng = np.random.default_rng(12)
        beta = rng.standard_normal((3, 4))
        draws = beta[:, None, :] + 0.1 * rng.standard_normal((3, 70, 4))
        n = np.array([90.0, 120.0, 400.0])
        grid = np.array([1 / 30, 0.2, 0.5, FULL_CORRECTION])
        stacked = bias_reduced_from_draws(beta, draws, grid, n)
        assert stacked.shape == (4, 3)
        for l, r in enumerate(grid):
            for f in range(3):
                one = bias_reduced_from_draws(beta[f], draws[f], r, int(n[f]))
                assert isinstance(one, float)
                assert stacked[l, f] == pytest.approx(one, rel=1e-14, abs=1e-14)

    def test_nan_rows_are_left_out(self):
        rng = np.random.default_rng(13)
        beta = rng.standard_normal(3)
        draws = beta + 0.1 * rng.standard_normal((60, 3))
        padded = np.vstack([draws, np.full((5, 3), np.nan)])
        assert bias_reduced_from_draws(beta, padded, 0.1, 200) == pytest.approx(
            bias_reduced_from_draws(beta, draws, 0.1, 200), rel=1e-14
        )
