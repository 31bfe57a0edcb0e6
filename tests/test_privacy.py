import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpextrema.errors import LedgerError, ParameterError
from dpextrema.privacy import (
    Bounds,
    LaplaceSpec,
    PrivacyLedger,
    laplace_sample,
    laplace_scale,
    laplace_symmetric_sample,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    sensitivity_sum_bounded,
    split_budget,
)


class TestLaplaceSampling:
    def test_moments_large_sample(self):
        # Laplace(0, b) has mean 0 and variance 2 b^2
        rng = np.random.default_rng(101)
        draws = laplace_sample(LaplaceSpec(scale=1.0, dimension=100_000), rng)
        assert abs(draws.mean()) < 3.0 * 1.0 * math.sqrt(2.0 / 100_000)
        assert abs(draws.var() - 2.0) < 0.05 * 2.0

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        rng = np.random.default_rng(2024)
        b = 1.7
        draws = laplace_sample(LaplaceSpec(scale=b, dimension=100_000), rng)
        result = stats.kstest(draws, stats.laplace(scale=b).cdf)
        assert result.pvalue > 0.001

    def test_infinite_epsilon_gives_exact_zeros(self):
        rng = np.random.default_rng(0)
        spec = LaplaceSpec.from_budget(5.0, math.inf, dimension=7)
        assert spec.scale == 0.0
        assert np.array_equal(laplace_sample(spec, rng), np.zeros(7))

    def test_scale_from_budget(self):
        assert LaplaceSpec.from_budget(2.0, 0.5).scale == 4.0
        assert laplace_scale(2.0, 0.5) == 4.0

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_invalid_scale_rejected(self, scale):
        with pytest.raises(ParameterError):
            LaplaceSpec(scale=scale)

    def test_invalid_epsilon_rejected(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError):
                laplace_scale(1.0, eps)

    def test_determinism(self):
        spec = LaplaceSpec(scale=2.0, dimension=10)
        a = laplace_sample(spec, np.random.default_rng(5))
        b = laplace_sample(spec, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_symmetric_sample_is_symmetric(self):
        rng = np.random.default_rng(3)
        w = laplace_symmetric_sample(1.5, 5, rng)
        assert np.array_equal(w, w.T)
        assert laplace_symmetric_sample(0.0, 4, rng).sum() == 0.0

    def test_symmetric_stack_draws_like_single_matrices(self):
        stack = laplace_symmetric_sample(1.5, 3, np.random.default_rng(4), size=5)
        assert stack.shape == (5, 3, 3)
        assert np.array_equal(stack, np.swapaxes(stack, 1, 2))
        rng = np.random.default_rng(4)
        assert np.array_equal(stack[0], laplace_symmetric_sample(1.5, 3, rng))
        assert laplace_symmetric_sample(0.0, 3, rng, size=2).shape == (2, 3, 3)


class TestSensitivities:
    def test_sum_unit_box(self):
        assert sensitivity_sum_bounded([0, 0], [1, 1]).delta == 2.0

    def test_sum_interval_width(self):
        assert sensitivity_sum_bounded([-1], [1]).delta == 2.0

    def test_sum_rectangular_box_matches_corner_search(self):
        lower, upper = np.array([0.0, 0.0]), np.array([2.0, 3.0])
        spec = sensitivity_sum_bounded(lower, upper)
        assert spec.delta == 5.0
        # brute force: sup of ||x - x'||_1 over the box is attained at corners
        corners = list(itertools.product(*zip(lower, upper)))
        sup = max(
            np.abs(np.array(a) - np.array(b)).sum() for a in corners for b in corners
        )
        assert spec.delta == pytest.approx(sup)

    def test_gram_symmetric_interval(self):
        spec = sensitivity_gram_bounded([-1.0], [1.0])
        assert spec.delta == 2.0
        grid = np.linspace(-1, 1, 201)
        sup = max(abs(x * x - y * y) for x in grid for y in grid)
        assert sup <= spec.delta

    def test_gram_zero_box(self):
        assert sensitivity_gram_bounded([0.0, 0.0], [0.0, 0.0]).delta == 0.0

    def test_gram_unit_square_upper_bounds_grid_search(self):
        lower, upper = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        spec = sensitivity_gram_bounded(lower, upper)
        assert spec.delta == 8.0
        pts = [np.array(c) for c in itertools.product(np.linspace(0, 1, 11), repeat=2)]
        sup = max(
            np.abs(np.outer(a, a) - np.outer(b, b)).sum() for a in pts for b in pts
        )
        assert sup <= spec.delta

    def test_cross_sensitivity(self):
        spec = sensitivity_cross_bounded([-1.0, -1.0], [1.0, 1.0], [-2.0], [2.0])
        assert spec.delta == 2.0 * 2.0 * 2.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ParameterError):
            sensitivity_sum_bounded([1.0], [0.0])

    def test_unbounded_rejected(self):
        with pytest.raises(ParameterError):
            sensitivity_sum_bounded([0.0], [math.inf])


class TestBounds:
    def test_clamp(self):
        b = Bounds([-1.0, 0.0], [1.0, 2.0])
        x = np.array([[5.0, -3.0], [0.5, 1.0]])
        clamped = b.clamp(x)
        assert np.array_equal(clamped, [[1.0, 0.0], [0.5, 1.0]])

    def test_widths_and_magnitudes(self):
        b = Bounds([-1.0, 0.0], [2.0, 3.0])
        assert np.array_equal(b.widths, [3.0, 3.0])
        assert np.array_equal(b.magnitudes, [2.0, 3.0])

    def test_centered(self):
        b = Bounds.centered([0.0, 1.0], 3.0)
        assert np.array_equal(b.lower, [-3.0, -2.0])
        assert np.array_equal(b.upper, [3.0, 4.0])


class TestLedger:
    def test_sequential_total(self):
        ledger = PrivacyLedger().charge("stat1", 1.0).charge("stat2", 0.5)
        assert ledger.total() == 1.5

    def test_empty_total(self):
        assert PrivacyLedger().total() == 0.0

    def test_parallel_total_of_equal_fold_charges(self):
        ledger = PrivacyLedger(regime="parallel")
        for j in range(5):
            ledger = ledger.charge(f"fold{j}", 0.3)
        assert ledger.total() == 0.3

    def test_double_charge_rejected(self):
        ledger = PrivacyLedger().charge("stat", 1.0)
        with pytest.raises(LedgerError):
            ledger.charge("stat", 0.5)

    def test_infinite_epsilon_not_logged(self):
        ledger = PrivacyLedger().charge("stat", math.inf)
        assert ledger.charges == ()
        assert ledger.total() == 0.0

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            PrivacyLedger().charge("stat", 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=8))
    def test_sequential_total_order_independent(self, epsilons):
        forward = PrivacyLedger()
        backward = PrivacyLedger()
        for i, eps in enumerate(epsilons):
            forward = forward.charge(f"s{i}", eps)
        for i, eps in reversed(list(enumerate(epsilons))):
            backward = backward.charge(f"s{i}", eps)
        assert forward.total_sequential() == backward.total_sequential()

    def test_views_exposed_for_both_regimes(self):
        ledger = PrivacyLedger().charge("a", 1.0).charge("b", 0.25)
        assert ledger.total_sequential() == 1.25
        assert ledger.total_parallel() == 1.0
        assert ledger.to_dict()["total_sequential"] == 1.25


class TestSplitBudget:
    def test_equal_split_of_total(self):
        assert split_budget(1.5, 2) == (0.75, 0.75)
        assert split_budget(1.5, 3) == (0.5, 0.5, 0.5)

    def test_infinite_total(self):
        assert split_budget(math.inf, 3) == (math.inf,) * 3

    def test_explicit_parts(self):
        assert split_budget((1.0, 0.5), 2) == (1.0, 0.5)

    def test_wrong_count_rejected(self):
        with pytest.raises(ParameterError):
            split_budget((1.0,), 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            split_budget(0.0, 2)
        with pytest.raises(ParameterError):
            split_budget((1.0, -0.5), 2)
