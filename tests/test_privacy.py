import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpextrema.errors import LedgerError, ParameterError
from dpextrema.models import GaussianData, gaussian_private_mle
from dpextrema.privacy import (
    Bounds,
    GeneratorStack,
    LaplaceSpec,
    PrivacyLedger,
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
        draws = LaplaceSpec(scale=1.0, dimension=100_000).sample(rng)
        assert abs(draws.mean()) < 3.0 * 1.0 * math.sqrt(2.0 / 100_000)
        assert abs(draws.var() - 2.0) < 0.05 * 2.0

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        rng = np.random.default_rng(2024)
        b = 1.7
        draws = LaplaceSpec(scale=b, dimension=100_000).sample(rng)
        result = stats.kstest(draws, stats.laplace(scale=b).cdf)
        assert result.pvalue > 0.001

    def test_infinite_epsilon_gives_exact_zeros(self):
        rng = np.random.default_rng(0)
        spec = LaplaceSpec.from_budget(5.0, math.inf, dimension=7)
        assert spec.scale == 0.0
        assert np.array_equal(spec.sample(rng), np.zeros(7))

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
        a = spec.sample(np.random.default_rng(5))
        b = spec.sample(np.random.default_rng(5))
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


def generators(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


class TestGeneratorStack:
    """Each generator of a stack draws exactly what it would draw alone."""

    def test_equal_chunks_come_from_their_own_generators(self):
        stack = GeneratorStack(generators((1, 2, 3)))
        normal = stack.standard_normal((6, 4, 2))
        noise = stack.laplace(0.0, 1.5, (6, 5))
        perms = stack.permutation(9)
        for i, alone in enumerate(generators((1, 2, 3))):
            assert np.array_equal(normal[2 * i : 2 * i + 2], alone.standard_normal((2, 4, 2)))
            assert np.array_equal(noise[2 * i : 2 * i + 2], alone.laplace(0.0, 1.5, (2, 5)))
            assert np.array_equal(perms[i], alone.permutation(9))

    def test_ragged_rows_follow_their_owners(self):
        stack = GeneratorStack(generators((4, 5, 6)))
        owner = np.array([0, 0, 2, 2, 2])
        scales = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        noise = stack.laplace(0.0, scales, owner=owner)
        symmetric = laplace_symmetric_sample(0.5, 3, stack, 5, owner)
        first, second, third = generators((4, 5, 6))
        assert np.array_equal(noise[:2], first.laplace(0.0, scales[:2]))
        assert np.array_equal(noise[2:], third.laplace(0.0, scales[2:]))
        assert np.array_equal(symmetric[:2], laplace_symmetric_sample(0.5, 3, first, 2))
        assert np.array_equal(symmetric[2:], laplace_symmetric_sample(0.5, 3, third, 3))
        # the generator without rows drew nothing
        assert second.random() == np.random.default_rng(5).random()

    def test_a_plain_generator_is_a_stack_of_one(self):
        spec = LaplaceSpec(2.0, 3)
        stacked = spec.sample(GeneratorStack(generators((7,))), (4, 2))
        assert np.array_equal(stacked, spec.sample(np.random.default_rng(7), (4, 2)))
        rng = np.random.default_rng(7)
        assert GeneratorStack.of(rng).generators == (rng,)

    def test_rows_must_split_evenly(self):
        with pytest.raises(ParameterError):
            GeneratorStack(generators((1, 2))).standard_normal((3, 2))


class TestSensitivities:
    def test_sum_unit_box(self):
        assert sensitivity_sum_bounded([0, 0], [1, 1]) == 2.0

    def test_sum_interval_width(self):
        assert sensitivity_sum_bounded([-1], [1]) == 2.0

    def test_sum_rectangular_box_matches_corner_search(self):
        lower, upper = np.array([0.0, 0.0]), np.array([2.0, 3.0])
        delta = sensitivity_sum_bounded(lower, upper)
        assert delta == 5.0
        # brute force: sup of ||x - x'||_1 over the box is attained at corners
        corners = list(itertools.product(*zip(lower, upper)))
        sup = max(
            np.abs(np.array(a) - np.array(b)).sum() for a in corners for b in corners
        )
        assert delta == pytest.approx(sup)

    def test_gram_symmetric_interval(self):
        delta = sensitivity_gram_bounded([-1.0], [1.0])
        assert delta == 2.0
        grid = np.linspace(-1, 1, 201)
        sup = max(abs(x * x - y * y) for x in grid for y in grid)
        assert sup <= delta

    def test_gram_zero_box(self):
        assert sensitivity_gram_bounded([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_gram_unit_square_upper_bounds_grid_search(self):
        lower, upper = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        delta = sensitivity_gram_bounded(lower, upper)
        assert delta == 8.0
        pts = [np.array(c) for c in itertools.product(np.linspace(0, 1, 11), repeat=2)]
        sup = max(
            np.abs(np.outer(a, a) - np.outer(b, b)).sum() for a in pts for b in pts
        )
        assert sup <= delta

    def test_cross_sensitivity(self):
        assert sensitivity_cross_bounded([-1.0, -1.0], [1.0, 1.0], [-2.0], [2.0]) == 2.0 * 2.0 * 2.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ParameterError):
            sensitivity_sum_bounded([1.0], [0.0])

    def test_unbounded_rejected(self):
        with pytest.raises(ParameterError):
            sensitivity_sum_bounded([0.0], [math.inf])

    @pytest.mark.parametrize("epsilon", [1.5, math.inf])
    def test_overflowing_sensitivity_refused_at_every_epsilon(self, epsilon):
        # finite bounds whose gram sensitivity overflows to inf; the zero-noise
        # shortcut of an infinite epsilon must not let it through
        x = np.zeros((10, 2))
        assert sensitivity_gram_bounded([-1e200], [1e200]) == math.inf
        with pytest.raises(ParameterError, match="sensitivity"):
            gaussian_private_mle(GaussianData(x, Bounds.symmetric(1e200, 2)), epsilon, rng=None)


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
        assert forward.total() == backward.total()

    def test_to_dict_carries_the_charges_and_their_sum(self):
        ledger = PrivacyLedger().charge("a", 1.0).charge("b", 0.25)
        assert ledger.to_dict() == {
            "charges": [{"statistic": "a", "epsilon": 1.0}, {"statistic": "b", "epsilon": 0.25}],
            "total_sequential": 1.25,
        }


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
