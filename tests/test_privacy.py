import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpextrema.errors import LedgerError, ParameterError
from dpextrema.models import GaussianData, GaussianStatistics, gaussian_private_mle
from dpextrema.privacy import (
    Bounds,
    GeneratorStack,
    LaplaceSpec,
    PrivacyLedger,
    laplace_scale,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    sensitivity_sum_bounded,
    split_budget,
    symmetric_layout,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "dpextrema"


def symmetric_noise(scale, k, rng, size=()):
    """Symmetric k x k noise as a release draws its gram noise: one record
    draw of the k(k+1)/2 free entries, mirrored by ``symmetric_layout``."""
    index, weights = symmetric_layout(k)
    return np.take(LaplaceSpec(scale, weights.size).sample(rng, size), index, axis=-1)


class TestLaplaceSampling:
    def test_moments_large_sample(self):
        # Laplace(0, b) has mean 0 and variance 2 b^2
        rng = np.random.default_rng(101)
        draws = LaplaceSpec(scale=1.0, dimension=100_000).sample(rng, ())
        assert abs(draws.mean()) < 3.0 * 1.0 * math.sqrt(2.0 / 100_000)
        assert abs(draws.var() - 2.0) < 0.05 * 2.0

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        rng = np.random.default_rng(2024)
        b = 1.7
        draws = LaplaceSpec(scale=b, dimension=100_000).sample(rng, ())
        result = stats.kstest(draws, stats.laplace(scale=b).cdf)
        assert result.pvalue > 0.001

    def test_infinite_epsilon_gives_exact_zeros(self):
        rng = np.random.default_rng(0)
        spec = LaplaceSpec.from_budget(5.0, math.inf, dimension=7)
        assert spec.scale == 0.0
        assert np.array_equal(spec.sample(rng, ()), np.zeros(7))

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
        a = spec.sample(np.random.default_rng(5), ())
        b = spec.sample(np.random.default_rng(5), ())
        assert np.array_equal(a, b)

    def test_symmetric_sample_is_symmetric(self):
        rng = np.random.default_rng(3)
        w = symmetric_noise(1.5, 5, rng)
        assert np.array_equal(w, w.T)
        assert symmetric_noise(0.0, 4, rng).sum() == 0.0

    def test_symmetric_stack_draws_like_single_matrices(self):
        stack = symmetric_noise(1.5, 3, np.random.default_rng(4), size=5)
        assert stack.shape == (5, 3, 3)
        assert np.array_equal(stack, np.swapaxes(stack, 1, 2))
        rng = np.random.default_rng(4)
        assert np.array_equal(stack[0], symmetric_noise(1.5, 3, rng))
        assert symmetric_noise(0.0, 3, rng, size=2).shape == (2, 3, 3)

    @pytest.mark.parametrize(
        "stack, sets", [(False, 1), (False, 4), (True, 4)], ids=["single", "stack-of-one", "stack"]
    )
    def test_symmetric_sample_is_the_gathered_spec_sample(self, stack, sets):
        # a release's gram noise is the same generator calls as one draw of
        # its record's k(k+1)/2 free entries, gathered into matrices, after
        # the sum's draw
        def rng():
            return GeneratorStack(generators((8, 9))) if stack else np.random.default_rng(8)

        zeros = np.zeros((sets, 3, 3))
        statistics = GaussianStatistics(Bounds.symmetric(1.0, 3), np.full(sets, 10), zeros[..., 0], zeros)
        released = statistics.release(2.0, rng())
        sum_noise, gram_noise = released.mechanisms
        ref = rng()
        sum_noise.sample(ref, sets)
        expected = np.take(gram_noise.sample(ref, sets), symmetric_layout(3)[0], axis=-1)
        assert np.array_equal(released.noisy_grams, expected)
        # at scale 0 every generator is left as it was
        drawn = rng()
        states = [g.bit_generator.state for g in GeneratorStack.of(drawn).generators]
        exact = statistics.release(math.inf, drawn).noisy_grams
        assert exact.shape == expected.shape and not exact.any()
        assert [g.bit_generator.state for g in GeneratorStack.of(drawn).generators] == states

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_symmetric_layout_is_the_upper_triangle_in_row_order(self, k):
        # one (..., k(k+1)/2) draw filled into np.triu_indices(k) order and
        # mirrored; a change of triangle order would move every draw
        def reference(rng, lead):
            tri = rng.laplace(0.0, 1.5, (*lead, k * (k + 1) // 2))
            w = np.empty((*lead, k, k))
            for pos, (i, j) in enumerate(zip(*np.triu_indices(k))):
                w[..., i, j] = w[..., j, i] = tri[..., pos]
            return w

        single = symmetric_noise(1.5, k, np.random.default_rng(k))
        assert np.array_equal(single, reference(np.random.default_rng(k), ()))
        stack = symmetric_noise(1.5, k, np.random.default_rng(k), size=5)
        assert np.array_equal(stack, reference(np.random.default_rng(k), (5,)))
        # a stack's triangles, drawn chunk by chunk by their generators and mirrored alike
        stacked = symmetric_noise(1.5, k, GeneratorStack(generators((4, 5, 6))), size=6)
        for i, alone in enumerate(generators((4, 5, 6))):
            assert np.array_equal(stacked[2 * i : 2 * i + 2], reference(alone, (2,)))


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

    def test_a_plain_generator_is_a_stack_of_one(self):
        spec = LaplaceSpec(2.0, 3)
        stacked = spec.sample(GeneratorStack(generators((7,))), (4, 2))
        assert np.array_equal(stacked, spec.sample(np.random.default_rng(7), (4, 2)))
        rng = np.random.default_rng(7)
        assert GeneratorStack.of(rng).generators == (rng,)

    def test_rows_must_split_evenly(self):
        stack = GeneratorStack(generators((1, 2)))
        with pytest.raises(ParameterError):
            stack.standard_normal((3, 2))
        with pytest.raises(ParameterError):
            LaplaceSpec(np.ones(3)).sample(stack, 3)


def test_every_laplace_draw_is_made_in_privacy():
    # LaplaceSpec.sample is the one draw path, so a mechanism that replaces
    # the Laplace draw (a snapping mechanism, say) has one place to change
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "privacy.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "laplace"
    ]
    assert not calls, f"Laplace draws outside privacy.py: {calls}"


class TestMechanismRecord:
    def test_from_budget_records_the_mechanism(self):
        spec = LaplaceSpec.from_budget(3.0, 1.5, 4, "sum")
        assert (spec.name, spec.sensitivity, spec.epsilon, spec.dimension) == ("sum", 3.0, 1.5, 4)
        assert spec.scale == laplace_scale(3.0, 1.5) == 2.0
        # noise given by its scale alone has no sensitivity and spends nothing
        bare = LaplaceSpec(2.0, 3)
        assert bare.sensitivity is None and bare.epsilon == math.inf

    def test_a_sensitivity_per_set_gives_a_scale_per_set(self):
        delta = np.array([1.0, 0.0, 4.0])
        assert np.array_equal(LaplaceSpec.from_budget(delta, 2.0).scale, [0.5, 0.0, 2.0])
        assert np.array_equal(LaplaceSpec.from_budget(delta, math.inf).scale, np.zeros(3))

    @pytest.mark.parametrize("epsilon", [1.5, math.inf])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_a_bad_sensitivity_per_set_is_refused_at_every_epsilon(self, epsilon, bad):
        with pytest.raises(ParameterError, match="sensitivity must be finite and >= 0"):
            LaplaceSpec.from_budget(np.array([1.0, bad]), epsilon)

    @pytest.mark.parametrize("seeds", [(7,), (4, 5, 6)], ids=["plain", "stack"])
    def test_per_set_scales_draw_each_set_from_its_generator(self, seeds):
        # one broadcast draw: each generator fills its equal chunk of sets,
        # each set with its own scale
        scales = np.array([0.5, 1.0, 2.0, 4.0, 3.0, 0.5])
        rng = GeneratorStack(generators(seeds)) if len(seeds) > 1 else np.random.default_rng(seeds[0])
        noise = LaplaceSpec(scales, 2).sample(rng, scales.size)
        assert noise.shape == (6, 2)
        per = scales.size // len(seeds)
        alone = generators(seeds)
        for i, ref in enumerate(alone):
            rows = slice(i * per, (i + 1) * per)
            assert np.array_equal(noise[rows], ref.laplace(0.0, scales[rows, None], (per, 2)))
        after = rng.generators if isinstance(rng, GeneratorStack) else (rng,)
        assert [g.random() for g in after] == [g.random() for g in alone]

    def test_all_zero_per_set_scales_draw_nothing(self):
        rng = np.random.default_rng(8)
        assert np.array_equal(LaplaceSpec(np.zeros(4), 2).sample(rng, 4), np.zeros((4, 2)))
        assert rng.random() == np.random.default_rng(8).random()


class TestSensitivities:
    def test_sum_unit_box(self):
        assert sensitivity_sum_bounded(Bounds([0, 0], [1, 1])) == 2.0

    def test_sum_interval_width(self):
        assert sensitivity_sum_bounded(Bounds([-1], [1])) == 2.0

    def test_sum_rectangular_box_matches_corner_search(self):
        lower, upper = np.array([0.0, 0.0]), np.array([2.0, 3.0])
        delta = sensitivity_sum_bounded(Bounds(lower, upper))
        assert delta == 5.0
        # brute force: sup of ||x - x'||_1 over the box is attained at corners
        corners = list(itertools.product(*zip(lower, upper)))
        sup = max(
            np.abs(np.array(a) - np.array(b)).sum() for a in corners for b in corners
        )
        assert delta == pytest.approx(sup)

    def test_gram_symmetric_interval(self):
        delta = sensitivity_gram_bounded(Bounds([-1.0], [1.0]))
        assert delta == 2.0
        grid = np.linspace(-1, 1, 201)
        sup = max(abs(x * x - y * y) for x in grid for y in grid)
        assert sup <= delta

    def test_gram_zero_box(self):
        assert sensitivity_gram_bounded(Bounds([0.0, 0.0], [0.0, 0.0])) == 0.0

    def test_gram_unit_square_upper_bounds_grid_search(self):
        lower, upper = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        delta = sensitivity_gram_bounded(Bounds(lower, upper))
        assert delta == 8.0
        pts = [np.array(c) for c in itertools.product(np.linspace(0, 1, 11), repeat=2)]
        sup = max(
            np.abs(np.outer(a, a) - np.outer(b, b)).sum() for a in pts for b in pts
        )
        assert sup <= delta

    def test_cross_sensitivity(self):
        delta = sensitivity_cross_bounded(Bounds([-1.0, -1.0], [1.0, 1.0]), Bounds([-2.0], [2.0]))
        assert delta == 2.0 * 2.0 * 2.0

    def test_inverted_bounds_rejected(self):
        # a sensitivity reads a Bounds, which refuses a box it cannot bound
        with pytest.raises(ParameterError, match="lower bound exceeds upper bound"):
            Bounds([1.0], [0.0])

    def test_unbounded_rejected(self):
        with pytest.raises(ParameterError, match="bounds must be finite"):
            Bounds([0.0], [math.inf])

    def test_bounds_forms_equal_the_raw_formulas_bit_for_bit(self):
        # the formulas as they read raw lower/upper vectors, kept as the
        # reference: the Bounds forms must give the same float, inf included
        def reference(lo, up, ylo, yup):
            mx = np.maximum(np.abs(lo), np.abs(up))
            my = float(np.max(np.maximum(np.abs(ylo), np.abs(yup))))
            with np.errstate(over="ignore"):
                return float(np.sum(up - lo)), float(2.0 * np.sum(mx) ** 2), float(2.0 * my * np.sum(mx))

        rng = np.random.default_rng(29)
        overflowed = 0
        for _ in range(400):
            k = int(rng.integers(1, 6))
            lo, up = np.sort(rng.uniform(-1.0, 1.0, (2, k)) * 10.0 ** rng.uniform(-3.0, 308.0, k), axis=0)
            ylo, yup = np.sort(rng.uniform(-1.0, 1.0, (2, 1)) * 10.0 ** rng.uniform(-3.0, 308.0), axis=0)
            x_bounds, y_bounds = Bounds(lo, up), Bounds(ylo, yup)
            got = (
                sensitivity_sum_bounded(x_bounds),
                sensitivity_gram_bounded(x_bounds),
                sensitivity_cross_bounded(x_bounds, y_bounds),
            )
            expected = reference(lo, up, ylo, yup)
            assert [v.hex() for v in got] == [v.hex() for v in expected]
            overflowed += math.inf in expected
        assert overflowed > 0

    @pytest.mark.parametrize("epsilon", [1.5, math.inf])
    def test_overflowing_sensitivity_refused_at_every_epsilon(self, epsilon):
        # finite bounds whose gram sensitivity overflows to inf; the zero-noise
        # shortcut of an infinite epsilon must not let it through
        x = np.zeros((10, 2))
        assert sensitivity_gram_bounded(Bounds([-1e200], [1e200])) == math.inf
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


#: The four privacy entry points that take an epsilon, each with the subject
#: its refusal names.
EPSILON_ENTRY_POINTS = {
    "split_budget-total": (lambda eps: split_budget(eps, 2), "total epsilon"),
    "split_budget-part": (lambda eps: split_budget((eps, 1.0), 2), "every per-statistic epsilon"),
    "laplace_scale": (lambda eps: laplace_scale(1.0, eps), "epsilon"),
    "charge": (lambda eps: PrivacyLedger().charge("x", eps), "epsilon"),
}


@pytest.mark.parametrize("entry", EPSILON_ENTRY_POINTS)
@pytest.mark.parametrize("eps", [None, "1.5", math.nan, 0, -1], ids=["None", "str", "nan", "zero", "negative"])
def test_every_entry_point_refuses_a_bad_epsilon_by_one_rule(entry, eps):
    # one rule, a positive real with inf allowed: a string was read as a
    # number by split_budget, and None raised TypeError
    call, subject = EPSILON_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match=rf"^{subject} must be positive \(inf allowed\)$"):
        call(eps)
