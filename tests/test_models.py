import ast
import dataclasses
import math
import weakref
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from dpextrema.crossval import CVConfig, cv_choose_r
from dpextrema.errors import NumericError, ParameterError
from dpextrema.linalg import RepairResult, psd_floor, psd_repair, psd_repair_stack, sym_sqrt
from dpextrema.models import (
    _CERTIFY_MARGIN,
    SIGMA2_FLOOR,
    GaussianData,
    GaussianStatistics,
    PrivatizedGaussianEstimate,
    PrivatizedRegressionEstimate,
    RegressionData,
    RegressionStatistics,
    fold_statistics,
    gaussian_private_mle,
    regression_private_mle,
)
from dpextrema.privacy import (
    Bounds,
    GeneratorStack,
    LaplaceSpec,
    PrivacyLedger,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    split_budget,
    symmetric_layout,
)

WIDE = 5.0  # box that never clips the small test datasets below
ONE_LAYOUT = "^the data sets of one stack need one class, size, width and box$"
SRC = Path(__file__).resolve().parents[1] / "src" / "dpextrema"


def make_gaussian(rng, n=40, k=3, half_width=WIDE):
    x = rng.uniform(-2.0, 2.0, (n, k))
    return GaussianData(x, Bounds.symmetric(half_width, k))


def make_regression(rng, n=60, k=3, beta=None, noise=1.0):
    X = rng.uniform(-1.0, 1.0, (n, k))
    beta = np.arange(1.0, k + 1.0) if beta is None else np.asarray(beta)
    y = X @ beta + noise * rng.standard_normal(n)
    y_hw = float(np.abs(beta).sum() + 6.0 * max(noise, 1.0))
    return RegressionData(X, y, Bounds.symmetric(1.0, k), Bounds.symmetric(y_hw, 1))


class TestLinalgHelpers:
    def test_repair_noop_on_psd(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        rep = psd_repair(m)
        assert rep.shift == 0.0 and not rep.degenerate
        assert np.array_equal(rep.matrix, m)

    def test_repair_lifts_negative_eigenvalue(self):
        m = np.array([[1.0, 0.0], [0.0, -0.05]])
        rep = psd_repair(m)
        eigvals = np.linalg.eigvalsh(rep.matrix)
        assert eigvals.min() >= rep.floor * (1 - 1e-12)
        assert rep.shift == pytest.approx(0.05 + rep.floor, rel=1e-6)

    def test_repair_flags_degenerate_shift(self):
        m = np.array([[1.0, 0.0], [0.0, -0.5]])  # needs a 50%-of-trace shift
        assert psd_repair(m).degenerate

    def test_stack_repair_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3, 3))
        shifts = np.array([0.0, 0.5, 2.0, 0.0, 8.0, 0.1])[:, None, None]
        stack = a @ np.swapaxes(a, 1, 2) - shifts * np.eye(3)
        repair = psd_repair_stack(stack)
        assert repair.shift[0] == 0.0 and repair.degenerate.any() and not repair.degenerate.all()
        for f, m in enumerate(stack):
            one = psd_repair(m)
            assert np.allclose(repair.matrix[f], one.matrix, atol=1e-12)
            assert repair.shift[f] == pytest.approx(one.shift, abs=1e-12)
            assert repair.floor[f] == one.floor
            assert repair.degenerate[f] == one.degenerate
            root = sym_sqrt(repair.matrix[f])
            assert np.allclose(root @ root, one.matrix, atol=1e-10)

    def test_sym_sqrt_squares_back(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        m = a @ a.T
        root = sym_sqrt(m)
        assert np.allclose(root @ root, m, atol=1e-10)
        assert np.allclose(root, root.T)


class TestGaussianEstimator:
    def test_zero_noise_matches_closed_forms(self):
        # independent oracles: arithmetic mean and centered unbiased covariance
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(5, 51))
            k = int(rng.integers(1, 5))
            data = make_gaussian(rng, n=n, k=k)
            est = gaussian_private_mle(data, math.inf, rng)
            mean = data.x.mean(axis=0)
            centered = data.x - mean
            cov = centered.T @ centered / (n - 1)
            assert np.allclose(est.betas[0], mean, rtol=1e-10, atol=1e-12)
            assert np.allclose(est.repairs.matrix[0], cov, rtol=1e-10, atol=1e-12)
            assert est.ledger.total() == 0.0

    def test_zero_noise_bit_for_bit_equals_manually_zeroed_noise(self):
        rng = np.random.default_rng(12)
        data = make_gaussian(rng)
        est = gaussian_private_mle(data, math.inf, rng)
        assert np.array_equal(est.noisy_sums[0], data.x.sum(axis=0))
        assert np.array_equal(est.noisy_grams[0], data.x.T @ data.x)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        data = make_gaussian(rng)
        est1 = gaussian_private_mle(data, 1.5, np.random.default_rng(99))
        est2 = gaussian_private_mle(data, 1.5, np.random.default_rng(99))
        assert np.array_equal(est1.betas[0], est2.betas[0])
        assert np.array_equal(est1.repairs.matrix[0], est2.repairs.matrix[0])
        d1, _ = est1.bootstrap_draws(1, np.random.default_rng(5))
        d2, _ = est2.bootstrap_draws(1, np.random.default_rng(5))
        assert np.array_equal(d1, d2)

    def test_clamping_idempotence(self):
        rng = np.random.default_rng(14)
        bounds = Bounds.symmetric(1.0, 2)
        raw = rng.normal(0.0, 2.0, (30, 2))  # plenty of values outside the box
        pre_clamped = bounds.clamp(raw)
        est_raw = gaussian_private_mle(GaussianData(raw, bounds), 1.0, np.random.default_rng(3))
        est_pre = gaussian_private_mle(
            GaussianData(pre_clamped, bounds), 1.0, np.random.default_rng(3)
        )
        assert np.array_equal(est_raw.betas[0], est_pre.betas[0])
        assert np.array_equal(est_raw.repairs.matrix[0], est_pre.repairs.matrix[0])

    def test_noise_is_centered_over_replications(self):
        # n=800, k=2, eps=1.5: the replication mean of the private estimate
        # stays within 0.01 of the truth per coordinate
        truth = np.zeros(2)
        bounds = Bounds.centered(truth, 3.0)
        total = np.zeros(2)
        reps = 1000
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(606, spawn_key=(rep,)))
            x = truth + rng.standard_normal((800, 2))
            est = gaussian_private_mle(GaussianData(x, bounds), 1.5, rng)
            total += est.betas[0]
        assert np.all(np.abs(total / reps - truth) < 0.01)

    def test_repair_noop_on_clean_data(self):
        rng = np.random.default_rng(15)
        est = gaussian_private_mle(make_gaussian(rng, n=200), math.inf, rng)
        assert est.repairs.shift[0] == 0.0
        assert not est.repairs.degenerate[0]

    def test_degenerate_repair_flagged_not_raised(self):
        rng = np.random.default_rng(16)
        data = make_gaussian(rng, n=5, k=2, half_width=WIDE)
        est = gaussian_private_mle(data, 0.001, rng)  # noise dwarfs the data
        assert est.repairs.degenerate[0]
        # PSD up to eigendecomposition reconstruction rounding
        ev = np.linalg.eigvalsh(est.repairs.matrix[0])
        assert ev.min() >= -1e-9 * np.abs(est.repairs.matrix[0]).max()

    def test_n_below_two_rejected(self):
        with pytest.raises(ParameterError):
            GaussianData(np.zeros((1, 2)), Bounds.symmetric(1.0, 2))

    def test_ledger_charges_both_statistics(self):
        rng = np.random.default_rng(17)
        est = gaussian_private_mle(make_gaussian(rng), (1.0, 0.5), rng)
        assert est.ledger.total() == 1.5
        assert [sid for sid, _ in est.ledger.charges] == ["gaussian:sum", "gaussian:gram"]


class TestGaussianBootstrap:
    def test_zero_noise_draw_is_plain_bootstrap_mean(self):
        rng = np.random.default_rng(21)
        est = gaussian_private_mle(make_gaussian(rng, n=100), math.inf, rng)
        draws, failed = est.bootstrap_draws(2000, np.random.default_rng(1))
        assert failed == 0
        # E*[mean draw] = betas[0]; variance = repairs.matrix[0] / n
        se = np.sqrt(np.diag(est.repairs.matrix[0]) / est.sizes[0] / 2000)
        assert np.all(np.abs(draws.mean(axis=0) - est.betas[0]) < 3 * se)

    def test_draw_mean_and_variance_with_noise(self):
        rng = np.random.default_rng(22)
        est = gaussian_private_mle(make_gaussian(rng, n=150, k=2), 2.0, rng)
        draws, _ = est.bootstrap_draws(2000, np.random.default_rng(2))
        target_var = np.diag(est.repairs.matrix[0]) / est.sizes[0] + 2 * est.mechanisms[0].scale**2 / est.sizes[0]**2
        se = np.sqrt(target_var / 2000)
        assert np.all(np.abs(draws.mean(axis=0) - est.betas[0]) < 3 * se)
        assert np.all(np.abs(draws.var(axis=0) - target_var) < 0.10 * target_var)

    def test_single_draw(self):
        rng = np.random.default_rng(23)
        est = gaussian_private_mle(make_gaussian(rng), 1.0, rng)
        d, failed = est.bootstrap_draws(1, np.random.default_rng(9))
        assert d.shape == (1, est.k) and failed == 0

    def test_stacked_replicas_follow_each_sets_root(self):
        # folds of different sizes, small enough at eps = 0.3 that some
        # covariance repairs clip
        rng = np.random.default_rng(25)
        data = make_gaussian(rng, n=90, k=3, half_width=3.0)
        folds = [slice(0, 8), slice(8, 20), slice(20, 50), slice(50, 90)]
        parts = [fold_statistics([GaussianData(data.x[f], data.bounds)]) for f in folds]
        stats = GaussianStatistics(
            data.bounds, *(np.concatenate([getattr(p, name) for p in parts]) for name in ("n", "sums", "grams"))
        )
        clipped = 0
        for seed in range(6):
            est = stats.release(0.3, np.random.default_rng(seed))
            clipped += int((est.repairs.shift > 0.0).sum())
            for privacy_noise in (True, False):
                rng = np.random.default_rng(seed)
                draws, failed = est.replica_draws(200, rng, 3, privacy_noise)
                ref = np.random.default_rng(seed)
                z = ref.standard_normal((3, 200, 3))
                noise = est.mechanisms[0].sample(ref, (3, 200))
                assert draws.shape == (3, 200, 3) and not failed.any()
                for f in range(3):
                    n = est.sizes[f]
                    root = sym_sqrt(est.repairs.matrix[f])
                    expected = est.betas[f] + (z[f] @ root.T) / math.sqrt(n)
                    if privacy_noise:
                        expected = expected + noise[f] / n
                    assert np.array_equal(draws[f], expected)
        assert clipped > 0

    def test_coordinate_variances(self):
        rng = np.random.default_rng(24)
        est = gaussian_private_mle(make_gaussian(rng, n=100, k=2), 1.0, rng)
        base = np.diag(est.repairs.matrix[0]) / est.sizes[0]
        noise = 2 * est.mechanisms[0].scale**2 / est.sizes[0]**2
        assert np.allclose(est.variances(private=False)[0], base)
        assert np.allclose(est.variances(private=True)[0], base + noise)


class TestRegressionEstimator:
    def test_zero_noise_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(10, 51))
            k = int(rng.integers(1, 5))
            data = make_regression(rng, n=n, k=k)
            est = regression_private_mle(data, math.inf, rng)
            ols = np.linalg.solve(data.X.T @ data.X, data.X.T @ data.y)
            assert np.allclose(est.betas[0], ols, rtol=1e-10, atol=1e-12)

    def test_noiseless_responses_zero_variance_before_clipping(self):
        rng = np.random.default_rng(32)
        X = rng.uniform(-1.0, 1.0, (50, 2))
        beta = np.array([0.5, -1.0])
        data = RegressionData(X, X @ beta, Bounds.symmetric(1.0, 2), Bounds.symmetric(3.0, 1))
        est = regression_private_mle(data, math.inf, rng)
        resid = data.y - data.X @ est.betas[0]
        assert float(resid @ resid) == pytest.approx(0.0, abs=1e-18)
        assert est.sigma2s[0] == SIGMA2_FLOOR  # clipped up from exactly 0

    def test_noise_is_centered_over_replications(self):
        # n=800, k=2, beta=(0,1), eps=1.5: replication mean within 0.02.
        # The gram statistic gets the larger budget share: its matrix noise
        # enters the solve nonlinearly and biases the mean quadratically in
        # the noise scale (measured +0.023 on the leading coordinate at an
        # equal split), while the cross-product noise is exactly centered.
        beta = np.array([0.0, 1.0])
        total = np.zeros(2)
        reps = 1000
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(707, spawn_key=(rep,)))
            X = rng.uniform(-1.0, 1.0, (800, 2))
            y = X @ beta + rng.standard_normal(800)
            data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))
            est = regression_private_mle(data, (1.0, 0.25, 0.25), rng)
            total += est.betas[0]
        assert np.all(np.abs(total / reps - beta) < 0.02)

    def test_irreparable_singularity_raises(self):
        rng = np.random.default_rng(0)
        data = make_regression(rng, n=40, k=2)
        with pytest.raises(NumericError):
            regression_private_mle(data, 0.01, np.random.default_rng(1000))

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(ParameterError):
            RegressionData(
                np.zeros((3, 3)), np.zeros(3), Bounds.symmetric(1.0, 3), Bounds.symmetric(1.0, 1)
            )

    def test_ledger_charges_three_statistics(self):
        rng = np.random.default_rng(34)
        est = regression_private_mle(make_regression(rng, n=200), 1.5, rng)
        assert est.ledger.total() == pytest.approx(1.5)
        assert len(est.ledger.charges) == 3


def orthogonal_block(X, w):
    """``w`` with its projection onto the columns of ``X`` removed."""
    return w - X @ np.linalg.solve(X.T @ X, X.T @ w)


def test_regression_needs_a_residual_degree_of_freedom():
    rng = np.random.default_rng(36)
    bounds = (Bounds(np.zeros(2), np.ones(2)), Bounds.symmetric(5.0, 1))
    X, y = rng.uniform(0.0, 1.0, (3, 2)), rng.standard_normal(3)
    assert fold_statistics([RegressionData(X, y, *bounds)]).min_rows == 3
    with pytest.raises(ParameterError, match="n > k"):
        RegressionData(X[:2], y[:2], *bounds)


def test_rows_must_line_up_with_the_design():
    rng = np.random.default_rng(35)
    X = rng.uniform(0.0, 1.0, (50, 2))
    with pytest.raises(ParameterError, match="one response per row"):
        RegressionData(X, rng.standard_normal(49), Bounds(np.zeros(2), np.ones(2)), Bounds.symmetric(5.0, 1))


def test_models_holds_no_nuisance_statistics():
    # the release reads the clamped X and y alone: no name of a nuisance
    # block, its statistics or its fit is left to read an unclamped column
    tree = ast.parse((SRC / "models.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    gone = {"wtw", "wtx", "wty", "pinv", "m_fit", "nuisance", "ORTHOGONALITY_TOLERANCE"}
    assert not names & gone, sorted(names & gone)
    assert [f.name for f in dataclasses.fields(RegressionData)] == ["X", "y", "x_bounds", "y_bounds"]
    assert RegressionStatistics.ADDITIVE == ("n", "xtx", "xty", "yty")


def reference_regression_release(X, y, x_bounds, y_bounds, budget, rng):
    """The row-based regression release, kept as the reference.

    Takes the rows themselves, solves the noisy normal equations, takes the
    residuals of the clamped rows and noises the residual mean square, whose
    sensitivity bounds a clamped row's residual.  Returns the released values
    by name.
    """
    eps_gram, eps_xty, eps_rss = split_budget(budget, 3)
    X, y = x_bounds.clamp(X), y_bounds.clamp(y)
    n, k = X.shape
    gram_spec = LaplaceSpec.from_budget(sensitivity_gram_bounded(x_bounds), eps_gram, k * (k + 1) // 2)
    xty_spec = LaplaceSpec.from_budget(sensitivity_cross_bounded(x_bounds, y_bounds), eps_xty, k)
    noisy_gram = X.T @ X + np.take(gram_spec.sample(rng, ()), symmetric_layout(k)[0], axis=-1)
    noisy_xty = X.T @ y + xty_spec.sample(rng, ())
    repair = psd_repair(noisy_gram / n)
    if repair.degenerate:
        raise NumericError("irreparable")
    beta = np.linalg.solve(n * repair.matrix, noisy_xty)

    resid = y - X @ beta
    dof = n - k
    m_res = y_bounds.magnitudes[0] + np.sum(x_bounds.magnitudes * np.abs(beta))
    rss_spec = LaplaceSpec.from_budget(float(m_res) ** 2 / dof, eps_rss, 1)
    sigma2 = max(float(resid @ resid) / dof + float(rss_spec.sample(rng, ())[0]), SIGMA2_FLOOR)
    ledger = PrivacyLedger()
    for name, eps in zip(("gram", "xty", "rss"), (eps_gram, eps_xty, eps_rss)):
        ledger = ledger.charge(f"regression:{name}", eps)
    return dict(
        beta=beta, S=repair.matrix, noisy_gram=noisy_gram, noisy_xty=noisy_xty,
        scales=(gram_spec.scale, xty_spec.scale, rss_spec.scale), sigma2=sigma2, ledger=ledger,
    )


def partial_design_data(rng, n):
    """Design X, with the fit of nuisance covariates W orthogonal to it left in y."""
    X = rng.uniform(-1.0, 1.0, (n, 2))
    W = orthogonal_block(X, rng.standard_normal((n, 2)))
    y = X @ np.array([0.2, 0.5]) + W @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    return RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(8.0, 1))


def unit_box_data(rng, n):
    """Group indicators in the box [0, 1]^2, whose lower corner is the origin."""
    X = np.eye(2)[rng.integers(0, 2, size=n)]
    y = X @ np.array([0.2, 0.5]) + rng.standard_normal(n)
    return RegressionData(X, y, Bounds(np.zeros(2), np.ones(2)), Bounds.symmetric(5.0, 1))


class TestStackStatistics:
    """A stack's data sets are read one by one, and only sets of one layout stack."""

    @pytest.mark.parametrize("regression", [False, True], ids=["gaussian", "regression"])
    def test_a_stream_of_sets_is_their_statistics_concatenated(self, regression):
        rng = np.random.default_rng(26)
        data = [partial_design_data(rng, 40) if regression else make_gaussian(rng) for _ in range(5)]
        stats = fold_statistics(d for d in data)
        alone = [fold_statistics([d]) for d in data]
        for name in type(stats).ADDITIVE:
            want = np.concatenate([getattr(a, name) for a in alone])
            assert getattr(stats, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "other",
        [
            lambda data: GaussianData(data.x, Bounds.symmetric(4.0, 3)),
            lambda data: GaussianData(data.x[:-1], data.bounds),
            lambda data: RegressionData(data.x, data.x[:, 0], Bounds.symmetric(WIDE, 3), Bounds.symmetric(4.0, 1)),
        ],
        ids=["box", "size", "class"],
    )
    def test_a_set_of_another_layout_is_refused_mid_stream(self, other):
        rng = np.random.default_rng(29)
        data = [make_gaussian(rng) for _ in range(3)]
        stream = (d for d in [*data, other(data[0])])
        with pytest.raises(ParameterError, match=ONE_LAYOUT):
            fold_statistics(stream)

    def test_a_stream_clamps_each_set_once_the_set_before_it_is_dropped(self):
        # so a Monte Carlo block holds one replication's clamped rows at a time
        made, alive_at_clamp = [], []

        class Watched(GaussianData):
            @cached_property
            def clamped(self):
                alive_at_clamp.append(sum(ref() is not None for ref in made))
                return GaussianData.clamped.func(self)

        def stream(rng):
            for _ in range(4):
                d = Watched(rng.uniform(-2.0, 2.0, (40, 3)), Bounds.symmetric(WIDE, 3))
                made.append(weakref.ref(d))
                yield d

        fold_statistics(stream(np.random.default_rng(30)))
        assert alive_at_clamp == [1, 1, 1, 1]

    def test_stacks_of_another_box_or_width_are_refused(self):
        # the release calibrates its noise to the first set's box
        rng = np.random.default_rng(27)
        data = make_gaussian(rng, half_width=3.0)
        other_box = GaussianData(data.x, Bounds.symmetric(4.0, 3))
        X, y = rng.uniform(-1.0, 1.0, (40, 2)), rng.standard_normal(40)
        plain = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(4.0, 1))
        wider = RegressionData(rng.uniform(-1.0, 1.0, (40, 3)), y, Bounds.symmetric(1.0, 3), plain.y_bounds)
        for parts in ([data, other_box], [plain, wider], [wider, plain], [data, plain]):
            with pytest.raises(ParameterError, match=ONE_LAYOUT):
                fold_statistics(parts)
        same = GaussianData(data.x, Bounds.symmetric(3.0, 3))  # an equal box, another object
        assert fold_statistics([data, same]).n.tolist() == [40, 40]


def test_only_models_maps_the_additive_statistics():
    # how each model's statistics add up over sets and subsets is known in
    # models.py alone; another module maps them through its helper
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "models.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "ADDITIVE"
    ]
    assert not reads, f"ADDITIVE read outside models.py: {reads}"


class TestNanCellsRefused:
    """The clamp passes NaN through, so one NaN cell would make a released
    statistic NaN whatever the noise; every data class refuses it by cell."""

    BOUNDS = (Bounds.symmetric(3.0, 2), Bounds.symmetric(5.0, 1))

    @staticmethod
    def design(rng, n=40):
        return rng.uniform(-1.0, 1.0, (n, 2))

    def test_gaussian_x(self):
        x = np.array([[1.0, 2.0], [3.0, np.nan], [4.0, 5.0]])
        with pytest.raises(ParameterError, match=r"^the data cell x\[1, 1\] is NaN"):
            GaussianData(x, self.BOUNDS[0])

    def test_regression_design(self):
        X = self.design(np.random.default_rng(70))
        X[7, 0] = np.nan
        with pytest.raises(ParameterError, match=r"^the data cell X\[7, 0\] is NaN"):
            RegressionData(X, np.zeros(40), *self.BOUNDS)

    def test_regression_response(self):
        y = np.zeros(40)
        y[3] = np.nan
        with pytest.raises(ParameterError, match=r"^the data cell y\[3\] is NaN"):
            RegressionData(self.design(np.random.default_rng(71)), y, *self.BOUNDS)

    def test_infinities_still_clamp_to_the_box(self):
        x = np.array([[np.inf, 0.0], [0.0, -np.inf], [1.0, 1.0]])
        stats = fold_statistics([GaussianData(x, self.BOUNDS[0])])
        assert stats.sums.tolist() == [[4.0, -2.0]]
        X = self.design(np.random.default_rng(73))
        X[2, 0], y = -np.inf, np.zeros(40)
        y[4] = np.inf
        stats = fold_statistics([RegressionData(X, y, *self.BOUNDS)])
        clamped = np.clip(X, -3.0, 3.0)
        assert stats.xtx[0, 0, 0] == clamped[:, 0] @ clamped[:, 0] and stats.yty[0] == 25.0


class TestSingleSetReleaseReference:
    """The one-set stacked release reproduces the row-based recipe."""

    CASES = {
        "regression": lambda rng, n: make_regression(rng, n=n, k=3),
        "partial-design": partial_design_data,
        "unit-box": unit_box_data,
    }
    # a 1 x 1 gram is released as it is or refused, never clipped: its
    # eigenvalue floor is relative to itself
    UNCLIPPED_CASES = {**CASES, "one-column": lambda rng, n: make_regression(rng, n=n, k=1)}

    @staticmethod
    def compare(data, budget, seed):
        try:
            ref = reference_regression_release(
                data.X, data.y, data.x_bounds, data.y_bounds, budget,
                np.random.default_rng(seed),
            )
        except NumericError:
            with pytest.raises(NumericError):
                regression_private_mle(data, budget, np.random.default_rng(seed))
            return None
        est = regression_private_mle(data, budget, np.random.default_rng(seed))
        assert np.array_equal(est.betas[0], ref["beta"])
        assert np.array_equal(est.repairs.matrix[0], ref["S"])
        assert np.array_equal(est.noisy_grams[0], ref["noisy_gram"])
        assert np.array_equal(est.noisy_xtys[0], ref["noisy_xty"])
        assert (est.mechanisms[0].scale, est.mechanisms[1].scale, est.mechanisms[2].scale[0]) == ref["scales"]
        assert est.ledger == ref["ledger"]
        assert est.sigma2s[0] == pytest.approx(ref["sigma2"], rel=1e-12, abs=0.0)
        return est

    @pytest.mark.parametrize("case", UNCLIPPED_CASES)
    def test_matches_row_recipe(self, case):
        for seed in range(5):
            data = self.UNCLIPPED_CASES[case](np.random.default_rng(seed), 400)
            assert self.compare(data, 1.5, seed) is not None
            assert self.compare(data, math.inf, seed) is not None

    @pytest.mark.parametrize("case", CASES)
    def test_matches_row_recipe_on_clipped_releases(self, case):
        # n = 50, eps = 0.2: most releases are irreparable, a few clip eigenvalues
        clipped = 0
        for seed in range(80):
            data = self.CASES[case](np.random.default_rng(seed), 50)
            est = self.compare(data, 0.2, seed)
            clipped += est is not None and est.repairs.shift[0] > 0.0
        assert clipped > 0


def make_degenerate_regression_estimate():
    """An estimate whose noisy bootstrap systems are singular on every attempt:
    its gram noise, about 1e-14 per scaled entry, is far below the floor."""
    s = np.diag([1e-20, 1.0])  # min |eig| far below the repair floor
    return PrivatizedRegressionEstimate(
        betas=np.array([[0.0, 1.0]]),
        sigma2s=np.ones(1),
        # S itself, not its repair, so the singular matrix reaches the bootstrap
        repairs=RepairResult(s[None], np.zeros(1), np.atleast_1d(psd_floor(s)), np.zeros(1, bool)),
        sizes=np.array([100]),
        mechanisms=(LaplaceSpec(1e-12, 3, "gram"), LaplaceSpec(0.0, 2, "xty"), LaplaceSpec(np.zeros(1), 1, "rss")),
        noisy_grams=100 * s[None],
        noisy_xtys=np.zeros((1, 2)),
    )


def make_near_floor_regression_estimate(seed, lam, rel_scale, k=3, n=100):
    """An estimate whose least eigenvalue ``lam`` sits a few floors above the
    singularity floor, with gram noise of ``rel_scale * lam`` per scaled entry."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = (q * np.r_[np.linspace(1.0, 0.5, k - 1), lam]) @ q.T
    s = 0.5 * (s + s.T)
    return PrivatizedRegressionEstimate(
        betas=rng.standard_normal((1, k)),
        sigma2s=np.ones(1),
        repairs=psd_repair_stack(s[None]),
        sizes=np.array([n]),
        mechanisms=(
            LaplaceSpec(rel_scale * lam * n, k * (k + 1) // 2, "gram"),
            LaplaceSpec(0.5, k, "xty"),
            LaplaceSpec(np.zeros(1), 1, "rss"),
        ),
        noisy_grams=n * s[None],
        noisy_xtys=np.zeros((1, k)),
    )


def stack_regression_estimates(estimates):
    """One estimate whose sets are the given single estimates, which must share
    their gram and X^T y records."""
    first = estimates[0]

    def cat(name):
        return np.concatenate([getattr(e, name) for e in estimates])

    return PrivatizedRegressionEstimate(
        betas=cat("betas"),
        sigma2s=cat("sigma2s"),
        repairs=RepairResult(*(np.concatenate(f) for f in zip(*(e.repairs for e in estimates)))),
        sizes=cat("sizes"),
        mechanisms=(
            *first.mechanisms[:2],
            LaplaceSpec(np.concatenate([e.mechanisms[2].scale for e in estimates]), 1, "rss"),
        ),
        noisy_grams=cat("noisy_grams"),
        noisy_xtys=cat("noisy_xtys"),
    )


def reference_replica_draws(est, size, rng, sets, privacy_noise=True):
    """The stacked regression bootstrap with an eigenvalue check of every
    noisy system and a solve of every system, in the stacked draw order: every
    set's scores, then every set's systems, then the retries of all sets
    together.  Without gram noise S is solved as released, unchecked."""
    k = est.k
    S, n = est.repairs.matrix[:sets], est.sizes[:sets]
    floor = psd_floor(S)

    z = rng.standard_normal((sets, size, k))
    c = np.stack([z[f] @ sym_sqrt(est.sigma2s[f] * S[f]).T for f in range(sets)])
    s_beta = np.stack([S[f] @ est.betas[f] for f in range(sets)])
    rhs = c / np.sqrt(n)[:, None, None] + s_beta[:, None, :]
    if privacy_noise and not est.mechanisms[1].is_zero:
        rhs = rhs + est.mechanisms[1].sample(rng, (sets, size)) / n[:, None, None]

    def attempt(owners):
        systems = S[owners]
        if not privacy_noise or est.mechanisms[0].is_zero:
            return systems, np.zeros(owners.size, dtype=bool)
        noise = np.take(est.mechanisms[0].sample(rng, owners.size), symmetric_layout(k)[0], axis=-1)
        systems = systems + noise / n[owners, None, None]
        return systems, np.abs(np.linalg.eigvalsh(systems)).min(axis=1) < floor[owners]

    owners = np.repeat(np.arange(sets), size)
    systems, bad = attempt(owners)
    retry = np.flatnonzero(bad)
    systems[retry], bad[retry] = attempt(owners[retry])
    draws = np.full((sets * size, k), np.nan)
    for i in np.flatnonzero(~bad):
        draws[i] = np.linalg.solve(systems[i], rhs.reshape(-1, k)[i])
    return draws.reshape(sets, size, k), bad.reshape(sets, size)


def reference_bootstrap_draws(est, size, rng, privacy_noise=True):
    """The regression bootstrap with an eigenvalue check of every noisy system;
    without gram noise S is solved as released, unchecked."""
    m, k = est.sizes[0], est.k
    floor = psd_floor(est.repairs.matrix[0])

    c = rng.standard_normal((size, k)) @ sym_sqrt(est.sigma2s[0] * est.repairs.matrix[0]).T
    rhs = c / math.sqrt(m) + (est.repairs.matrix[0] @ est.betas[0])[None, :]
    if privacy_noise and not est.mechanisms[1].is_zero:
        rhs = rhs + est.mechanisms[1].sample(rng, size) / m

    def attempt(count):
        systems = np.broadcast_to(est.repairs.matrix[0], (count, k, k)).copy()
        if not privacy_noise or est.mechanisms[0].is_zero:
            return systems, np.zeros(count, dtype=bool)
        systems += np.take(est.mechanisms[0].sample(rng, count), symmetric_layout(k)[0], axis=-1) / m
        return systems, np.abs(np.linalg.eigvalsh(systems)).min(axis=1) < floor

    def solve(systems, b):
        return np.linalg.solve(systems, b[:, :, None])[:, :, 0]

    systems, bad = attempt(size)
    draws = np.empty((size, k))
    if (~bad).any():
        draws[~bad] = solve(systems[~bad], rhs[~bad])
    failed = 0
    if bad.any():
        retry_idx = np.flatnonzero(bad)
        retries, still_bad = attempt(retry_idx.size)
        if (~still_bad).any():
            draws[retry_idx[~still_bad]] = solve(retries[~still_bad], rhs[retry_idx[~still_bad]])
        failed = int(still_bad.sum())
        keep = np.ones(size, dtype=bool)
        keep[retry_idx[still_bad]] = False
        draws = draws[keep]
    return draws, failed


class TestRegressionBootstrap:
    def test_weyl_screen_matches_checking_every_system(self, monkeypatch):
        checked = []
        near_singular = PrivatizedRegressionEstimate._near_singular

        def counting(systems, floor):
            checked.append(len(systems))
            return near_singular(systems, floor)

        monkeypatch.setattr(PrivatizedRegressionEstimate, "_near_singular", staticmethod(counting))
        size, attempted, failed_total = 300, 0, 0
        for seed in range(3):
            for lam in (3e-8, 1e-7):
                for rel_scale in (0.15, 0.6, 2.0):
                    for n in (100, 60):
                        est = make_near_floor_regression_estimate(seed, lam, rel_scale, n=n)
                        draws, failed = est.bootstrap_draws(size, np.random.default_rng(seed))
                        ref_draws, ref_failed = reference_bootstrap_draws(
                            est, size, np.random.default_rng(seed)
                        )
                        assert failed == ref_failed
                        assert np.array_equal(draws, ref_draws)
                        attempted += size + failed
                        failed_total += failed
        # systems fell on both sides of the bound, and some failed their retry
        assert 0 < sum(checked) < attempted
        assert failed_total > 0

    def test_weyl_screen_on_released_estimates(self):
        # n = 50, eps = 0.2 releases clip eigenvalues (or fail); k = 8 is regular
        compared, clipped = 0, 0
        for n, k, eps, seeds in ((50, 2, 0.2, range(40)), (400, 8, 50.0, range(3))):
            for seed in seeds:
                rng = np.random.default_rng(seed)
                data = make_regression(rng, n=n, k=k)
                try:
                    est = regression_private_mle(data, eps, rng)
                except NumericError:
                    continue
                draws, failed = est.bootstrap_draws(200, np.random.default_rng(seed))
                ref = reference_bootstrap_draws(est, 200, np.random.default_rng(seed))
                assert failed == ref[1]
                assert np.array_equal(draws, ref[0])
                compared += 1
                clipped += est.repairs.shift[0] > 0.0
        assert compared > 3 and clipped > 0

    def test_noiseless_draws_match_per_draw_solves(self):
        rng = np.random.default_rng(44)
        est = regression_private_mle(make_regression(rng, n=400, k=4), 20.0, rng)
        for privacy_noise in (False, True):
            if privacy_noise:
                est.mechanisms = (LaplaceSpec(0.0, est.mechanisms[0].dimension, "gram"), *est.mechanisms[1:])
            draws, failed = est.bootstrap_draws(
                500, np.random.default_rng(3), privacy_noise=privacy_noise
            )
            ref, ref_failed = reference_bootstrap_draws(
                est, 500, np.random.default_rng(3), privacy_noise=privacy_noise
            )
            assert failed == ref_failed == 0
            assert np.allclose(draws, ref, rtol=1e-12, atol=0.0)

    def test_zero_noise_draw_covariance(self):
        # with zero noise, sqrt(n) (beta* - beta) ~ N(0, sigma2 S^{-1})
        rng = np.random.default_rng(41)
        X = rng.uniform(-1.0, 1.0, (300, 2)) @ np.array([[1.0, 0.4], [0.0, 1.0]])
        beta = np.array([1.0, -0.5])
        y = X @ beta + rng.standard_normal(300)
        data = RegressionData(X, y, Bounds.symmetric(2.0, 2), Bounds.symmetric(8.0, 1))
        est = regression_private_mle(data, math.inf, rng)
        draws, failed = est.bootstrap_draws(2000, np.random.default_rng(4))
        assert failed == 0
        scaled = math.sqrt(est.sizes[0]) * (draws - est.betas[0])
        target = est.sigma2s[0] * np.linalg.inv(est.repairs.matrix[0])
        sample_cov = np.cov(scaled.T)
        assert np.all(np.abs(sample_cov - target) <= 0.10 * np.abs(target))

    def test_forced_identity_case(self):
        # zero score covariance and zero noise reproduce the estimate exactly
        rng = np.random.default_rng(42)
        est = regression_private_mle(make_regression(rng, n=120), math.inf, rng)
        est.sigma2s[0] = 0.0
        est._root = None
        draws, failed = est.bootstrap_draws(1, np.random.default_rng(0))
        assert failed == 0
        assert np.allclose(draws[0], est.betas[0], atol=1e-14)

    def test_every_draw_failing_is_counted(self):
        est = make_degenerate_regression_estimate()
        draws, failed = est.bootstrap_draws(50, np.random.default_rng(1))
        assert failed == 50 and draws.shape == (0, 2)
        draws, failed = est.bootstrap_draws(1, np.random.default_rng(1))
        assert failed == 1 and draws.shape == (0, 2)

    def test_a_clipped_release_is_solved_as_released(self, monkeypatch):
        checked = []
        monkeypatch.setattr(
            PrivatizedRegressionEstimate, "_near_singular",
            staticmethod(lambda systems, floor: checked.append(len(systems))),
        )
        # S is the repair of an indefinite matrix: clipping raised the trace,
        # so psd_floor of the repaired S exceeds the eigenvalue it clipped up
        # to, and a screen of S against it would fail every draw
        est = make_near_floor_regression_estimate(6, -1e-3, 0.0)
        S = est.repairs.matrix
        assert est.repairs.shift[0] > 0.0 and np.linalg.eigvalsh(S)[0, 0] < psd_floor(S)[0]
        # no gram noise: privacy noise off, or a zero gram scale (epsilon = inf)
        for privacy_noise in (False, True):
            draws, failed = est.replica_draws(300, np.random.default_rng(2), 1, privacy_noise)
            ref, ref_failed = reference_replica_draws(est, 300, np.random.default_rng(2), 1, privacy_noise)
            assert checked == [] and failed.shape == (1, 300) and not failed.any() and not ref_failed.any()
            # one solve against many right-hand sides rounds apart from one
            # solve per draw, by up to the condition number (2e8 here) times eps
            assert np.allclose(draws, ref, rtol=1e-7, atol=0.0)

    def test_stacked_draws_match_checking_every_system(self, monkeypatch):
        checked = []
        near_singular = PrivatizedRegressionEstimate._near_singular

        def counting(systems, floor):
            checked.append(len(systems))
            return near_singular(systems, floor)

        monkeypatch.setattr(PrivatizedRegressionEstimate, "_near_singular", staticmethod(counting))
        # near-floor and well-conditioned sets of different sizes, all with the
        # same gram noise scale, as the sets of one release have
        scale = 6e-6
        cases = [(0, 3e-8, 100), (1, 0.4, 60), (2, 1e-7, 60), (3, 0.3, 100), (4, 6e-7, 60)]
        estimates = [
            make_near_floor_regression_estimate(seed, lam, scale / (lam * n), n=n)
            for seed, lam, n in cases
        ]
        # the last set's other eigenvalues are raised by 30, and its floor with
        # them (to 2e-7), so a floor taken from another set would miss its failures
        s = estimates[-1].repairs.matrix[0]
        v = np.linalg.eigh(s)[1][:, :1]
        estimates[-1].repairs = psd_repair_stack((s + 30.0 * (np.eye(3) - v @ v.T))[None])
        est = stack_regression_estimates(estimates)
        size, sets = 300, len(cases)
        failed_sets = set()
        for seed in range(4):
            draws, failed = est.replica_draws(size, np.random.default_rng(seed), sets)
            ref_draws, ref_failed = reference_replica_draws(
                est, size, np.random.default_rng(seed), sets
            )
            assert np.array_equal(failed, ref_failed)
            assert np.array_equal(draws, ref_draws, equal_nan=True)
            assert np.isnan(draws[failed]).all() and not np.isnan(draws[~failed]).any()
            failed_sets |= set(np.flatnonzero(failed.any(axis=1)))
        # only near-floor sets failed, and the bound spared most systems a check
        assert 4 in failed_sets and failed_sets <= {0, 2, 4}
        assert 0 < sum(checked) < 4 * size * sets

        # without gram noise, each set's S is solved once, as released, unchecked
        checked.clear()
        draws, failed = est.replica_draws(size, np.random.default_rng(9), 3, privacy_noise=False)
        ref_draws, ref_failed = reference_replica_draws(
            est, size, np.random.default_rng(9), 3, privacy_noise=False
        )
        assert checked == [] and not failed.any() and not ref_failed.any()
        # one solve against many right-hand sides rounds apart from one solve
        # per draw, by up to the condition number (3e7 here) times eps
        assert np.allclose(draws, ref_draws, rtol=1e-7, atol=0.0)

        # a singular noisy system fails every draw of its set, as NaN rows, and only those
        est = stack_regression_estimates(
            [make_degenerate_regression_estimate(), make_near_floor_regression_estimate(5, 0.3, 0.0, k=2)]
        )
        draws, failed = est.replica_draws(50, np.random.default_rng(2), 2)
        ref_draws, ref_failed = reference_replica_draws(est, 50, np.random.default_rng(2), 2)
        assert np.array_equal(failed, ref_failed) and failed[0].all() and not failed[1].any()
        assert np.isnan(draws[0]).all() and np.allclose(draws[1], ref_draws[1], rtol=1e-12, atol=0.0)

    def test_bench_sized_draws_and_certificate(self, monkeypatch):
        # the sim-reg-k8 benchmark's estimate: k = 8 null coefficients, n = 4000, eps = 10
        k, n, size = 8, 4000, 1000
        rng = np.random.default_rng(8)
        data = make_regression(rng, n=n, k=k, beta=np.zeros(k))
        est = regression_private_mle(data, 10.0, rng)
        draws, failed = est.replica_draws(size, np.random.default_rng(1), 1)
        ref_draws, ref_failed = reference_replica_draws(est, size, np.random.default_rng(1), 1)
        assert np.array_equal(failed, ref_failed)
        assert np.array_equal(draws, ref_draws, equal_nan=True)

        # with every uncertified system reported singular, the flags are
        # exactly the systems the bound leaves uncertified
        monkeypatch.setattr(
            PrivatizedRegressionEstimate, "_near_singular",
            staticmethod(lambda systems, floor: np.ones(len(systems), dtype=bool)),
        )
        # the bound is the Frobenius norm of the full noise matrix W1/n: at
        # floor 0 with every eigenvalue of S_f at t_f, a system is uncertified
        # exactly when bound (1 + margin) > t_f (1 - margin), so t_f set just
        # below, then just above, the norm of system f's own draw pins the bound
        index, weights = symmetric_layout(k)
        tri = np.random.default_rng(2).laplace(0.0, est.mechanisms[0].scale, (size, weights.size))
        norms = np.linalg.norm(np.take(tri / n, index, axis=-1), axis=(-2, -1))
        one_per_system = est.take(np.zeros(size, dtype=int))
        for rel, uncertified in ((1.0 - 1e-14, True), (1.0 + 1e-14, False)):
            t = norms * (1.0 + _CERTIFY_MARGIN) / (1.0 - _CERTIFY_MARGIN) * rel
            flags = one_per_system._noisy_systems(
                np.arange(size), (size,), GeneratorStack.of(np.random.default_rng(2)),
                np.zeros(size), np.repeat(t[:, None], k, axis=1),
            )[1]
            assert (flags == uncertified).all()

        # every system the bound certifies is regular
        S = est.repairs.matrix[:1]
        floor = psd_floor(S)
        systems, uncertified = est._noisy_systems(
            np.zeros((1, 1), dtype=int), (1, size), GeneratorStack.of(np.random.default_rng(3)),
            floor, np.linalg.eigvalsh(S),
        )
        certified = systems[~uncertified]
        assert len(certified) > 0.9 * size
        assert (np.abs(np.linalg.eigvalsh(certified)).min(axis=1) >= floor[0]).all()

    def test_each_generator_draws_its_own_sets_and_retries(self, monkeypatch):
        retried_by, calls = [], []
        noisy_systems = PrivatizedRegressionEstimate._noisy_systems

        def spy(self, owner, shape, rng, floor, s_eigvals):
            calls.append((rng, len(shape) == 1))  # a 1-D shape is a retry
            return noisy_systems(self, owner, shape, rng, floor, s_eigvals)

        monkeypatch.setattr(PrivatizedRegressionEstimate, "_noisy_systems", spy)
        # two near-floor sets per generator, whose systems are retried
        scale = 6e-6
        cases = [(0, 3e-8, 100), (1, 0.4, 60), (2, 1e-7, 60), (4, 6e-7, 60)]
        est = stack_regression_estimates(
            [make_near_floor_regression_estimate(seed, lam, scale / (lam * n), n=n) for seed, lam, n in cases]
        )
        for seed in range(3):
            stack = GeneratorStack(np.random.default_rng((seed, i)) for i in range(2))
            calls.clear()
            draws, failed = est.replica_draws(300, stack, 4)
            # each call draws from one generator of the stack, at most one retry each
            owners = [stack.generators.index(rng) for rng, _ in calls]
            retries = [i for i, (_, retry) in zip(owners, calls) if retry]
            assert sorted(set(owners)) == [0, 1] and len(retries) == len(set(retries))
            retried_by.extend(retries)
            for i in range(2):
                pair = est.take(np.arange(2 * i, 2 * i + 2))
                alone, alone_failed = pair.replica_draws(300, np.random.default_rng((seed, i)), 2)
                assert np.array_equal(draws[2 * i : 2 * i + 2], alone, equal_nan=True)
                assert np.array_equal(failed[2 * i : 2 * i + 2], alone_failed)
        assert set(retried_by) == {0, 1}

    def test_coordinate_variances_private_exceeds_nonprivate(self):
        rng = np.random.default_rng(43)
        est = regression_private_mle(make_regression(rng, n=400), 1.5, rng)
        assert np.all(
            est.variances(private=True)[0] > est.variances(private=False)[0]
        )


def test_gaussian_bootstrap_is_the_regression_bootstrap_with_identity_systems():
    # a Gaussian with covariance Sigma and a regression with S = I and
    # sigma2 S = Sigma, the same response-side noise and no gram noise: one
    # recipe gives both the same replicas and variances, bit for bit
    k, sizes = 3, np.array([50, 120, 400])
    rng = np.random.default_rng(7)
    betas, sigma2s = rng.standard_normal((3, k)), np.array([0.5, 2.0, 1.3])
    eye = np.broadcast_to(np.eye(k), (3, k, k)).copy()

    def repairs(matrices):
        return RepairResult(matrices, np.zeros(3), psd_floor(matrices), np.zeros(3, dtype=bool))

    gaussian = PrivatizedGaussianEstimate(
        betas=betas, repairs=repairs(sigma2s[:, None, None] * eye), sizes=sizes,
        mechanisms=(LaplaceSpec(0.7, k, "sum"), LaplaceSpec(2.0, 6, "gram")),
        noisy_sums=sizes[:, None] * betas, noisy_grams=np.zeros((3, k, k)),
    )
    regression = PrivatizedRegressionEstimate(
        betas=betas, sigma2s=sigma2s, repairs=repairs(eye), sizes=sizes,
        mechanisms=(LaplaceSpec(0.0, 6, "gram"), LaplaceSpec(0.7, k, "xty"), LaplaceSpec(np.zeros(3), 1, "rss")),
        noisy_grams=sizes[:, None, None] * eye, noisy_xtys=sizes[:, None] * betas,
    )
    for privacy_noise in (True, False):
        for seed in range(3):
            stacks = [
                GeneratorStack(np.random.default_rng((seed, i)) for i in range(3)) for _ in range(2)
            ]
            for rngs in (stacks, [np.random.default_rng(seed), np.random.default_rng(seed)]):
                draws, failed = gaussian.replica_draws(200, rngs[0], 3, privacy_noise)
                ref_draws, ref_failed = regression.replica_draws(200, rngs[1], 3, privacy_noise)
                assert np.array_equal(draws, ref_draws) and not failed.any()
                assert np.array_equal(failed, ref_failed)
        assert np.array_equal(gaussian.variances(privacy_noise), regression.variances(privacy_noise))


@pytest.mark.parametrize("model", ["gaussian", "regression"])
def test_the_records_are_the_ledger_and_the_noise_scales(model):
    # one record per released statistic, in RELEASED order: the ledger charges
    # each record's epsilon, and the noise scales are each record's scale
    rng = np.random.default_rng(61)
    if model == "gaussian":
        data, split = make_gaussian(rng, n=200), (1.0, 0.5)
    else:
        data, split = make_regression(rng, n=800), (5.0, 7.5, 2.5)
    stats = fold_statistics([data], 2)
    est = stats.release(split, rng)
    assert tuple(m.name for m in est.mechanisms) == type(stats).RELEASED
    assert est.ledger.charges == tuple((f"{model}:{m.name}", m.epsilon) for m in est.mechanisms)
    assert tuple(m.epsilon for m in est.mechanisms) == split
    assert list(est.noise_scales) == list(type(stats).RELEASED)
    for m in est.mechanisms:
        assert np.array_equal(est.noise_scales[m.name], m.scale)
        assert np.array_equal(m.scale, m.sensitivity / m.epsilon)
    # a record whose delta differs by set is cut with the sets
    last = est.take(np.array([1]))
    for whole, cut in zip(est.mechanisms, last.mechanisms):
        assert np.array_equal(cut.scale, whole.scale if np.ndim(whole.scale) == 0 else whole.scale[1:])
    assert last.ledger == est.ledger


def test_infinite_epsilon_records_charge_nothing():
    rng = np.random.default_rng(62)
    est = regression_private_mle(make_regression(rng, n=200), math.inf, rng)
    assert est.ledger.charges == ()
    assert est.mechanisms[2].scale.shape == (1,) and est.mechanisms[2].is_zero


class TestRssScalesPerSet:
    """The rss record is the only one whose scale differs by set, m_res^2 / dof
    with m_res >= m_y.  So every set's scale is positive for a response box of
    nonzero magnitude, and every set's is 0 for the box [0, 0], where y, X^T y
    and so every beta are 0.  No release mixes zero and positive scales, which
    ``LaplaceSpec.sample`` draws as one broadcast."""

    def test_positive_for_a_response_box_of_nonzero_magnitude(self):
        rng = np.random.default_rng(63)
        scale = regression_private_mle(make_regression(rng, n=200), 15.0, rng).noise_scales["rss"]
        assert scale.shape == (1,) and (scale > 0.0).all()

    def test_positive_on_every_fold_of_a_cross_validated_block(self, monkeypatch):
        releases, release = [], RegressionStatistics.release

        def spy(self, budget, rng):
            releases.append(release(self, budget, rng))
            return releases[-1]

        monkeypatch.setattr(RegressionStatistics, "release", spy)
        rng = np.random.default_rng(64)
        data = [make_regression(rng, n=803) for _ in range(3)]
        cv_choose_r(data, 30.0, GeneratorStack(generators(64, 3)), CVConfig(b_inner=50))
        (est,) = releases
        # each set's 5 training sets of 642 or 643 rows, then its 5 held-out
        # folds of 161 or 160: four degrees of freedom among the 30 sets
        assert est.sizes.size == 30 and set(est.sizes.tolist()) == {642, 643, 161, 160}
        assert (est.noise_scales["rss"] > 0.0).all()

    @pytest.mark.parametrize("sets", [1, 3])
    def test_zero_for_a_zero_response_box_where_no_generator_advances(self, sets):
        rng = np.random.default_rng(65)
        X = rng.uniform(-1.0, 1.0, (200, 3))
        data = RegressionData(X, rng.standard_normal(200), Bounds.symmetric(1.0, 3), Bounds(0.0, 0.0))
        stack = GeneratorStack(generators(65, sets))
        est = fold_statistics([data] * sets).release(30.0, stack)
        assert np.array_equal(est.noise_scales["rss"], np.zeros(sets)) and not est.betas.any()
        # each generator stands where the gram draw alone left it: the X^T y
        # and rss records, of scale 0, draw nothing
        ref = GeneratorStack(generators(65, sets))
        est.mechanisms[0].sample(ref, sets)
        assert [g.bit_generator.state for g in stack.generators] == [
            g.bit_generator.state for g in ref.generators
        ]


def generators(seed, count):
    return [np.random.default_rng((seed, i)) for i in range(count)]
