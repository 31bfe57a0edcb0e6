import math

import numpy as np
import pytest

from dpextrema.errors import NumericError, ParameterError
from dpextrema.linalg import eigen_sqrt, psd_floor, psd_repair, psd_repair_stack, sym_sqrt
from dpextrema.models import (
    SIGMA2_FLOOR,
    GaussianData,
    PrivatizedRegressionEstimate,
    RegressionData,
    gaussian_private_mle,
    regression_private_mle,
)
from dpextrema.partial import NuisanceRegressionData
from dpextrema.privacy import (
    Bounds,
    LaplaceSpec,
    PrivacyLedger,
    laplace_symmetric_sample,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    split_budget,
)

WIDE = 5.0  # box that never clips the small test datasets below


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
        repair, eigvals, eigvecs = psd_repair_stack(stack)
        assert repair.shift[0] == 0.0 and repair.degenerate.any() and not repair.degenerate.all()
        for f, m in enumerate(stack):
            one = psd_repair(m)
            assert np.allclose(repair.matrix[f], one.matrix, atol=1e-12)
            assert repair.shift[f] == pytest.approx(one.shift, abs=1e-12)
            assert repair.floor[f] == one.floor
            assert repair.degenerate[f] == one.degenerate
            root = eigen_sqrt(eigvals[f], eigvecs[f])
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
            assert np.allclose(est.mu_priv, mean, rtol=1e-10, atol=1e-12)
            assert np.allclose(est.sigma_priv, cov, rtol=1e-10, atol=1e-12)
            assert est.ledger.total() == 0.0

    def test_zero_noise_bit_for_bit_equals_manually_zeroed_noise(self):
        rng = np.random.default_rng(12)
        data = make_gaussian(rng)
        est = gaussian_private_mle(data, math.inf, rng)
        assert np.array_equal(est.noisy_sum, data.x.sum(axis=0))
        assert np.array_equal(est.noisy_gram, data.x.T @ data.x)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        data = make_gaussian(rng)
        est1 = gaussian_private_mle(data, 1.5, np.random.default_rng(99))
        est2 = gaussian_private_mle(data, 1.5, np.random.default_rng(99))
        assert np.array_equal(est1.mu_priv, est2.mu_priv)
        assert np.array_equal(est1.sigma_priv, est2.sigma_priv)
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
        assert np.array_equal(est_raw.mu_priv, est_pre.mu_priv)
        assert np.array_equal(est_raw.sigma_priv, est_pre.sigma_priv)

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
            total += est.mu_priv
        assert np.all(np.abs(total / reps - truth) < 0.01)

    def test_repair_noop_on_clean_data(self):
        rng = np.random.default_rng(15)
        est = gaussian_private_mle(make_gaussian(rng, n=200), math.inf, rng)
        assert est.repair.shift == 0.0
        assert not est.degenerate

    def test_degenerate_repair_flagged_not_raised(self):
        rng = np.random.default_rng(16)
        data = make_gaussian(rng, n=5, k=2, half_width=WIDE)
        est = gaussian_private_mle(data, 0.001, rng)  # noise dwarfs the data
        assert est.degenerate
        # PSD up to eigendecomposition reconstruction rounding
        ev = np.linalg.eigvalsh(est.sigma_priv)
        assert ev.min() >= -1e-9 * np.abs(est.sigma_priv).max()

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
        # E*[mean draw] = mu_priv; variance = sigma_priv / n
        se = np.sqrt(np.diag(est.sigma_priv) / est.n / 2000)
        assert np.all(np.abs(draws.mean(axis=0) - est.mu_priv) < 3 * se)

    def test_draw_mean_and_variance_with_noise(self):
        rng = np.random.default_rng(22)
        est = gaussian_private_mle(make_gaussian(rng, n=150, k=2), 2.0, rng)
        draws, _ = est.bootstrap_draws(2000, np.random.default_rng(2))
        target_var = np.diag(est.sigma_priv) / est.n + 2 * est.sum_noise.scale**2 / est.n**2
        se = np.sqrt(target_var / 2000)
        assert np.all(np.abs(draws.mean(axis=0) - est.mu_priv) < 3 * se)
        assert np.all(np.abs(draws.var(axis=0) - target_var) < 0.10 * target_var)

    def test_single_draw(self):
        rng = np.random.default_rng(23)
        est = gaussian_private_mle(make_gaussian(rng), 1.0, rng)
        d, failed = est.bootstrap_draws(1, np.random.default_rng(9), n=est.n)
        assert d.shape == (1, est.k) and failed == 0

    def test_coordinate_variances(self):
        rng = np.random.default_rng(24)
        est = gaussian_private_mle(make_gaussian(rng, n=100, k=2), 1.0, rng)
        base = np.diag(est.sigma_priv) / est.n
        noise = 2 * est.sum_noise.scale**2 / est.n**2
        assert np.allclose(est.coordinate_variances(private=False), base)
        assert np.allclose(est.coordinate_variances(private=True), base + noise)


class TestRegressionEstimator:
    def test_zero_noise_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(10, 51))
            k = int(rng.integers(1, 5))
            data = make_regression(rng, n=n, k=k)
            est = regression_private_mle(data, math.inf, rng)
            ols = np.linalg.solve(data.X.T @ data.X, data.X.T @ data.y)
            assert np.allclose(est.beta_priv, ols, rtol=1e-10, atol=1e-12)

    def test_noiseless_responses_zero_variance_before_clipping(self):
        rng = np.random.default_rng(32)
        X = rng.uniform(-1.0, 1.0, (50, 2))
        beta = np.array([0.5, -1.0])
        data = RegressionData(X, X @ beta, Bounds.symmetric(1.0, 2), Bounds.symmetric(3.0, 1))
        est = regression_private_mle(data, math.inf, rng)
        resid = data.y - data.X @ est.beta_priv
        assert float(resid @ resid) == pytest.approx(0.0, abs=1e-18)
        assert est.sigma2_priv == SIGMA2_FLOOR  # clipped up from exactly 0

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
            total += est.beta_priv
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


def reference_regression_release(data, budget, rng):
    """The row-based regression release, kept as the reference.

    Solves the noisy normal equations, takes the residuals of the clamped
    rows, removes the nuisance fit by least squares on X, and noises the
    residual mean square.  Returns the released values by name.
    """
    eps_gram, eps_xty, eps_rss = split_budget(budget, 3)
    if isinstance(data, RegressionData):
        Z, X, z_bounds, fit_bound = data.X, None, data.x_bounds, 0.0
    else:
        Z, X, z_bounds, fit_bound = data.Z, data.X, data.z_bounds, data.fit_bound
    Z, y = z_bounds.clamp(Z), data.y_bounds.clamp(data.y)
    n, k = Z.shape
    gram_spec = LaplaceSpec.from_budget(
        sensitivity_gram_bounded(z_bounds.lower, z_bounds.upper).delta, eps_gram, k * (k + 1) // 2
    )
    xty_spec = LaplaceSpec.from_budget(
        sensitivity_cross_bounded(
            z_bounds.lower, z_bounds.upper, data.y_bounds.lower, data.y_bounds.upper
        ).delta,
        eps_xty,
        k,
    )
    noisy_gram = Z.T @ Z + laplace_symmetric_sample(gram_spec.scale, k, rng)
    noisy_xty = Z.T @ y + xty_spec.sample(rng)
    repair = psd_repair(noisy_gram / n)
    if repair.degenerate:
        raise NumericError("irreparable")
    beta = np.linalg.solve(n * repair.matrix, noisy_xty)

    resid = y - Z @ beta
    dof = n - k
    if X is not None:
        gamma, *_ = np.linalg.lstsq(X, resid, rcond=None)
        resid = resid - X @ gamma
        dof -= X.shape[1]
    m_res = data.y_bounds.magnitudes[0] + np.sum(z_bounds.magnitudes * np.abs(beta)) + fit_bound
    rss_spec = LaplaceSpec.from_budget(float(m_res) ** 2 / dof, eps_rss, 1)
    sigma2 = max(float(resid @ resid) / dof + float(rss_spec.sample(rng)[0]), SIGMA2_FLOOR)
    ledger = PrivacyLedger()
    for name, eps in zip(("gram", "xty", "rss"), (eps_gram, eps_xty, eps_rss)):
        ledger = ledger.charge(f"regression:{name}", eps)
    return dict(
        beta=beta, S=repair.matrix, noisy_gram=noisy_gram, noisy_xty=noisy_xty,
        scales=(gram_spec.scale, xty_spec.scale, rss_spec.scale), sigma2=sigma2, ledger=ledger,
    )


def orthogonal_nuisance_data(rng, n, with_x=True):
    """Interest design Z and, optionally, nuisance covariates X orthogonal to it."""
    Z = rng.uniform(-1.0, 1.0, (n, 2))
    x = rng.standard_normal((n, 2))
    X = x - Z @ np.linalg.solve(Z.T @ Z, Z.T @ x)
    y = Z @ np.array([0.2, 0.5]) + X @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    return NuisanceRegressionData(
        Z, X if with_x else None, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(8.0, 1)
    )


class TestSingleSetReleaseReference:
    """The one-set stacked release reproduces the row-based recipe."""

    CASES = {
        "regression": lambda rng, n: make_regression(rng, n=n, k=3),
        "nuisance": lambda rng, n: orthogonal_nuisance_data(rng, n),
        "no-nuisance": lambda rng, n: orthogonal_nuisance_data(rng, n, with_x=False),
    }

    @staticmethod
    def compare(data, budget, seed):
        try:
            ref = reference_regression_release(data, budget, np.random.default_rng(seed))
        except NumericError:
            with pytest.raises(NumericError):
                regression_private_mle(data, budget, np.random.default_rng(seed))
            return None
        est = regression_private_mle(data, budget, np.random.default_rng(seed))
        assert np.array_equal(est.beta_priv, ref["beta"])
        assert np.array_equal(est.S_priv, ref["S"])
        assert np.array_equal(est.noisy_gram, ref["noisy_gram"])
        assert np.array_equal(est.noisy_xty, ref["noisy_xty"])
        assert (est.gram_noise.scale, est.xty_noise.scale, est.rss_noise.scale) == ref["scales"]
        assert est.ledger == ref["ledger"]
        assert est.sigma2_priv == pytest.approx(ref["sigma2"], rel=1e-12, abs=0.0)
        return est

    @pytest.mark.parametrize("case", CASES)
    def test_matches_row_recipe(self, case):
        for seed in range(5):
            data = self.CASES[case](np.random.default_rng(seed), 400)
            assert self.compare(data, 1.5, seed) is not None
            assert self.compare(data, math.inf, seed) is not None

    @pytest.mark.parametrize("case", CASES)
    def test_matches_row_recipe_on_clipped_releases(self, case):
        # n = 50, eps = 0.2: most releases are irreparable, a few clip eigenvalues
        clipped = 0
        for seed in range(80):
            data = self.CASES[case](np.random.default_rng(seed), 50)
            est = self.compare(data, 0.2, seed)
            clipped += est is not None and est.repair.shift > 0.0
        assert clipped > 0


def make_degenerate_regression_estimate():
    """An estimate whose bootstrap systems are singular on every attempt."""
    s = np.diag([1e-20, 1.0])  # min |eig| far below the repair floor
    return PrivatizedRegressionEstimate(
        beta_priv=np.array([0.0, 1.0]),
        sigma2_priv=1.0,
        S_priv=s,
        n=100,
        ledger=PrivacyLedger(),
        gram_noise=LaplaceSpec(0.0, 3),
        xty_noise=LaplaceSpec(0.0, 2),
        rss_noise=LaplaceSpec(0.0, 1),
        noisy_gram=100 * s,
        noisy_xty=np.zeros(2),
        repair=psd_repair(np.eye(2)),
    )


def make_near_floor_regression_estimate(seed, lam, rel_scale, k=3, n=100):
    """An estimate whose least eigenvalue ``lam`` sits a few floors above the
    singularity floor, with gram noise of ``rel_scale * lam`` per scaled entry."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = (q * np.r_[np.linspace(1.0, 0.5, k - 1), lam]) @ q.T
    s = 0.5 * (s + s.T)
    return PrivatizedRegressionEstimate(
        beta_priv=rng.standard_normal(k),
        sigma2_priv=1.0,
        S_priv=s,
        n=n,
        ledger=PrivacyLedger(),
        gram_noise=LaplaceSpec(rel_scale * lam * n, k * (k + 1) // 2),
        xty_noise=LaplaceSpec(0.5, k),
        rss_noise=LaplaceSpec(0.0, 1),
        noisy_gram=n * s,
        noisy_xty=np.zeros(k),
        repair=psd_repair(s),
    )


def reference_bootstrap_draws(est, size, rng, n=None, privacy_noise=True):
    """The regression bootstrap with an eigenvalue check of every system."""
    m = est.n if n is None else int(n)
    k = est.k
    floor = psd_floor(est.S_priv)

    c = rng.standard_normal((size, k)) @ est._score_cov_sqrt().T
    if privacy_noise and not est.xty_noise.is_zero:
        c = c + est.xty_noise.sample(rng, size) / math.sqrt(m)
    rhs = (est.S_priv @ est.beta_priv)[None, :] + c / math.sqrt(m)

    def attempt(count):
        systems = np.broadcast_to(est.S_priv, (count, k, k)).copy()
        if privacy_noise and not est.gram_noise.is_zero:
            systems += laplace_symmetric_sample(est.gram_noise.scale, k, rng, count) / m
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
                    est = make_near_floor_regression_estimate(seed, lam, rel_scale)
                    for m in (None, 60):
                        draws, failed = est.bootstrap_draws(size, np.random.default_rng(seed), n=m)
                        ref_draws, ref_failed = reference_bootstrap_draws(
                            est, size, np.random.default_rng(seed), n=m
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
                clipped += est.repair.shift > 0.0
        assert compared > 3 and clipped > 0

    def test_noiseless_draws_match_per_draw_solves(self):
        rng = np.random.default_rng(44)
        est = regression_private_mle(make_regression(rng, n=400, k=4), 20.0, rng)
        for privacy_noise in (False, True):
            if privacy_noise:
                est.gram_noise = LaplaceSpec(0.0, est.gram_noise.dimension)
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
        scaled = math.sqrt(est.n) * (draws - est.beta_priv)
        target = est.sigma2_priv * np.linalg.inv(est.S_priv)
        sample_cov = np.cov(scaled.T)
        assert np.all(np.abs(sample_cov - target) <= 0.10 * np.abs(target))

    def test_forced_identity_case(self):
        # zero score covariance and zero noise reproduce the estimate exactly
        rng = np.random.default_rng(42)
        est = regression_private_mle(make_regression(rng, n=120), math.inf, rng)
        est.sigma2_priv = 0.0
        est._cov_sqrt = None
        draws, failed = est.bootstrap_draws(1, np.random.default_rng(0))
        assert failed == 0
        assert np.allclose(draws[0], est.beta_priv, atol=1e-14)

    def test_every_draw_failing_is_counted(self):
        est = make_degenerate_regression_estimate()
        draws, failed = est.bootstrap_draws(50, np.random.default_rng(1))
        assert failed == 50 and draws.shape == (0, 2)
        draws, failed = est.bootstrap_draws(1, np.random.default_rng(1), n=est.n)
        assert failed == 1 and draws.shape == (0, 2)
        draws, failed = est.bootstrap_draws(50, np.random.default_rng(1), privacy_noise=False)
        assert failed == 50 and draws.shape == (0, 2)

    def test_coordinate_variances_private_exceeds_nonprivate(self):
        rng = np.random.default_rng(43)
        est = regression_private_mle(make_regression(rng, n=400), 1.5, rng)
        assert np.all(
            est.coordinate_variances(private=True) > est.coordinate_variances(private=False)
        )
