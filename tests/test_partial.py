import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

from dpextrema.cli import main
from dpextrema.extrema import ppb_lower_limit
from dpextrema.models import GaussianData, RegressionData, gaussian_private_mle, regression_private_mle
from dpextrema.partial import partial_gaussian_private_mle
from dpextrema.privacy import Bounds


class ScriptedRng:
    """Duck-typed generator that plays back prescribed Laplace draws.

    Lets a test force the same realized noise into two estimators whose
    calibrated scales differ, which a shared seed cannot do.
    """

    def __init__(self, laplace_values):
        self._queue = list(laplace_values)
        self._normal = np.random.default_rng(0)

    def laplace(self, loc, scale, size=None):
        values = np.asarray(self._queue.pop(0), dtype=float)
        expected = size if not isinstance(size, tuple) else size
        assert values.size == np.prod(expected), "scripted draw shape mismatch"
        return values.reshape(size if isinstance(size, tuple) else (size,))

    def standard_normal(self, size=None):
        return self._normal.standard_normal(size)


def assert_nuisance_unreleased(x1, x2, half_width, tmp_path):
    """Check that no nuisance statistic of a partitioned Gaussian is released.

    The nuisance mean and the covariance blocks sigma12 and sigma22 are
    computed here from the data.  None may appear in the estimate's released
    arrays or ``repr``, or in the JSON of ``ci gaussian --partial K1``.
    """
    k1 = x1.shape[1]
    bounds = Bounds.symmetric(half_width, k1)
    est = partial_gaussian_private_mle(GaussianData(x1, bounds), 1.5, np.random.default_rng(0))
    path, out = tmp_path / "partitioned.csv", tmp_path / "partitioned.json"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(k1 + x2.shape[1])])
        writer.writerows(np.hstack([x1, x2]).tolist())
    args = [
        "ci", "gaussian", "--input", str(path), f"--bounds=-{half_width}:{half_width}",
        "--epsilon", "1.5", "--partial", str(k1), "--seed", "1", "--B", "200", "--output", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    released = released_text(est) + out.read_text()

    cov = np.cov(np.hstack([bounds.clamp(x1), x2]), rowvar=False)
    nuisance = np.concatenate([x2.mean(axis=0), cov[:k1, k1:].ravel(), cov[k1:, k1:].ravel()])
    for value in nuisance:
        assert repr(float(value)) not in released
    assert "mu2" not in released and "sigma12" not in released


def released_text(est):
    """Every array of a released estimate at full precision, and its repr."""
    arrays = [v for v in vars(est).values() if isinstance(v, np.ndarray)] + list(est.repairs)
    return json.dumps([np.asarray(a).tolist() for a in arrays]) + repr(est)


def trial_design(rng, n=400, k1=2, k2=2, beta=(0.0, 0.5), gamma=(0.5, -0.5), sigma=1.0):
    """A randomized trial: its data (X, y), with W gamma left in y, and W."""
    groups = rng.integers(0, k1, size=n)
    treated = rng.integers(0, 2, size=n)
    X = np.zeros((n, k1))
    X[np.arange(n), groups] = treated
    W = rng.uniform(-1.0, 1.0, (n, k2))
    for s in range(k1):
        cell = (groups == s) & (treated == 1)
        if cell.any():
            W[cell] -= W[cell].mean(axis=0)
    y = X @ np.asarray(beta) + W @ np.asarray(gamma) + sigma * rng.standard_normal(n)
    y_hw = float(np.max(np.abs(beta)) + 2 * np.sum(np.abs(gamma)) + 4 * sigma)
    return RegressionData(X, y, Bounds(np.zeros(k1), np.ones(k1)), Bounds.symmetric(y_hw, 1)), W


class TestPartialGaussian:
    def test_block_estimate_matches_full_given_same_noise_realization(self):
        # the block mean depends on its own noisy sum alone, so forcing the
        # same realized w1 into both estimators must reproduce the block
        rng = np.random.default_rng(51)
        k1, k2 = 2, 2
        x = rng.standard_normal((100, k1 + k2))
        w1_full = np.array([0.3, -1.2, 0.7, 0.1])
        w2_full = np.zeros(10)  # upper triangle of a 4x4 matrix
        full = gaussian_private_mle(
            GaussianData(x, Bounds.symmetric(4.0, 4)),
            1.5,
            ScriptedRng([w1_full, w2_full]),
        )
        partial = partial_gaussian_private_mle(
            GaussianData(x[:, :k1], Bounds.symmetric(4.0, k1)),
            1.5,
            ScriptedRng([w1_full[:k1], np.zeros(3)]),
        )
        assert np.array_equal(partial.betas[0], full.betas[0, :k1])

    def test_reduction_recomputes_from_noisy_statistic_alone(self):
        rng = np.random.default_rng(52)
        data = GaussianData(rng.standard_normal((150, 2)), Bounds.symmetric(3.0, 2))
        rng.standard_normal((150, 3))  # the nuisance block, drawn and never read
        est = partial_gaussian_private_mle(data, 1.5, rng)
        assert np.array_equal(est.noisy_sums[0] / est.sizes[0], est.betas[0])

    def test_ledger_charges_only_block_statistics(self):
        rng = np.random.default_rng(53)
        data = GaussianData(rng.standard_normal((100, 2)), Bounds.symmetric(3.0, 2))
        rng.standard_normal((100, 2))  # the nuisance block, drawn and never read
        est = partial_gaussian_private_mle(data, 1.5, rng)
        assert len(est.ledger.charges) == 2
        assert est.ledger.total() == pytest.approx(1.5)

    def test_noise_scale_smaller_than_full_variant_at_matched_budget(self):
        rng = np.random.default_rng(54)
        x = rng.standard_normal((100, 4))
        full = gaussian_private_mle(GaussianData(x, Bounds.symmetric(3.0, 4)), 1.5, rng)
        partial = partial_gaussian_private_mle(
            GaussianData(x[:, :2], Bounds.symmetric(3.0, 2)), 1.5, rng
        )
        assert partial.noise_scales["sum"] < full.noise_scales["sum"]
        assert partial.noise_scales["gram"] < full.noise_scales["gram"]

    def test_released_surface_excludes_nuisance(self, tmp_path):
        rng = np.random.default_rng(55)
        x1 = rng.standard_normal((120, 2))
        x2 = rng.standard_normal((120, 3)) + 7.0  # distinctive nuisance values
        assert_nuisance_unreleased(x1, x2, 3.0, tmp_path)

    def test_bootstrap_uses_block_sample_size(self):
        rng = np.random.default_rng(56)
        data = GaussianData(rng.standard_normal((180, 2)), Bounds.symmetric(3.0, 2))
        rng.standard_normal((180, 2))  # the nuisance block, drawn and never read
        est = partial_gaussian_private_mle(data, 1.5, rng)
        assert est.sizes[0] == 180
        res = ppb_lower_limit(est, 0.1, np.random.default_rng(1), B=300)
        assert res.lower_limit + res.c_alpha / math.sqrt(180) == pytest.approx(
            est.betas[0].max(), abs=1e-15
        )

    def test_partial_interval_shorter_than_full_at_matched_budget(self):
        # same total budget: the block statistics have smaller sensitivity,
        # so noise scales shrink and the limit tightens
        reps = 300
        lengths_partial = np.empty(reps)
        lengths_full = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(808, spawn_key=(rep,)))
            x = rng.standard_normal((800, 4))
            full = gaussian_private_mle(GaussianData(x, Bounds.symmetric(3.0, 4)), 1.5, rng)
            res_full = ppb_lower_limit(full, 0.1, rng, B=300)
            partial = partial_gaussian_private_mle(
                GaussianData(x[:, :2], Bounds.symmetric(3.0, 2)), 1.5, rng
            )
            res_partial = ppb_lower_limit(partial, 0.1, rng, B=300)
            # compare on the shared interest coordinates (the first two)
            lengths_full[rep] = 0.0 - res_full.lower_limit if full.betas[
                0, :2
            ].max() == full.betas[0].max() else np.nan
            lengths_partial[rep] = 0.0 - res_partial.lower_limit
        assert np.nanmean(lengths_partial) < np.nanmean(lengths_full)


class TestPartialRegression:
    def test_zero_noise_matches_block_ols(self):
        rng = np.random.default_rng(61)
        data, W = trial_design(rng)
        est = regression_private_mle(data, math.inf, rng)
        x_only = np.linalg.solve(data.X.T @ data.X, data.X.T @ data.y)
        full_design = np.hstack([data.X, W])
        full_ols = np.linalg.solve(full_design.T @ full_design, full_design.T @ data.y)
        assert np.allclose(est.betas[0], x_only, rtol=1e-10, atol=1e-12)
        assert np.allclose(est.betas[0], full_ols[: data.k], rtol=1e-8, atol=1e-10)

    def test_residual_keeps_the_nuisance_fit(self):
        # W is not part of the data, so at eps = inf the residual mean square
        # is that of y on X alone, above that of y on X and W
        rng = np.random.default_rng(62)
        data, W = trial_design(rng)
        est = regression_private_mle(data, math.inf, rng)
        X, y = data.x_bounds.clamp(data.X), data.y_bounds.clamp(data.y)
        resid = y - X @ est.betas[0]
        assert est.sigma2s[0] == pytest.approx(resid @ resid / (data.n - data.k), rel=1e-12)
        full_design = np.hstack([X, W])
        full_resid = y - full_design @ np.linalg.lstsq(full_design, y, rcond=None)[0]
        assert est.sigma2s[0] > 1.1 * (full_resid @ full_resid) / (data.n - data.k - W.shape[1])

    def test_coefficients_do_not_read_the_nuisance_fit(self):
        # W is centred within every cell of the design, so X^T W = 0: at
        # eps = inf the fit W gamma moves the residual alone
        fits = [trial_design(np.random.default_rng(63), gamma=gamma) for gamma in ((0.0, 0.0), (2.0, -2.0))]
        (bare, _), (data, W) = fits
        assert np.array_equal(data.y_bounds.clamp(data.y), data.y)
        assert np.allclose(data.y - bare.y, W @ np.array([2.0, -2.0]), rtol=0.0, atol=1e-12)
        bare_est, est = (regression_private_mle(d, math.inf, np.random.default_rng(0)) for d, _ in fits)
        assert np.allclose(est.betas[0], bare_est.betas[0], rtol=0.0, atol=1e-12)
        assert est.sigma2s[0] > 2.0 * bare_est.sigma2s[0]

    def test_nuisance_statistics_are_internal_only(self):
        # the release never reads W, so none of W^T W, W^T X and W^T y may
        # reach the released surface
        rng = np.random.default_rng(64)
        data, W = trial_design(rng)
        est = regression_private_mle(data, 1.5, rng)
        X, y = data.x_bounds.clamp(data.X), data.y_bounds.clamp(data.y)
        nuisance = np.concatenate([(W.T @ W).ravel(), (W.T @ X).ravel(), W.T @ y])
        serialized = released_text(est)
        for value in nuisance[nuisance != 0.0]:
            assert repr(float(value)) not in serialized
        for name in ("gamma", "xtx", "xtz", "wtw", "wtx"):
            assert name not in serialized

    def test_reduction_recomputes_from_noisy_statistics_alone(self):
        rng = np.random.default_rng(65)
        data, _ = trial_design(rng)
        est = regression_private_mle(data, 1.5, rng)
        from dpextrema.linalg import psd_repair

        n = est.sizes[0]
        s = psd_repair(est.noisy_grams[0] / n).matrix
        beta = np.linalg.solve(n * s, est.noisy_xtys[0])
        assert np.array_equal(beta, est.betas[0])

    def test_zero_noise_draw_covariance(self):
        rng = np.random.default_rng(66)
        data, _ = trial_design(rng, n=600)
        est = regression_private_mle(data, math.inf, rng)
        B = 2000
        draws, failed = est.bootstrap_draws(B, np.random.default_rng(3))
        assert failed == 0
        scaled = math.sqrt(est.sizes[0]) * (draws - est.betas[0])
        target = est.sigma2s[0] * np.linalg.inv(est.repairs.matrix[0])
        sample_cov = np.cov(scaled.T)
        # indicator columns make the target off-diagonals structural zeros,
        # so allow the exact sampling error of a covariance estimate there
        diag = np.diag(target)
        moment_se = np.sqrt((np.outer(diag, diag) + target**2) / B)
        assert np.all(np.abs(sample_cov - target) <= 0.10 * np.abs(target) + 4 * moment_se)
        assert np.all(np.abs(np.diag(sample_cov) - diag) <= 0.10 * diag)

    def test_zero_score_identity_draw(self):
        rng = np.random.default_rng(67)
        data, _ = trial_design(rng)
        est = regression_private_mle(data, math.inf, rng)
        est.sigma2s[0] = 0.0
        est._root = None
        draws, failed = est.bootstrap_draws(1, np.random.default_rng(0))
        assert failed == 0
        assert np.allclose(draws[0], est.betas[0], atol=1e-14)

    def test_draw_determinism(self):
        rng = np.random.default_rng(68)
        data, _ = trial_design(rng)
        est = regression_private_mle(data, 1.5, rng)
        d1, _ = est.bootstrap_draws(1, np.random.default_rng(9))
        d2, _ = est.bootstrap_draws(1, np.random.default_rng(9))
        assert np.array_equal(d1, d2)

    def test_trial_design_coverage_at_desk_scale(self):
        # randomized-trial design with tied subgroup effects, n=800, eps=1.5,
        # r=1/10: coverage lands in a wide nominal window over 400 replications
        beta = (0.0, 0.0)
        reps = 400
        covered = 0
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(505, spawn_key=(rep,)))
            data, _ = trial_design(rng, n=800, beta=beta)
            est = regression_private_mle(data, 1.5, rng)
            res = ppb_lower_limit(est, 0.1, rng, B=400)
            covered += res.lower_limit <= max(beta)
        assert 0.90 <= covered / reps <= 0.97
