"""Privatized point estimation and parametric bootstrap draws.

Two concrete model families are implemented:

* multivariate Gaussian observations, where the coordinates of interest are
  the component means, and
* linear regression, where the coordinates of interest are the coefficients.

Both estimators add Laplace noise to the sufficient statistics (sums, gram
matrices, cross products) and post-process the noisy statistics into point
estimates; they never look at rows after forming the statistics.  One recipe
per model does this, ``GaussianStatistics.release`` and
``RegressionStatistics.release``, on a stack of data sets: a single estimate
is the release of a stack of one set, and cross-validation releases all of
its folds' training and held-out sets at once.  The bootstrap draws replay
the estimation recipe on data simulated from the fitted model, adding fresh
simulation-only Laplace noise of the same scale so the extra randomness of
privatization is reflected in the bootstrap distribution.

The Gaussian bootstrap never materializes the n simulated observations: the
resample mean of n i.i.d. N(mu, Sigma) draws has the exact law N(mu, Sigma/n),
so the mean is drawn directly from that law.  This is an identity, not an
approximation, and keeps Monte Carlo studies tractable.  The regression
bootstrap is already formulated in terms of the released statistics and never
touches the design matrix again.  Each regression replica solves its own
noisy system S + W/n; a Weyl bound on the noise certifies most systems
non-singular without an eigenvalue check, and without simulated gram noise
the one system S is checked once and solved against every replica at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import NumericError, ParameterError
from .linalg import RepairResult, eigen_sqrt, psd_floor, psd_repair_stack, sym_sqrt
from .privacy import (
    Bounds,
    LaplaceSpec,
    PrivacyLedger,
    laplace_symmetric_sample,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    sensitivity_sum_bounded,
    split_budget,
)

SIGMA2_FLOOR = 1e-8
#: Relative slack of the Weyl certificate in the regression bootstrap.  It is
#: far above the rounding error of eigvalsh, so a certified system can never
#: be one that the eigenvalue check would have flagged.
_CERTIFY_MARGIN = 1e-8
#: Released statistics of a regression estimate, in budget-split order.
REGRESSION_STATISTICS = ("gram", "xty", "rss")

__all__ = [
    "GaussianData",
    "GaussianStack",
    "GaussianStatistics",
    "PrivatizedGaussianEstimate",
    "RegressionData",
    "RegressionStack",
    "RegressionStatistics",
    "PrivatizedRegressionEstimate",
    "SIGMA2_FLOOR",
    "gaussian_private_mle",
    "regression_private_mle",
]


# ---------------------------------------------------------------------------
# multivariate Gaussian
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianData:
    """n observations of a k-dimensional vector, with declared coordinate bounds."""

    x: np.ndarray
    bounds: Bounds

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.ndim != 2 or x.shape[0] < 2:
            raise ParameterError("Gaussian data needs an (n, k) matrix with n >= 2")
        if x.shape[1] != self.bounds.k:
            raise ParameterError("bounds dimension does not match the data")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    def fold_statistics(self, folds: list[np.ndarray]) -> "GaussianStatistics":
        return GaussianStatistics.of_folds(self.bounds.clamp(self.x), self.bounds, folds)


@dataclass(eq=False)
class PrivatizedGaussianEstimate:
    """Noisy mean/covariance release plus everything needed to bootstrap it."""

    mu_priv: np.ndarray
    sigma_priv: np.ndarray
    n: int
    ledger: PrivacyLedger
    sum_noise: LaplaceSpec
    gram_noise: LaplaceSpec
    noisy_sum: np.ndarray   # released coordinate sum, noise included
    noisy_gram: np.ndarray  # released second-moment matrix, noise included
    repair: RepairResult
    _sigma_sqrt: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.mu_priv.size

    @property
    def beta_priv(self) -> np.ndarray:
        """Coordinates of interest (the component means)."""
        return self.mu_priv

    @property
    def degenerate(self) -> bool:
        return self.repair.degenerate

    def sigma_sqrt(self) -> np.ndarray:
        if self._sigma_sqrt is None:
            self._sigma_sqrt = sym_sqrt(self.sigma_priv)
        return self._sigma_sqrt

    def bootstrap_draws(
        self,
        size: int,
        rng: np.random.Generator,
        n: int | None = None,
        privacy_noise: bool = True,
    ) -> tuple[np.ndarray, int]:
        """Draw ``size`` bootstrap replicas of the privatized mean.

        Each replica is the mean of n simulated observations from
        N(mu_priv, sigma_priv) plus a fresh simulation-only Laplace noise of
        the estimation scale, divided by n.  ``privacy_noise=False`` skips the
        Laplace term (the ablation that ignores privatization randomness).
        Returns (draws, failed_count); Gaussian draws cannot fail.
        """
        m = self.n if n is None else int(n)
        if m < 1:
            raise ParameterError("bootstrap sample size must be >= 1")
        z = rng.standard_normal((size, self.k))
        draws = self.mu_priv + (z @ self.sigma_sqrt().T) / math.sqrt(m)
        if privacy_noise and not self.sum_noise.is_zero:
            draws = draws + self.sum_noise.sample(rng, size) / m
        return draws, 0

    def coordinate_variances(self, private: bool = True) -> np.ndarray:
        """Plug-in variance of each released mean coordinate.

        The private variant adds the Laplace noise variance 2 b^2 / n^2 of the
        privatized sum; both variants use only released quantities.
        """
        # reconstruction rounding in the PSD repair can leave a diagonal entry
        # a few ulps below zero in extreme-noise regimes
        v = np.maximum(np.diag(self.sigma_priv), 0.0) / self.n
        if private and not self.sum_noise.is_zero:
            v = v + 2.0 * self.sum_noise.scale**2 / self.n**2
        return v

    def to_dict(self) -> dict:
        return {
            "model": "gaussian",
            "n": self.n,
            "k": self.k,
            "mu_priv": self.mu_priv.tolist(),
            "sigma_priv": self.sigma_priv.tolist(),
            "noisy_sum": self.noisy_sum.tolist(),
            "noisy_gram": self.noisy_gram.tolist(),
            "noise_scales": {"sum": self.sum_noise.scale, "gram": self.gram_noise.scale},
            "repair": {"shift": self.repair.shift, "degenerate": self.repair.degenerate},
            "ledger": self.ledger.to_dict(),
        }


def _gaussian_from_noisy_stats(noisy_sum: np.ndarray, noisy_gram: np.ndarray, n):
    """Mean and (unrepaired) covariance implied by the noisy sufficient statistics.

    Also takes a stack of releases, with one count per release in ``n``.
    """
    n = np.asarray(n, dtype=float)[..., None]
    mu = noisy_sum / n
    outer = noisy_sum[..., :, None] * noisy_sum[..., None, :]
    sigma = noisy_gram / (n[..., None] - 1) - outer / (n * (n - 1))[..., None]
    return mu, 0.5 * (sigma + np.swapaxes(sigma, -1, -2))


def _gaussian_noise_specs(bounds: Bounds, eps_sum: float, eps_gram: float):
    """Laplace noise of the coordinate sums and of the gram matrix's free entries."""
    k = bounds.k
    sum_spec = LaplaceSpec.from_budget(
        sensitivity_sum_bounded(bounds.lower, bounds.upper).delta, eps_sum, k
    )
    gram_spec = LaplaceSpec.from_budget(
        sensitivity_gram_bounded(bounds.lower, bounds.upper).delta, eps_gram, k * (k + 1) // 2
    )
    return sum_spec, gram_spec


def _ledger(prefix: str, names: tuple[str, ...], epsilons: tuple[float, ...]) -> PrivacyLedger:
    ledger = PrivacyLedger()
    for name, eps in zip(names, epsilons):
        ledger = ledger.charge(f"{prefix}:{name}", eps)
    return ledger


def _release_whole(data, budget, rng: np.random.Generator):
    """Release ``data`` as a stack of one set that holds every row.

    The set is the fold ``slice(None)``, a view, so no row is copied.
    """
    return data.fold_statistics([slice(None)]).release(budget, rng)


def gaussian_private_mle(
    data: GaussianData, budget, rng: np.random.Generator
) -> PrivatizedGaussianEstimate:
    """Privatized mean and covariance from noisy sums and second moments.

    ``budget`` is either a total epsilon (split equally between the two
    sufficient statistics) or a pair of per-statistic epsilons.  The noisy
    covariance is repaired onto the PSD cone; a repair that shifts eigenvalue
    mass beyond the budget marks the estimate as degenerate but does not fail.
    The data are released by :meth:`GaussianStatistics.release`, as a stack of
    one set.
    """
    stack = _release_whole(data, budget, rng)
    repair = stack.repair.at(0)
    return PrivatizedGaussianEstimate(
        mu_priv=stack.beta[0],
        sigma_priv=repair.matrix,
        n=int(stack.n[0]),
        ledger=stack.ledger,
        sum_noise=stack.sum_noise,
        gram_noise=stack.gram_noise,
        noisy_sum=stack.noisy_sum[0],
        noisy_gram=stack.noisy_gram[0],
        repair=repair,
    )


# ---------------------------------------------------------------------------
# linear regression
# ---------------------------------------------------------------------------


def _solve_batch(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of k x k systems against a stack of k-vectors."""
    return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]


@dataclass(frozen=True, eq=False)
class RegressionData:
    """Design matrix and response with declared bounds for rows of X and for y."""

    X: np.ndarray
    y: np.ndarray
    x_bounds: Bounds
    y_bounds: Bounds

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ParameterError("X must be (n, k) with one response per row")
        if X.shape[0] <= X.shape[1]:
            raise ParameterError("regression needs n > k")
        if X.shape[1] != self.x_bounds.k:
            raise ParameterError("x_bounds dimension does not match the design")
        if self.y_bounds.k != 1:
            raise ParameterError("y_bounds must be a scalar range")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def fold_statistics(self, folds: list[np.ndarray]) -> "RegressionStatistics":
        return RegressionStatistics.of_folds(
            self.x_bounds.clamp(self.X), self.y_bounds.clamp(self.y), None, folds,
            self.x_bounds, self.y_bounds, 0.0,
        )


@dataclass(eq=False)
class PrivatizedRegressionEstimate:
    """Noisy coefficient release with the scaled gram matrix used to bootstrap it."""

    beta_priv: np.ndarray
    sigma2_priv: float
    S_priv: np.ndarray          # repaired (X^T X + noise) / n
    n: int
    ledger: PrivacyLedger
    gram_noise: LaplaceSpec     # noise on X^T X (per free entry)
    xty_noise: LaplaceSpec      # noise on X^T y
    rss_noise: LaplaceSpec      # noise on the residual mean square
    noisy_gram: np.ndarray
    noisy_xty: np.ndarray
    repair: RepairResult
    _cov_sqrt: np.ndarray | None = field(default=None, repr=False, compare=False)
    _s_inv: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.beta_priv.size

    @property
    def degenerate(self) -> bool:
        return self.repair.degenerate

    def _score_cov_sqrt(self) -> np.ndarray:
        if self._cov_sqrt is None:
            self._cov_sqrt = sym_sqrt(self.sigma2_priv * self.S_priv)
        return self._cov_sqrt

    def _s_priv_inv(self) -> np.ndarray:
        if self._s_inv is None:
            self._s_inv = np.linalg.inv(self.S_priv)
        return self._s_inv

    def bootstrap_draws(
        self,
        size: int,
        rng: np.random.Generator,
        n: int | None = None,
        privacy_noise: bool = True,
    ) -> tuple[np.ndarray, int]:
        """Draw bootstrap replicas of the privatized coefficients.

        Each replica solves (S + W1/n) b = S beta + (C + W2/sqrt(n)) / sqrt(n)
        with C ~ N(0, sigma2 S) and fresh simulation-only noise W1, W2 of the
        estimation scales.  A draw whose noisy matrix is numerically singular
        is retried once with fresh W1; a second failure drops the draw and is
        counted in the returned failure total.

        Only systems that may be singular get an eigenvalue check.  By Weyl's
        inequality every eigenvalue of S + W1/n lies within
        ||W1/n||_2 <= ||W1/n||_F of one of S, so a system whose Frobenius bound
        leaves the least eigenvalue of S above the floor, by a margin relative
        to the scale that covers rounding, is certified non-singular.  Without
        gram noise every system is S: it is checked once, and a singular S
        fails every draw, while a regular one is solved against all right-hand
        sides at once.
        """
        m = self.n if n is None else int(n)
        if m < 1:
            raise ParameterError("bootstrap sample size must be >= 1")
        k = self.k
        floor = psd_floor(self.S_priv)

        c = rng.standard_normal((size, k)) @ self._score_cov_sqrt().T
        if privacy_noise and not self.xty_noise.is_zero:
            c = c + self.xty_noise.sample(rng, size) / math.sqrt(m)
        rhs = (self.S_priv @ self.beta_priv)[None, :] + c / math.sqrt(m)

        if not privacy_noise or self.gram_noise.is_zero:
            if self._near_singular(self.S_priv[None], floor)[0]:
                return np.empty((0, k)), size
            return np.linalg.solve(self.S_priv, rhs.T).T, 0

        s_eigvals = np.linalg.eigvalsh(self.S_priv)
        systems, bad = self._noisy_systems(size, m, rng, floor, s_eigvals)
        draws = np.empty((size, k))
        good = ~bad
        if good.any():
            draws[good] = _solve_batch(systems[good], rhs[good])

        failed = 0
        if bad.any():
            retry_idx = np.flatnonzero(bad)
            retries, still_bad = self._noisy_systems(retry_idx.size, m, rng, floor, s_eigvals)
            ok = ~still_bad
            if ok.any():
                draws[retry_idx[ok]] = _solve_batch(retries[ok], rhs[retry_idx[ok]])
            failed = int(still_bad.sum())
            if failed:
                keep = np.ones(size, dtype=bool)
                keep[retry_idx[still_bad]] = False
                draws = draws[keep]
        return draws, failed

    def _noisy_systems(
        self, count: int, m: int, rng: np.random.Generator, floor: float, s_eigvals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` systems S + W1/m and their near-singularity flags.

        ``s_eigvals`` are the ascending eigenvalues of S; only the systems that
        the Weyl bound does not certify go through :meth:`_near_singular`.
        """
        noise = laplace_symmetric_sample(self.gram_noise.scale, self.k, rng, count)
        noise /= m
        systems = self.S_priv + noise
        bound = np.sqrt(np.einsum("bij,bij->b", noise, noise))
        margin = _CERTIFY_MARGIN * (s_eigvals[-1] + bound)
        flags = s_eigvals[0] - bound - margin < floor
        if flags.any():
            flags[flags] = self._near_singular(systems[flags], floor)
        return systems, flags

    @staticmethod
    def _near_singular(systems: np.ndarray, floor: float) -> np.ndarray:
        eigvals = np.linalg.eigvalsh(systems)
        return np.abs(eigvals).min(axis=1) < floor

    def coordinate_variances(self, private: bool = True) -> np.ndarray:
        """Plug-in variance of each released coefficient.

        sigma2 * S^{-1} / n for the sampling part; the private variant adds
        the propagated Laplace variance of the noisy cross product,
        S^{-1} (2 b^2 I) S^{-1} / n^2.
        """
        s_inv = self._s_priv_inv()
        v = self.sigma2_priv * np.diag(s_inv) / self.n
        if private and not self.xty_noise.is_zero:
            v = v + 2.0 * self.xty_noise.scale**2 * np.diag(s_inv @ s_inv) / self.n**2
        return v

    def to_dict(self) -> dict:
        return {
            "model": "regression",
            "n": self.n,
            "k": self.k,
            "beta_priv": self.beta_priv.tolist(),
            "sigma2_priv": self.sigma2_priv,
            "S_priv": self.S_priv.tolist(),
            "noisy_gram": self.noisy_gram.tolist(),
            "noisy_xty": self.noisy_xty.tolist(),
            "noise_scales": {
                "gram": self.gram_noise.scale,
                "xty": self.xty_noise.scale,
                "rss": self.rss_noise.scale,
            },
            "repair": {"shift": self.repair.shift, "degenerate": self.repair.degenerate},
            "ledger": self.ledger.to_dict(),
        }


_SINGULAR_GRAM = "noisy gram matrix is irreparably singular; widen the budget or bounds"


def _regression_noise_specs(z_bounds: Bounds, y_bounds: Bounds, eps_gram: float, eps_xty: float):
    """Laplace noise of the gram matrix's free entries and of the cross product."""
    k = z_bounds.k
    gram_spec = LaplaceSpec.from_budget(
        sensitivity_gram_bounded(z_bounds.lower, z_bounds.upper).delta, eps_gram, k * (k + 1) // 2
    )
    xty_spec = LaplaceSpec.from_budget(
        sensitivity_cross_bounded(
            z_bounds.lower, z_bounds.upper, y_bounds.lower, y_bounds.upper
        ).delta,
        eps_xty,
        k,
    )
    return gram_spec, xty_spec


def _residual_noise_scale(
    rss_mean: float,
    beta: np.ndarray,
    z_bounds: Bounds,
    y_bounds: Bounds,
    eps_rss: float,
    dof: int,
    extra_fit_bound: float,
    rng: np.random.Generator,
) -> tuple[float, LaplaceSpec]:
    """Privatize the residual mean square.

    The per-record squared residual is bounded by the box ranges and the
    already-released coefficients (post-processing of a DP output may
    calibrate the next mechanism), so the sensitivity is
    (m_y + sum_j m_j |beta_j| + extra)^2 / dof.
    """
    m_res = float(
        y_bounds.magnitudes[0]
        + np.sum(z_bounds.magnitudes * np.abs(beta))
        + extra_fit_bound
    )
    rss_spec = LaplaceSpec.from_budget(m_res**2 / dof, eps_rss, 1)
    sigma2 = rss_mean + float(rss_spec.sample(rng)[0])
    return max(sigma2, SIGMA2_FLOOR), rss_spec


def regression_private_mle(data, budget, rng: np.random.Generator) -> PrivatizedRegressionEstimate:
    """Privatized OLS coefficients and residual variance.

    ``data`` is :class:`RegressionData` or, with nuisance covariates,
    :class:`~dpextrema.partial.NuisanceRegressionData`.  ``budget`` is a total
    epsilon split equally across the three released statistics (gram matrix,
    cross product, residual mean square) or an explicit triple.  The data are
    released by :meth:`RegressionStatistics.release`, as a stack of one set:
    the residual sum of squares comes from the statistics, less what the
    nuisance fit explains, and its noisy mean is clipped below at a small
    positive floor so the bootstrap stays well defined.  Raises
    :class:`NumericError` when the noisy gram matrix is irreparably singular.
    """
    return _release_whole(data, budget, rng).estimates[0]


# ---------------------------------------------------------------------------
# stacked releases of many data sets
# ---------------------------------------------------------------------------
#
# Both estimators see the data only through additive sufficient statistics,
# so a data set is described by one row of clamped statistics, and every
# release goes through these classes: a single estimate is a stack of one set,
# and cross-validation releases its 2v overlapping sets together, with the
# noise scales derived once and one eigh repairing the whole stack.


@dataclass(frozen=True, eq=False)
class GaussianStatistics:
    """Clamped count, coordinate sums and gram matrix of each of F data sets."""

    bounds: Bounds
    n: np.ndarray      # (F,)
    sums: np.ndarray   # (F, k)
    grams: np.ndarray  # (F, k, k)

    # class attributes, not fields: the statistics that add up over sets, and
    # the fewest rows a set needs (the covariance divides by n - 1)
    ADDITIVE = ("n", "sums", "grams")
    min_rows = 2

    @classmethod
    def of_folds(
        cls, x: np.ndarray, bounds: Bounds, folds: list[np.ndarray]
    ) -> "GaussianStatistics":
        """Statistics of the rows of the clamped ``x`` indexed by each fold
        (an index array or a slice)."""
        parts = [x[f] for f in folds]
        return cls(
            bounds,
            np.array([p.shape[0] for p in parts]),
            np.array([p.sum(axis=0) for p in parts]),
            np.array([p.T @ p for p in parts]),
        )

    def release(self, budget, rng: np.random.Generator) -> "GaussianStack":
        """Every set's Gaussian release, as one stack."""
        eps_sum, eps_gram = split_budget(budget, 2)
        sum_spec, gram_spec = _gaussian_noise_specs(self.bounds, eps_sum, eps_gram)
        sets, k = self.sums.shape
        noisy_sum = self.sums + sum_spec.sample(rng, sets)
        noisy_gram = self.grams + laplace_symmetric_sample(gram_spec.scale, k, rng, sets)
        mu, sigma = _gaussian_from_noisy_stats(noisy_sum, noisy_gram, self.n)
        repair, eigvals, eigvecs = psd_repair_stack(sigma)
        return GaussianStack(
            beta=mu,
            repair=repair,
            sigma_sqrt=eigen_sqrt(eigvals, eigvecs),
            n=self.n.astype(float),
            sum_noise=sum_spec,
            gram_noise=gram_spec,
            noisy_sum=noisy_sum,
            noisy_gram=noisy_gram,
            ledger=_ledger("gaussian", ("sum", "gram"), (eps_sum, eps_gram)),
        )


@dataclass(eq=False)
class GaussianStack:
    """Privatized means and repaired covariances of F data sets."""

    beta: np.ndarray        # (F, k) released means
    repair: RepairResult    # repaired (F, k, k) covariances, one entry per set
    sigma_sqrt: np.ndarray  # (F, k, k)
    n: np.ndarray           # (F,)
    sum_noise: LaplaceSpec
    gram_noise: LaplaceSpec
    noisy_sum: np.ndarray   # (F, k) released coordinate sums
    noisy_gram: np.ndarray  # (F, k, k) released second-moment matrices
    ledger: PrivacyLedger   # the charges of one set's release

    def coordinate_variances(self) -> np.ndarray:
        """(F, k) private plug-in variances, as the single estimate computes them."""
        n = self.n[:, None]
        v = np.maximum(np.diagonal(self.repair.matrix, axis1=-2, axis2=-1), 0.0) / n
        if not self.sum_noise.is_zero:
            v = v + 2.0 * self.sum_noise.scale**2 / n**2
        return v

    def bootstrap_draws(self, size: int, rng: np.random.Generator, sets: int) -> np.ndarray:
        """(sets, size, k) bootstrap replicas of the first ``sets`` releases.

        Each set's replicas follow :meth:`PrivatizedGaussianEstimate.bootstrap_draws`.
        """
        n = self.n[:sets, None, None]
        z = rng.standard_normal((sets, size, self.beta.shape[1]))
        draws = self.beta[:sets, None, :] + (z @ self.sigma_sqrt[:sets]) / np.sqrt(n)
        if not self.sum_noise.is_zero:
            draws = draws + self.sum_noise.sample(rng, (sets, size)) / n
        return draws


@dataclass(frozen=True, eq=False)
class RegressionStatistics:
    """Clamped Z^T Z, Z^T y and y^T y, with the count, of each of F data sets.

    Nuisance covariates X add X^T X, X^T Z and X^T y.  Their fit is never
    released: it is removed from each set's residual, and ``fit_bound`` bounds
    |x^T gamma| in the residual-variance sensitivity.
    """

    z_bounds: Bounds
    y_bounds: Bounds
    fit_bound: float
    n: np.ndarray                 # (F,)
    ztz: np.ndarray               # (F, k, k)
    zty: np.ndarray               # (F, k)
    yty: np.ndarray               # (F,)
    xtx: np.ndarray | None = None
    xtz: np.ndarray | None = None
    xty: np.ndarray | None = None

    # a class attribute, not a field: the statistics that add up over sets
    ADDITIVE = ("n", "ztz", "zty", "yty", "xtx", "xtz", "xty")

    @classmethod
    def of_folds(
        cls,
        Z: np.ndarray,
        y: np.ndarray,
        X: np.ndarray | None,
        folds: list[np.ndarray],
        z_bounds: Bounds,
        y_bounds: Bounds,
        fit_bound: float,
    ) -> "RegressionStatistics":
        """Statistics of the rows indexed by each fold (an index array or a
        slice); Z and y come clamped."""
        rows = []
        for f in folds:
            z, t = Z[f], y[f]
            row = [t.size, z.T @ z, z.T @ t, t @ t]
            if X is not None:
                x = X[f]
                row += [x.T @ x, x.T @ z, x.T @ t]
            rows.append(row)
        return cls(z_bounds, y_bounds, float(fit_bound), *(np.array(s) for s in zip(*rows)))

    @property
    def min_rows(self) -> int:
        """Fewest rows a set needs for one residual degree of freedom."""
        k2 = 0 if self.xtx is None else self.xtx.shape[-1]
        return self.zty.shape[1] + k2 + 1

    def release(self, budget, rng: np.random.Generator) -> "RegressionStack":
        """Every set's regression release, one estimate per set.

        Raises :class:`NumericError` when any set's noisy gram matrix is
        irreparably singular.
        """
        eps_gram, eps_xty, eps_rss = split_budget(budget, 3)
        gram_spec, xty_spec = _regression_noise_specs(
            self.z_bounds, self.y_bounds, eps_gram, eps_xty
        )
        sets, k = self.zty.shape
        noisy_gram = self.ztz + laplace_symmetric_sample(gram_spec.scale, k, rng, sets)
        noisy_xty = self.zty + xty_spec.sample(rng, sets)
        n = self.n.astype(float)[:, None, None]
        repair, _, _ = psd_repair_stack(noisy_gram / n)
        if repair.degenerate.any():
            raise NumericError(_SINGULAR_GRAM)
        beta = _solve_batch(n * repair.matrix, noisy_xty)

        # |y - Z beta|^2 from the statistics, less what the nuisance fit explains
        rss = (
            self.yty
            - 2.0 * np.einsum("fi,fi->f", beta, self.zty)
            + np.einsum("fi,fij,fj->f", beta, self.ztz, beta)
        )
        if self.xtx is not None:
            xtr = self.xty - np.einsum("fij,fj->fi", self.xtz, beta)
            rss = rss - np.einsum("fi,fij,fj->f", xtr, np.linalg.pinv(self.xtx), xtr)
        dof = self.n - (self.min_rows - 1)

        ledger = _ledger("regression", REGRESSION_STATISTICS, (eps_gram, eps_xty, eps_rss))
        estimates = []
        for f in range(sets):
            sigma2, rss_spec = _residual_noise_scale(
                float(rss[f]) / dof[f], beta[f], self.z_bounds, self.y_bounds,
                eps_rss, int(dof[f]), self.fit_bound, rng,
            )
            estimates.append(
                PrivatizedRegressionEstimate(
                    beta_priv=beta[f],
                    sigma2_priv=sigma2,
                    S_priv=repair.matrix[f],
                    n=int(self.n[f]),
                    ledger=ledger,
                    gram_noise=gram_spec,
                    xty_noise=xty_spec,
                    rss_noise=rss_spec,
                    noisy_gram=noisy_gram[f],
                    noisy_xty=noisy_xty[f],
                    repair=repair.at(f),
                )
            )
        return RegressionStack(estimates)


@dataclass(eq=False)
class RegressionStack:
    """Privatized regression releases of F data sets, one estimate per set."""

    estimates: list[PrivatizedRegressionEstimate]

    @property
    def beta(self) -> np.ndarray:
        return np.stack([e.beta_priv for e in self.estimates])

    @property
    def n(self) -> np.ndarray:
        return np.array([e.n for e in self.estimates], dtype=float)

    @property
    def ledger(self) -> PrivacyLedger:
        return self.estimates[0].ledger

    def coordinate_variances(self) -> np.ndarray:
        return np.stack([e.coordinate_variances() for e in self.estimates])

    def bootstrap_draws(self, size: int, rng: np.random.Generator, sets: int) -> np.ndarray:
        """(sets, size, k) bootstrap replicas of the first ``sets`` estimates.

        A draw that failed after its retry is left as a NaN row.
        """
        draws = np.full((sets, size, self.estimates[0].k), np.nan)
        for f, est in enumerate(self.estimates[:sets]):
            d, _ = est.bootstrap_draws(size, rng)
            draws[f, : d.shape[0]] = d
        return draws
