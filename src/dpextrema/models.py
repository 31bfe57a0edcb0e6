"""Privatized point estimation and parametric bootstrap draws.

Two concrete model families are implemented:

* multivariate Gaussian observations, where the coordinates of interest are
  the component means, and
* linear regression, where the coordinates of interest are the coefficients;
  ``RegressionData(X, y, x_bounds, y_bounds, nuisance=W)`` adds nuisance
  covariates W orthogonal to X, whose fit is removed from the residual
  variance but never released, so only the statistics of X are noised.

Both estimators add Laplace noise to the sufficient statistics (sums, gram
matrices, cross products) and post-process the noisy statistics into point
estimates; they never look at rows after forming the statistics.  One recipe
per model does this, ``GaussianStatistics.release`` and
``RegressionStatistics.release``, on a stack of data sets, and it returns the
model's one estimate class, which holds all F sets along a leading axis.  A
single estimate is that class with F = 1, whose arrays hold one row;
cross-validation releases all of its folds' training and held-out sets at
once and draws every training set's replicas in one ``replica_draws`` call,
and the single-estimate limits of :mod:`~dpextrema.extrema` draw set 0's
replicas as one ``replica_draws`` call on a stack of one.  The Monte Carlo
harness releases a block of replications the same way, with a
:class:`~dpextrema.privacy.GeneratorStack` holding one generator per
replication, so each replication draws what it would draw alone.  The
bootstrap draws replay the estimation recipe on data simulated from the
fitted model, adding fresh simulation-only Laplace noise of the same scale so
the extra randomness of privatization is reflected in the bootstrap
distribution.

The Gaussian bootstrap never materializes the n simulated observations: the
resample mean of n i.i.d. N(mu, Sigma) draws has the exact law N(mu, Sigma/n),
so the mean is drawn directly from that law.  This is an identity, not an
approximation, and keeps Monte Carlo studies tractable.  The regression
bootstrap is already formulated in terms of the released statistics and never
touches the design matrix again.  Each regression replica solves its own
noisy system S + W/n.  The symmetric noise W is drawn as its upper triangle,
which is scaled by 1/n and bounded there and then mirrored into the systems
by one gather (:func:`~dpextrema.privacy.symmetric_layout`).  A Weyl bound on
the noise certifies most systems non-singular without an eigenvalue check,
in one pass over every set's systems, and without simulated gram noise each
set's S is checked once and solved against all of its replicas at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
import numpy as np

from .errors import NumericError, ParameterError
from .linalg import RepairResult, psd_floor, psd_repair_stack, sym_sqrt
from .privacy import (
    Bounds,
    GeneratorStack,
    LaplaceSpec,
    PrivacyLedger,
    laplace_symmetric_sample,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    sensitivity_sum_bounded,
    split_budget,
    symmetric_layout,
)

SIGMA2_FLOOR = 1e-8
#: Relative slack of the Weyl certificate in the regression bootstrap.  It is
#: far above the rounding error of eigvalsh, so a certified system can never
#: be one that the eigenvalue check would have flagged.
_CERTIFY_MARGIN = 1e-8
#: Released statistics of a regression estimate, in budget-split order.
REGRESSION_STATISTICS = ("gram", "xty", "rss")
#: Largest |X^T W| entry, per row, of a nuisance block W counted as orthogonal.
ORTHOGONALITY_TOLERANCE = 1e-8

__all__ = [
    "GaussianData",
    "GaussianStatistics",
    "PrivatizedGaussianEstimate",
    "RegressionData",
    "RegressionStatistics",
    "PrivatizedRegressionEstimate",
    "SIGMA2_FLOOR",
    "gaussian_private_mle",
    "regression_private_mle",
    "stack_statistics",
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

    @cached_property
    def clamped(self) -> np.ndarray:
        """The rows clamped into the bounds, computed once per data set."""
        return self.bounds.clamp(self.x)

    def fold_statistics(self, folds: list[np.ndarray]) -> "GaussianStatistics":
        return GaussianStatistics.of_folds(self.clamped, self.bounds, folds)


class _Stacked:
    """What both models' estimates share: F released data sets stacked along a
    leading axis, with ``betas`` (F, k), ``sizes`` (F,) and the repaired
    matrices ``repairs``.  A single estimate is a stack of one, so its
    release is row 0 of each array (``betas[0]``, ``repairs.shift[0]``).

    Each model defines its own ``bootstrap_draws`` over :meth:`_set_zero_draws`
    because the traced benchmark (``bench/spans.py``) times it by class name;
    nothing in the package calls it.
    """

    @property
    def k(self) -> int:
        return self.betas.shape[1]

    def _set_zero_draws(self, size: int, rng: np.random.Generator, privacy_noise: bool):
        """Set 0 of :meth:`replica_draws` with its failed rows dropped, and their count."""
        draws, failed = self.replica_draws(size, rng, 1, privacy_noise)
        count = int(np.count_nonzero(failed))
        return (draws[0][~failed[0]] if count else draws[0]), count

    def take(self, rows: np.ndarray):
        """The sets ``rows`` of this stack, as a stack of their own."""
        per_set = {
            f.name: value[rows]
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), np.ndarray)
        }
        return replace(self, **per_set, repairs=RepairResult(*(a[rows] for a in self.repairs)))


@dataclass(eq=False)
class PrivatizedGaussianEstimate(_Stacked):
    """Noisy means and repaired covariances of F data sets, plus everything
    needed to bootstrap them."""

    betas: np.ndarray        # (F, k) released means
    repairs: RepairResult    # repaired (F, k, k) covariances, one entry per set
    sizes: np.ndarray        # (F,) row counts
    ledger: PrivacyLedger    # the charges of one set's release
    sum_noise: LaplaceSpec
    gram_noise: LaplaceSpec
    noisy_sums: np.ndarray   # (F, k) released coordinate sums, noise included
    noisy_grams: np.ndarray  # (F, k, k) released second-moment matrices, noise included
    _root: np.ndarray | None = field(default=None, repr=False, compare=False)

    def replica_draws(
        self, size: int, rng: np.random.Generator, sets: int, privacy_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sets, size, k) bootstrap replicas of the first ``sets`` privatized
        means, and their (sets, size) failure mask, all False.

        Each replica of set f is the mean of n simulated observations from
        N(betas[f], repairs.matrix[f]) plus a fresh simulation-only Laplace
        noise of the estimation scale, divided by n.  ``privacy_noise=False``
        skips the Laplace term (the ablation that ignores privatization
        randomness).
        With a :class:`GeneratorStack` of R generators, generator i draws the
        i-th of R equal groups of sets.
        """
        rng = GeneratorStack.of(rng)
        if self._root is None:
            self._root = sym_sqrt(self.repairs.matrix)
        n = self.sizes[:sets, None, None]
        z = rng.standard_normal((sets, size, self.k)) @ np.swapaxes(self._root[:sets], -1, -2)
        draws = self.betas[:sets, None, :] + z / np.sqrt(n)
        if privacy_noise and not self.sum_noise.is_zero:
            draws = draws + self.sum_noise.sample(rng, (sets, size)) / n
        return draws, np.zeros((sets, size), dtype=bool)

    def bootstrap_draws(
        self, size: int, rng: np.random.Generator, privacy_noise: bool = True
    ) -> tuple[np.ndarray, int]:
        """``size`` replicas of set 0 and the failure count, which is 0."""
        return self._set_zero_draws(size, rng, privacy_noise)

    def variances(self, private: bool = True) -> np.ndarray:
        """(F, k) plug-in variances of the released mean coordinates.

        The private variant adds the Laplace noise variance 2 b^2 / n^2 of the
        privatized sum; both variants use only released quantities.
        """
        n = self.sizes[:, None]
        # reconstruction rounding in the PSD repair can leave a diagonal entry
        # a few ulps below zero in extreme-noise regimes
        v = np.maximum(np.diagonal(self.repairs.matrix, axis1=-2, axis2=-1), 0.0) / n
        if private and not self.sum_noise.is_zero:
            v = v + 2.0 * self.sum_noise.scale**2 / n**2
        return v


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
        sensitivity_sum_bounded(bounds.lower, bounds.upper), eps_sum, k
    )
    gram_spec = LaplaceSpec.from_budget(
        sensitivity_gram_bounded(bounds.lower, bounds.upper), eps_gram, k * (k + 1) // 2
    )
    return sum_spec, gram_spec


def _ledger(prefix: str, names: tuple[str, ...], epsilons: tuple[float, ...]) -> PrivacyLedger:
    ledger = PrivacyLedger()
    for name, eps in zip(names, epsilons):
        ledger = ledger.charge(f"{prefix}:{name}", eps)
    return ledger


def gaussian_private_mle(
    data: GaussianData, budget, rng: np.random.Generator
) -> PrivatizedGaussianEstimate:
    """Privatized mean and covariance from noisy sums and second moments.

    ``budget`` is either a total epsilon (split equally between the two
    sufficient statistics) or a pair of per-statistic epsilons.  The noisy
    covariance is repaired onto the PSD cone; a repair that shifts eigenvalue
    mass beyond the budget marks the estimate as degenerate but does not fail.
    The data are released by :meth:`GaussianStatistics.release`, as a stack of
    one set: the fold ``slice(None)``, a view, so no row is copied.
    """
    return data.fold_statistics([slice(None)]).release(budget, rng)


# ---------------------------------------------------------------------------
# linear regression
# ---------------------------------------------------------------------------


def _solve_batch(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of k x k systems against a stack of k-vectors."""
    return np.linalg.solve(systems, rhs[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class RegressionData:
    """Design matrix and response with declared bounds for rows of X and for y.

    ``nuisance`` is an optional (n, k2) block of covariates W orthogonal to X
    (|X^T W| at most ``ORTHOGONALITY_TOLERANCE * n`` per entry), as in a
    randomized trial with covariates centered within its arms.  The
    coefficients of X then depend on the statistics of X alone, so only those
    are noised; the nuisance fit is removed from the residual and never
    released.  ``None`` or an empty (n, 0) block is plain regression.
    """

    X: np.ndarray
    y: np.ndarray
    x_bounds: Bounds
    y_bounds: Bounds
    nuisance: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ParameterError("X must be (n, k) with one response per row")
        if X.shape[1] != self.x_bounds.k:
            raise ParameterError("x_bounds dimension does not match the design")
        if self.y_bounds.k != 1:
            raise ParameterError("y_bounds must be a scalar range")
        W = None
        if self.nuisance is not None and np.asarray(self.nuisance).size > 0:
            W = np.atleast_2d(np.asarray(self.nuisance, dtype=float))
            if W.shape[0] != X.shape[0]:
                raise ParameterError("the nuisance block must have one row per response")
            if np.abs(X.T @ W).max() > ORTHOGONALITY_TOLERANCE * X.shape[0]:
                raise ParameterError(
                    "X^T nuisance is not numerically zero; the nuisance block must be "
                    "orthogonal to the design"
                )
        if X.shape[0] <= X.shape[1] + (0 if W is None else W.shape[1]):
            raise ParameterError("regression needs n > k plus the nuisance columns")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "nuisance", W)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @cached_property
    def clamped(self) -> tuple[np.ndarray, np.ndarray]:
        """X and y clamped into their bounds, computed once per data set."""
        return self.x_bounds.clamp(self.X), self.y_bounds.clamp(self.y)

    def fold_statistics(self, folds: list[np.ndarray]) -> "RegressionStatistics":
        return RegressionStatistics.of_folds(
            *self.clamped, self.nuisance, folds, self.x_bounds, self.y_bounds,
        )


@dataclass(eq=False)
class PrivatizedRegressionEstimate(_Stacked):
    """Noisy coefficients of F data sets, with the scaled gram matrices used to
    bootstrap them."""

    betas: np.ndarray        # (F, k) released coefficients
    sigma2s: np.ndarray      # (F,) released residual mean squares
    repairs: RepairResult    # repaired (F, k, k) scaled grams S = (X^T X + noise) / n
    sizes: np.ndarray        # (F,) row counts
    ledger: PrivacyLedger    # the charges of one set's release
    gram_noise: LaplaceSpec  # noise on X^T X (per free entry)
    xty_noise: LaplaceSpec   # noise on X^T y
    rss_scales: np.ndarray   # (F,) Laplace scales of the residual mean squares
    noisy_grams: np.ndarray  # (F, k, k)
    noisy_xtys: np.ndarray   # (F, k)
    _root: np.ndarray | None = field(default=None, repr=False, compare=False)

    def replica_draws(
        self, size: int, rng: np.random.Generator, sets: int, privacy_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sets, size, k) bootstrap replicas of the first ``sets`` coefficient
        releases, and their (sets, size) failure mask; a failed draw is a NaN row.

        Each replica of set f solves (S + W1/n) b = S beta + (C + W2/sqrt(n)) / sqrt(n)
        with C ~ N(0, sigma2 S) and fresh simulation-only noise W1, W2 of the
        estimation scales.  A draw whose noisy matrix is numerically singular
        is retried once with fresh W1; a second failure marks the draw failed.
        The generator serves every set's scores, then every set's systems,
        then the retries of all sets together.  With a :class:`GeneratorStack`
        of R generators, generator i serves the i-th of R equal groups of sets
        so, in that order, and draws its own retries.

        Only systems that may be singular get an eigenvalue check.  By Weyl's
        inequality every eigenvalue of S + W1/n lies within
        ||W1/n||_2 <= ||W1/n||_F of one of S, so a system whose Frobenius bound
        leaves the least eigenvalue of S above the floor, by a margin relative
        to the scale that covers rounding, is certified non-singular.  Without
        gram noise every system of a set is its S: each S is checked once, and
        a singular one fails every draw of its set, while a regular one is
        solved against all its right-hand sides at once.
        """
        rng = GeneratorStack.of(rng)
        if self._root is None:
            self._root = sym_sqrt(self.sigma2s[:, None, None] * self.repairs.matrix)
        S = self.repairs.matrix[:sets]
        root_n = np.sqrt(self.sizes[:sets, None, None])
        floor = psd_floor(S)

        rhs = rng.standard_normal((sets, size, self.k)) @ np.swapaxes(self._root[:sets], -1, -2)
        if privacy_noise and not self.xty_noise.is_zero:
            rhs += self.xty_noise.sample(rng, (sets, size)) / root_n
        rhs /= root_n
        rhs += (S @ self.betas[:sets, :, None])[:, None, :, 0]

        eye = np.eye(self.k)  # stands in for a failed system, so one solve serves the rest
        if not privacy_noise or self.gram_noise.is_zero:
            singular = self._near_singular(S, floor)
            systems = np.where(singular[:, None, None], eye, S)
            draws = np.swapaxes(np.linalg.solve(systems, np.swapaxes(rhs, -1, -2)), -1, -2)
            draws[singular] = np.nan
            return draws, np.repeat(singular[:, None], size, axis=1)

        s_eigvals = np.linalg.eigvalsh(S)
        owners = np.arange(sets)[:, None]  # one per set: each S_f is broadcast over its draws
        systems, bad = self._noisy_systems(owners, (sets, size), rng, floor, s_eigvals)
        if bad.any():
            retry = np.flatnonzero(bad)
            retries, failed = self._noisy_systems(
                retry // size, retry.shape, rng, floor, s_eigvals, rng.owners(sets)[retry // size]
            )
            systems.reshape(-1, self.k, self.k)[retry] = retries
            bad.reshape(-1)[retry] = failed
            systems[bad] = eye
        draws = _solve_batch(systems, rhs)
        draws[bad] = np.nan
        return draws, bad

    def bootstrap_draws(
        self, size: int, rng: np.random.Generator, privacy_noise: bool = True
    ) -> tuple[np.ndarray, int]:
        """``size`` replicas of set 0, with the failed draws dropped, and their count."""
        return self._set_zero_draws(size, rng, privacy_noise)

    def _noisy_systems(
        self, owner: np.ndarray, shape: tuple, rng: GeneratorStack, floor, s_eigvals, generator=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Systems S_f + W1/n_f of ``shape`` and their near-singularity flags.

        ``owner`` holds the set f of each system and broadcasts to ``shape``;
        ``generator`` names the generator of each system of a ragged draw.
        ``floor`` and ``s_eigvals`` (ascending) are per set; only the systems
        that the Weyl bound does not certify go through :meth:`_near_singular`.
        W1 is the draw :func:`laplace_symmetric_sample` makes, taken as its
        upper triangle: it is scaled and bounded there, and gathered once into
        the systems.
        """
        index, weights = symmetric_layout(self.k)
        tri = rng.laplace(0.0, self.gram_noise.scale, (math.prod(shape), weights.size), generator)
        tri = tri.reshape(*shape, weights.size)
        tri /= self.sizes[owner][..., None]
        bound = np.sqrt((tri * tri) @ weights)
        systems = np.take(tri, index, axis=-1)
        systems += self.repairs.matrix[owner]
        eigvals = s_eigvals[owner]
        margin = _CERTIFY_MARGIN * (eigvals[..., -1] + bound)
        floor = np.broadcast_to(floor[owner], shape)
        flags = eigvals[..., 0] - bound - margin < floor
        if flags.any():
            flags[flags] = self._near_singular(systems[flags], floor[flags])
        return systems, flags

    @staticmethod
    def _near_singular(systems: np.ndarray, floor) -> np.ndarray:
        eigvals = np.linalg.eigvalsh(systems)
        return np.abs(eigvals).min(axis=1) < floor

    def variances(self, private: bool = True) -> np.ndarray:
        """(F, k) plug-in variances of the released coefficients.

        sigma2 * S^{-1} / n for the sampling part; the private variant adds
        the propagated Laplace variance of the noisy cross product,
        S^{-1} (2 b^2 I) S^{-1} / n^2.
        """
        s_inv = np.linalg.inv(self.repairs.matrix)
        n = self.sizes[:, None]
        v = self.sigma2s[:, None] * np.diagonal(s_inv, axis1=-2, axis2=-1) / n
        if private and not self.xty_noise.is_zero:
            s_inv2 = np.diagonal(s_inv @ s_inv, axis1=-2, axis2=-1)
            v = v + 2.0 * self.xty_noise.scale**2 * s_inv2 / n**2
        return v


_SINGULAR_GRAM = "noisy gram matrix is irreparably singular; widen the budget or bounds"


def _regression_noise_specs(x_bounds: Bounds, y_bounds: Bounds, eps_gram: float, eps_xty: float):
    """Laplace noise of the gram matrix's free entries and of the cross product."""
    k = x_bounds.k
    gram_spec = LaplaceSpec.from_budget(
        sensitivity_gram_bounded(x_bounds.lower, x_bounds.upper), eps_gram, k * (k + 1) // 2
    )
    xty_spec = LaplaceSpec.from_budget(
        sensitivity_cross_bounded(x_bounds.lower, x_bounds.upper, y_bounds.lower, y_bounds.upper),
        eps_xty,
        k,
    )
    return gram_spec, xty_spec


def regression_private_mle(
    data: RegressionData, budget, rng: np.random.Generator
) -> PrivatizedRegressionEstimate:
    """Privatized OLS coefficients and residual variance.

    ``data`` may carry a nuisance block (``RegressionData(..., nuisance=W)``);
    only the statistics of X are noised either way.  ``budget`` is a total
    epsilon split equally across the three released statistics (gram matrix,
    cross product, residual mean square) or an explicit triple.  The data are
    released by :meth:`RegressionStatistics.release`, as a stack of one set:
    the residual sum of squares comes from the statistics, less what the
    nuisance fit explains, and its noisy mean is clipped below at a small
    positive floor so the bootstrap stays well defined.  Raises
    :class:`NumericError` when the noisy gram matrix is irreparably singular.
    """
    return data.fold_statistics([slice(None)]).release(budget, rng)


# ---------------------------------------------------------------------------
# stacked releases of many data sets
# ---------------------------------------------------------------------------
#
# Both estimators see the data only through additive sufficient statistics,
# so a data set is described by one row of clamped statistics, and every
# release goes through these classes: a single estimate is a stack of one set,
# cross-validation releases its 2v overlapping sets together, and a Monte
# Carlo block releases every replication's sets together, with the noise
# scales derived once, one eigh repairing the whole stack and one vector
# Laplace draw noising every set's residual mean square.  A release given a
# GeneratorStack of R generators draws the noise of the i-th of R equal
# groups of sets from generator i.


def stack_statistics(parts):
    """One statistics stack holding the sets of every stack in ``parts``, in order."""
    first = parts[0]
    return replace(
        first,
        **{
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in first.ADDITIVE
            if getattr(first, name) is not None
        },
    )


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

    def release(self, budget, rng: np.random.Generator) -> PrivatizedGaussianEstimate:
        """Every set's Gaussian release, as one stacked estimate."""
        eps_sum, eps_gram = split_budget(budget, 2)
        sum_spec, gram_spec = _gaussian_noise_specs(self.bounds, eps_sum, eps_gram)
        sets, k = self.sums.shape
        noisy_sum = self.sums + sum_spec.sample(rng, sets)
        noisy_gram = self.grams + laplace_symmetric_sample(gram_spec.scale, k, rng, sets)
        mu, sigma = _gaussian_from_noisy_stats(noisy_sum, noisy_gram, self.n)
        return PrivatizedGaussianEstimate(
            betas=mu,
            repairs=psd_repair_stack(sigma),
            sizes=self.n,
            ledger=_ledger("gaussian", ("sum", "gram"), (eps_sum, eps_gram)),
            sum_noise=sum_spec,
            gram_noise=gram_spec,
            noisy_sums=noisy_sum,
            noisy_grams=noisy_gram,
        )


@dataclass(frozen=True, eq=False)
class RegressionStatistics:
    """Clamped X^T X, X^T y and y^T y, with the count, of each of F data sets.

    A nuisance block W adds W^T W, W^T X and W^T y.  Its fit is never
    released: it is removed from each set's residual.
    """

    x_bounds: Bounds
    y_bounds: Bounds
    n: np.ndarray                 # (F,)
    xtx: np.ndarray               # (F, k, k)
    xty: np.ndarray               # (F, k)
    yty: np.ndarray               # (F,)
    wtw: np.ndarray | None = None
    wtx: np.ndarray | None = None
    wty: np.ndarray | None = None

    # a class attribute, not a field: the statistics that add up over sets
    ADDITIVE = ("n", "xtx", "xty", "yty", "wtw", "wtx", "wty")

    @classmethod
    def of_folds(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        W: np.ndarray | None,
        folds: list[np.ndarray],
        x_bounds: Bounds,
        y_bounds: Bounds,
    ) -> "RegressionStatistics":
        """Statistics of the rows indexed by each fold (an index array or a
        slice); X and y come clamped, the nuisance block W is never clamped."""
        rows = []
        for f in folds:
            x, t = X[f], y[f]
            row = [t.size, x.T @ x, x.T @ t, t @ t]
            if W is not None:
                w = W[f]
                row += [w.T @ w, w.T @ x, w.T @ t]
            rows.append(row)
        return cls(x_bounds, y_bounds, *(np.array(s) for s in zip(*rows)))

    @property
    def min_rows(self) -> int:
        """Fewest rows a set needs for one residual degree of freedom."""
        k2 = 0 if self.wtw is None else self.wtw.shape[-1]
        return self.xty.shape[1] + k2 + 1

    def _rss(self, beta: np.ndarray, rows: slice) -> np.ndarray:
        """|y - X beta|^2 of the sets ``rows`` from the statistics, less what
        the nuisance fit explains."""
        beta = beta[rows]
        rss = (
            self.yty[rows]
            - 2.0 * np.einsum("fi,fi->f", beta, self.xty[rows])
            + np.einsum("fi,fij,fj->f", beta, self.xtx[rows], beta)
        )
        if self.wtw is not None:
            wtr = self.wty[rows] - np.einsum("fij,fj->fi", self.wtx[rows], beta)
            rss = rss - np.einsum("fi,fij,fj->f", wtr, np.linalg.pinv(self.wtw[rows]), wtr)
        return rss

    def release(self, budget, rng: np.random.Generator) -> PrivatizedRegressionEstimate:
        """Every set's regression release, as one stacked estimate.

        Raises :class:`NumericError` when any set's noisy gram matrix is
        irreparably singular.
        """
        rng = GeneratorStack.of(rng)
        eps_gram, eps_xty, eps_rss = split_budget(budget, 3)
        gram_spec, xty_spec = _regression_noise_specs(
            self.x_bounds, self.y_bounds, eps_gram, eps_xty
        )
        sets, k = self.xty.shape
        noisy_gram = self.xtx + laplace_symmetric_sample(gram_spec.scale, k, rng, sets)
        noisy_xty = self.xty + xty_spec.sample(rng, sets)
        n = self.n.astype(float)[:, None, None]
        repairs = psd_repair_stack(noisy_gram / n)
        if repairs.degenerate.any():
            raise NumericError(_SINGULAR_GRAM)
        beta = _solve_batch(n * repairs.matrix, noisy_xty)
        # einsum's summation order depends on how many sets it sees, so each
        # generator's sets are summed as a stack of their own, as they are alone
        rss = np.concatenate([self._rss(beta, rows) for rows in rng.chunks(sets)])
        # a record's nuisance fit |w^T gamma| is taken to be at most the
        # response magnitude; W is never clamped, so this is assumed, not enforced
        m_fit = 0.0 if self.wtw is None else self.y_bounds.magnitudes[0]
        dof = self.n - (self.min_rows - 1)

        # The residual mean square is noised last.  Its sensitivity may use the
        # released coefficients (post-processing of a DP output may calibrate
        # the next mechanism): a record's squared residual is at most
        # (m_y + sum_j m_j |beta_j| + m_fit)^2, over dof.
        m_res = (
            self.y_bounds.magnitudes[0]
            + np.sum(self.x_bounds.magnitudes * np.abs(beta), axis=1)
            + m_fit
        )
        with np.errstate(over="ignore"):  # response bounds too wide give inf, refused below
            rss_scales = np.zeros(sets) if math.isinf(eps_rss) else m_res**2 / dof / eps_rss
        if not np.isfinite(rss_scales).all():
            raise ParameterError(
                "residual-variance noise scale overflows; the response bounds are too wide"
            )
        sigma2 = rss / dof
        drawn = rss_scales > 0.0  # a zero scale draws nothing
        sigma2[drawn] += rng.laplace(0.0, rss_scales[drawn], owner=rng.owners(sets)[drawn])
        return PrivatizedRegressionEstimate(
            betas=beta,
            sigma2s=np.maximum(sigma2, SIGMA2_FLOOR),
            repairs=repairs,
            sizes=self.n,
            ledger=_ledger("regression", REGRESSION_STATISTICS, (eps_gram, eps_xty, eps_rss)),
            gram_noise=gram_spec,
            xty_noise=xty_spec,
            rss_scales=rss_scales,
            noisy_grams=noisy_gram,
            noisy_xtys=noisy_xty,
        )
