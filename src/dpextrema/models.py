"""Privatized point estimation and parametric bootstrap draws.

Two model families are implemented: multivariate Gaussian observations, whose
coordinates of interest are the component means, and linear regression, whose
coordinates of interest are the coefficients.  ``RegressionData(X, y,
x_bounds, y_bounds, nuisance=W)`` adds covariates W orthogonal to X, whose fit
is removed from the residual variance but never released.

Both estimators add Laplace noise to clamped sufficient statistics (sums, gram
matrices, cross products) and post-process the noisy statistics; they never
look at rows again.  One release per model, ``GaussianStatistics.release`` and
``RegressionStatistics.release``, runs on a stack of F data sets and returns
the model's one estimate class, which holds all F sets along a leading axis.
A single estimate is a stack of one; cross-validation releases all of its
folds at once, and the Monte Carlo harness a block of replications, with a
:class:`~dpextrema.privacy.GeneratorStack` holding one generator per
replication, so each replication draws what it would draw alone.

Both models bootstrap by one recipe, :meth:`_Stacked.replica_draws`.  It
replays the estimation on data simulated from the fitted model, with fresh
simulation-only Laplace noise of the estimation scales, so the randomness of
privatization is reflected in the bootstrap distribution: a replica solves
(S + W1/n) b = C/sqrt(n) + S beta + W2/n with normal scores C.  Regression
has the scaled gram S, scores of covariance sigma2 S, and the noise W1 of
X^T X and W2 of X^T y.  The Gaussian mean is the case S = I without W1, with
scores of covariance Sigma and the noise W2 of the sum, so nothing is solved:
the mean of n simulated observations is drawn from its exact law
N(mu, Sigma/n).  Neither bootstrap materializes simulated rows.
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
    matrices ``repairs``, and the one bootstrap of both models.  A single
    estimate is a stack of one, so its release is row 0 of each array.

    A model gives the bootstrap four things: ``systems``, its (F, k, k) stack
    S, or None for the identity; ``covariance``, the (F, k, k) covariance of
    the scores, whose root is cached in ``_root``; ``response_noise``, the
    Laplace noise of the right-hand side's statistic; and ``system_noise``,
    that of S.  ``noise_scales`` holds the Laplace scale of each released
    statistic, in budget-split order, one that differs by set as an (F,) array.

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

    def replica_draws(
        self, size: int, rng: np.random.Generator, sets: int, privacy_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sets, size, k) bootstrap replicas of the first ``sets`` releases,
        and their (sets, size) failure mask; a failed draw is a NaN row.

        A replica of set f solves (S + W1/n) b = C/sqrt(n) + S beta + W2/n,
        summed in that order, with scores C ~ N(0, covariance) and fresh noise
        W1 (``system_noise``) and W2 (``response_noise``); without S it is the
        right-hand side.  ``privacy_noise=False`` skips W1 and W2 (the
        ablation that ignores privatization randomness).  A numerically
        singular system is retried once with fresh W1; a second failure fails
        the draw.  With a :class:`GeneratorStack` of R generators, generator i
        serves the i-th of R equal groups of sets, in this order: their
        scores, their W2, their systems, then their retries.  The systems are
        drawn, screened, retried and solved one generator at a time.

        By Weyl's inequality every eigenvalue of S + W1/n lies within
        ||W1/n||_2 <= ||W1/n||_F of one of S, so a system whose Frobenius bound
        leaves the least eigenvalue of S above the floor, by a margin that
        covers rounding, is certified non-singular; only the others get an
        eigenvalue check.  Without W1 each S is checked once: a singular one
        fails every draw of its set, and a regular one is solved against all
        its right-hand sides at once.
        """
        rng = GeneratorStack.of(rng)
        if self._root is None:
            self._root = sym_sqrt(self.covariance)
        S = None if self.systems is None else self.systems[:sets]
        n = self.sizes[:sets, None, None]

        rhs = rng.standard_normal((sets, size, self.k)) @ np.swapaxes(self._root[:sets], -1, -2)
        rhs /= np.sqrt(n)
        rhs += self.betas[:sets, None, :] if S is None else (S @ self.betas[:sets, :, None])[:, None, :, 0]
        if privacy_noise and not self.response_noise.is_zero:
            noise = self.response_noise.sample(rng, (sets, size))
            noise /= n
            # summed into the later of the two arrays, and the first dropped:
            # summed into the first, glibc trims and faults in the heap top again
            noise += rhs
            rhs = noise
        if S is None:
            return rhs, np.zeros((sets, size), dtype=bool)

        floor = psd_floor(S)
        eye = np.eye(self.k)  # stands in for a failed system, so one solve serves the rest
        if not privacy_noise or self.system_noise.is_zero:
            singular = self._near_singular(S, floor)
            systems = np.where(singular[:, None, None], eye, S)
            draws = np.swapaxes(np.linalg.solve(systems, np.swapaxes(rhs, -1, -2)), -1, -2)
            draws[singular] = np.nan
            return draws, np.repeat(singular[:, None], size, axis=1)

        s_eigvals = np.linalg.eigvalsh(S)
        bad = np.empty((sets, size), dtype=bool)
        for generator, rows in zip(rng.generators, rng.chunks(sets)):
            owners = np.arange(rows.start, rows.stop)[:, None]  # each S_f serves its draws
            systems, flags = self._noisy_systems(owners, (len(owners), size), generator, floor, s_eigvals)
            if flags.any():
                retry = np.flatnonzero(flags)
                retries, failed = self._noisy_systems(
                    rows.start + retry // size, retry.shape, generator, floor, s_eigvals
                )
                systems.reshape(-1, self.k, self.k)[retry] = retries
                flags.reshape(-1)[retry] = failed
                systems[flags] = eye
            bad[rows] = flags
            rhs[rows] = np.linalg.solve(systems, rhs[rows, ..., None])[..., 0]
            del systems  # before the next generator's systems are drawn
        rhs[bad] = np.nan
        return rhs, bad

    def _noisy_systems(
        self, owner: np.ndarray, shape: tuple, rng: np.random.Generator, floor, s_eigvals
    ) -> tuple[np.ndarray, np.ndarray]:
        """Systems S_f + W1/n_f of ``shape``, all drawn by the one generator
        ``rng``, and their near-singularity flags.

        ``owner`` holds the set f of each system and broadcasts to ``shape``.
        ``floor`` and ``s_eigvals`` (ascending) are per set; only the systems
        that the Weyl bound does not certify go through :meth:`_near_singular`.
        W1 is the draw :func:`laplace_symmetric_sample` makes, taken as its
        upper triangle: it is scaled and bounded there, and gathered once into
        the systems.
        """
        index, weights = symmetric_layout(self.k)
        tri = rng.laplace(0.0, self.system_noise.scale, (math.prod(shape), weights.size))
        tri = tri.reshape(*shape, weights.size)
        tri /= self.sizes[owner][..., None]
        bound = np.sqrt((tri * tri) @ weights)
        systems = np.take(tri, index, axis=-1)
        systems += self.systems[owner]
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
        """(F, k) plug-in variances of the released coordinates.

        The sampling part is diag(covariance) / n without S, and
        sigma2 diag(S^{-1}) / n for the covariance sigma2 S of regression.
        The private variant adds the propagated Laplace variance of the
        response-side statistic, 2 b^2 diag(S^{-2}) / n^2 (2 b^2 / n^2 without
        S).  Both variants use only released quantities.
        """
        n = self.sizes[:, None]
        if self.systems is None:
            # reconstruction rounding in the PSD repair can leave a diagonal entry
            # a few ulps below zero in extreme-noise regimes
            v = np.maximum(np.diagonal(self.covariance, axis1=-2, axis2=-1), 0.0) / n
            s_inv2 = 1.0
        else:
            s_inv = np.linalg.inv(self.systems)
            v = self.sigma2s[:, None] * np.diagonal(s_inv, axis1=-2, axis2=-1) / n
            s_inv2 = np.diagonal(s_inv @ s_inv, axis1=-2, axis2=-1)
        if private and not self.response_noise.is_zero:
            v = v + 2.0 * self.response_noise.scale**2 * s_inv2 / n**2
        return v


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

    # the bootstrap's model: S = I, with no noise in it
    systems = system_noise = None
    covariance = property(lambda self: self.repairs.matrix)
    response_noise = property(lambda self: self.sum_noise)
    noise_scales = property(lambda self: {"sum": self.sum_noise.scale, "gram": self.gram_noise.scale})

    def bootstrap_draws(
        self, size: int, rng: np.random.Generator, privacy_noise: bool = True
    ) -> tuple[np.ndarray, int]:
        """``size`` replicas of set 0 and the failure count, which is 0."""
        return self._set_zero_draws(size, rng, privacy_noise)


def _gaussian_from_noisy_stats(noisy_sum: np.ndarray, noisy_gram: np.ndarray, n):
    """Mean and (unrepaired) covariance implied by the noisy sufficient statistics.

    Also takes a stack of releases, with one count per release in ``n``.
    """
    n = np.asarray(n, dtype=float)[..., None]
    mu = noisy_sum / n
    outer = noisy_sum[..., :, None] * noisy_sum[..., None, :]
    sigma = noisy_gram / (n[..., None] - 1) - outer / (n * (n - 1))[..., None]
    return mu, 0.5 * (sigma + np.swapaxes(sigma, -1, -2))


def _gram_noise(bounds: Bounds, epsilon: float) -> LaplaceSpec:
    """Laplace noise of the free entries of a gram matrix of rows in ``bounds``."""
    delta = sensitivity_gram_bounded(bounds.lower, bounds.upper)
    return LaplaceSpec.from_budget(delta, epsilon, bounds.k * (bounds.k + 1) // 2)


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

    # the bootstrap's model: S with gram noise, and scores of covariance sigma2 S
    systems = property(lambda self: self.repairs.matrix)
    covariance = property(lambda self: self.sigma2s[:, None, None] * self.repairs.matrix)
    response_noise = property(lambda self: self.xty_noise)
    system_noise = property(lambda self: self.gram_noise)
    noise_scales = property(
        lambda self: {"gram": self.gram_noise.scale, "xty": self.xty_noise.scale, "rss": self.rss_scales}
    )

    def bootstrap_draws(
        self, size: int, rng: np.random.Generator, privacy_noise: bool = True
    ) -> tuple[np.ndarray, int]:
        """``size`` replicas of set 0, with the failed draws dropped, and their count."""
        return self._set_zero_draws(size, rng, privacy_noise)


_SINGULAR_GRAM = "noisy gram matrix is irreparably singular; widen the budget or bounds"


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
        b = self.bounds
        sum_spec = LaplaceSpec.from_budget(sensitivity_sum_bounded(b.lower, b.upper), eps_sum, b.k)
        gram_spec = _gram_noise(b, eps_gram)
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
        xb, yb = self.x_bounds, self.y_bounds
        gram_spec = _gram_noise(xb, eps_gram)
        xty_spec = LaplaceSpec.from_budget(
            sensitivity_cross_bounded(xb.lower, xb.upper, yb.lower, yb.upper), eps_xty, xb.k
        )
        sets, k = self.xty.shape
        noisy_gram = self.xtx + laplace_symmetric_sample(gram_spec.scale, k, rng, sets)
        noisy_xty = self.xty + xty_spec.sample(rng, sets)
        n = self.n.astype(float)[:, None, None]
        repairs = psd_repair_stack(noisy_gram / n)
        if repairs.degenerate.any():
            raise NumericError(_SINGULAR_GRAM)
        beta = np.linalg.solve(n * repairs.matrix, noisy_xty[..., None])[..., 0]
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
