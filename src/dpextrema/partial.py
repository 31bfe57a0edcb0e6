"""Budget-saving estimation when only part of the parameters is released.

When the released coordinates depend on a subset of the sufficient statistics
only, noise (and budget) is spent on that subset alone; nuisance quantities
are still estimated where the fitted model needs them, but they stay inside
the estimate object and never appear on the released surface.

Two instantiations:

* a partitioned Gaussian, where only the means and covariance block of the
  coordinates of interest are privatized and the remaining block is internal;
* regression with nuisance covariates orthogonal to the design of interest
  (e.g. randomized-trial interaction terms vs. centered pre-treatment
  covariates), where only the statistics of the interest design are noised
  and the nuisance fit enters solely through the residual variance.  This
  data class is released by :func:`~dpextrema.models.regression_private_mle`
  like plain regression data: its statistics add X^T X, X^T Z and X^T y, from
  which the release removes the nuisance fit from the residual sum of
  squares.  The fit itself is never formed, kept or released.

Downstream inference (bias correction, bootstrap scaling) uses the sample
size of the privatized block, which the returned estimates carry as ``n``.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from .errors import ParameterError
from .models import (
    GaussianData,
    GaussianStatistics,
    PrivatizedGaussianEstimate,
    RegressionStatistics,
    gaussian_private_mle,
)
from .privacy import Bounds

__all__ = [
    "NuisanceRegressionData",
    "PartialGaussianEstimate",
    "PartitionedGaussianData",
    "partial_gaussian_private_mle",
]


@dataclass(frozen=True, eq=False)
class PartitionedGaussianData:
    """Joint observations split into an interest block and a nuisance block.

    Bounds are declared for the interest block only; the nuisance block is
    never privatized, so it needs no bounds.
    """

    x1: np.ndarray
    x2: np.ndarray | None
    bounds: Bounds

    def __post_init__(self):
        x1 = np.atleast_2d(np.asarray(self.x1, dtype=float))
        if x1.shape[0] < 2:
            raise ParameterError("need at least 2 observations")
        if x1.shape[1] != self.bounds.k:
            raise ParameterError("bounds dimension does not match the interest block")
        object.__setattr__(self, "x1", x1)
        if self.x2 is not None:
            x2 = np.atleast_2d(np.asarray(self.x2, dtype=float))
            if x2.shape[0] != x1.shape[0]:
                raise ParameterError("interest and nuisance blocks must align by row")
            object.__setattr__(self, "x2", x2)

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    @property
    def k1(self) -> int:
        return self.x1.shape[1]

    def fold_statistics(self, folds: list[np.ndarray]) -> GaussianStatistics:
        """Statistics of the interest block only; the nuisance block is never released."""
        return GaussianStatistics.of_folds(self.bounds.clamp(self.x1), self.bounds, folds)


@dataclass(eq=False)
class PartialGaussianEstimate(PrivatizedGaussianEstimate):
    # internal-only nuisance estimates; excluded from repr and to_dict so the
    # released surface stays limited to the privatized block
    _nuisance: dict = field(default_factory=dict, repr=False, compare=False)


def partial_gaussian_private_mle(
    data: PartitionedGaussianData, budget, rng: np.random.Generator
) -> PartialGaussianEstimate:
    """Privatize only the interest-block statistics of a partitioned Gaussian.

    The released estimate is exactly the interest-block release of the full
    estimator (the block mean depends on its own noisy sum alone).  Nuisance
    means and covariance blocks are computed without noise, with the noisy
    interest sum plugged in where that statistic appears, and kept internal.
    """
    base = gaussian_private_mle(GaussianData(data.x1, data.bounds), budget, rng)
    nuisance: dict = {}
    if data.x2 is not None:
        n = data.n
        x1 = data.bounds.clamp(data.x1)
        x2 = data.x2
        sum2 = x2.sum(axis=0)
        nuisance["mu2"] = sum2 / n
        nuisance["sigma12"] = (x1.T @ x2 - np.outer(base.noisy_sum, sum2) / n) / (n - 1)
        nuisance["sigma22"] = (x2.T @ x2 - np.outer(sum2, sum2) / n) / (n - 1)
    return PartialGaussianEstimate(**vars(base), _nuisance=nuisance)


@dataclass(frozen=True, eq=False)
class NuisanceRegressionData:
    """Regression data with an interest design Z and nuisance covariates X.

    Requires Z^T X = 0 up to ``orthogonality_tolerance * n`` per entry, the
    structural condition (satisfied e.g. by randomized trials with centered
    covariates) under which the interest coefficients depend only on the
    Z-statistics.  ``nuisance_fit_bound`` is a declared bound on |x^T gamma|
    used when calibrating the residual-variance noise; it defaults to the
    response magnitude when nuisance covariates are present.
    """

    Z: np.ndarray
    X: np.ndarray | None
    y: np.ndarray
    z_bounds: Bounds
    y_bounds: Bounds
    nuisance_fit_bound: float | None = None
    orthogonality_tolerance: float = 1e-8

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if Z.shape[0] != y.size:
            raise ParameterError("Z must have one row per response")
        if Z.shape[1] != self.z_bounds.k:
            raise ParameterError("z_bounds dimension does not match Z")
        if self.y_bounds.k != 1:
            raise ParameterError("y_bounds must be a scalar range")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)
        if self.X is not None and np.asarray(self.X).size > 0:
            X = np.atleast_2d(np.asarray(self.X, dtype=float))
            if X.shape[0] != Z.shape[0]:
                raise ParameterError("X must align with Z by row")
            object.__setattr__(self, "X", X)
            cross = np.abs(Z.T @ X).max()
            if cross > self.orthogonality_tolerance * Z.shape[0]:
                raise ParameterError(
                    "Z^T X is not numerically zero; the partial release is only valid "
                    "for orthogonal nuisance designs"
                )
        else:
            object.__setattr__(self, "X", None)
        if Z.shape[0] <= Z.shape[1] + self.k2:
            raise ParameterError("need n > k1 + k2")

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def k1(self) -> int:
        return self.Z.shape[1]

    @property
    def k2(self) -> int:
        return 0 if self.X is None else self.X.shape[1]

    @property
    def fit_bound(self) -> float:
        """Bound on |x^T gamma| used in the residual-variance sensitivity."""
        if self.nuisance_fit_bound is not None:
            return float(self.nuisance_fit_bound)
        return 0.0 if self.X is None else float(self.y_bounds.magnitudes[0])

    def fold_statistics(self, folds: list[np.ndarray]) -> RegressionStatistics:
        return RegressionStatistics.of_folds(
            self.z_bounds.clamp(self.Z), self.y_bounds.clamp(self.y), self.X, folds,
            self.z_bounds, self.y_bounds, self.fit_bound,
        )
