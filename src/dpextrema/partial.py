"""Budget-saving estimation of a partitioned Gaussian.

Only the means and covariance block of the coordinates of interest are
privatized, so noise (and budget) is spent on their statistics alone.  The
nuisance quantities are still estimated, but they stay inside the estimate
object and never appear on the released surface.  Downstream inference (bias
correction, bootstrap scaling) uses the sample size of the privatized block,
which the returned estimate carries as ``n``.

Regression with nuisance covariates needs no class of its own: it is
``RegressionData(X, y, x_bounds, y_bounds, nuisance=W)`` in
:mod:`~dpextrema.models`, released like plain regression data.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from .errors import ParameterError
from .models import (
    GaussianData,
    GaussianStatistics,
    PrivatizedGaussianEstimate,
    gaussian_private_mle,
)
from .privacy import Bounds

__all__ = [
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
