"""Budget-saving estimation of a partitioned Gaussian.

Only the means and covariance block of the coordinates of interest are
privatized, so noise (and budget) is spent on their statistics alone.  The
nuisance block is never read by the release, so nothing computed from it can
reach the released surface.  Downstream inference (bias correction,
bootstrap scaling) uses the sample size of the privatized block, which the
returned estimate carries as ``n``.

Regression with nuisance covariates needs no class of its own: it is
``RegressionData(X, y, x_bounds, y_bounds, nuisance=W)`` in
:mod:`~dpextrema.models`, released like plain regression data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .models import (
    GaussianData,
    GaussianStatistics,
    PrivatizedGaussianEstimate,
    gaussian_private_mle,
)
from .privacy import Bounds

__all__ = [
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

    @cached_property
    def interest(self) -> GaussianData:
        """The interest block as Gaussian data, which clamps it once."""
        return GaussianData(self.x1, self.bounds)

    def fold_statistics(self, folds: list[np.ndarray]) -> GaussianStatistics:
        """Statistics of the interest block only; the nuisance block is never released."""
        return self.interest.fold_statistics(folds)


def partial_gaussian_private_mle(
    data: PartitionedGaussianData, budget, rng: np.random.Generator
) -> PrivatizedGaussianEstimate:
    """Privatize only the interest-block statistics of a partitioned Gaussian.

    The estimate is exactly the interest-block release of the full estimator
    (the block mean depends on its own noisy sum alone); the nuisance block
    is not read.
    """
    return gaussian_private_mle(data.interest, budget, rng)
