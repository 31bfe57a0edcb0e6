"""Budget-saving estimation of a partitioned Gaussian.

Only the means and covariance block of the coordinates of interest are
privatized, so noise (and budget) is spent on their statistics alone.  The
interest block is plain :class:`~dpextrema.models.GaussianData`: the nuisance
columns are never handed to the release, so nothing computed from them can
reach the released surface.  ``ci gaussian --partial K1`` loads the first K1
columns this way.

Regression with nuisance covariates needs no class of its own: it is
``RegressionData(X, y, x_bounds, y_bounds, nuisance=W)`` in
:mod:`~dpextrema.models`, released like plain regression data.
"""

from __future__ import annotations

import numpy as np

from .models import GaussianData, PrivatizedGaussianEstimate, gaussian_private_mle

__all__ = ["partial_gaussian_private_mle"]


def partial_gaussian_private_mle(
    data: GaussianData, budget, rng: np.random.Generator
) -> PrivatizedGaussianEstimate:
    """Privatize the interest block ``data`` of a partitioned Gaussian.

    The estimate is exactly the interest-block release of the full estimator
    (the block mean depends on its own noisy sum alone), so this is
    :func:`~dpextrema.models.gaussian_private_mle`.  Nothing in the package
    calls it: it stays only for the span recorder in ``bench/spans.py``,
    which times it by name.
    """
    return gaussian_private_mle(data, budget, rng)
