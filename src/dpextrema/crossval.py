"""Data-adaptive choice of the correction strength r by cross-validation.

The data are split into v near-equal folds by a seeded shuffle.  For each
fold, the remaining folds produce a privatized bias-reduced estimate of the
maximum at every candidate r, and the held-out fold produces an independent
privatized estimate of each coordinate with its standard error.  A candidate
is scored by how closely its bias-reduced maximum tracks the held-out
coordinates after removing the variance the held-out estimate contributes;
the r minimizing the aggregated score wins, with ties broken toward the
larger (weaker) correction.

The estimators see the data only through additive sufficient statistics, so
CV runs on per-fold sufficient statistics: the data are clamped once, each
fold's statistics are computed once, and each training set's statistics are
the total minus its fold.  All 2v estimates are released as one stack, with
the noise scales derived once and one eigendecomposition repairing every
matrix, and the training replicas of all folds are drawn together.  This is
the release every estimate goes through (a single estimate is a stack of one
set), so each fold's release has the law of the single-set estimator on that
subset.  Any data class with a ``fold_statistics`` method can be
cross-validated: a partitioned Gaussian is cross-validated on its interest
block, and regression with nuisance covariates removes the nuisance fit from
each set's residual through the blocks X^T X, X^T Z and X^T y.

Budget accounting for this procedure is genuinely ambiguous: the held-out
folds are disjoint (parallel composition applies) but the training sets
overlap across rounds.  Both readings are therefore reported side by side:
``budget_parallel_view`` equals the budget of a single estimation run, and
``budget_sequential_view`` counts every fold estimation at full price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .extrema import DEFAULT_B_INNER, bias_reduced_from_draws

DEFAULT_GRID = (1.0 / 30.0, 1.0 / 15.0, 1.0 / 10.0, 1.0 / 5.0)
DEFAULT_FOLDS = 5

__all__ = ["CVConfig", "CVResult", "DEFAULT_FOLDS", "DEFAULT_GRID", "cv_choose_r"]


@dataclass(frozen=True)
class CVConfig:
    folds: int = DEFAULT_FOLDS
    grid: tuple[float, ...] = DEFAULT_GRID
    b_inner: int = DEFAULT_B_INNER

    def __post_init__(self):
        if self.folds < 2:
            raise ParameterError("cross-validation needs at least 2 folds")
        grid = tuple(float(r) for r in self.grid)
        if not grid:
            raise ParameterError("candidate grid is empty")
        for r in grid:
            if math.isnan(r) or not (0.0 < r < 0.5):
                raise ParameterError("grid values must lie strictly inside (0, 0.5)")
        # nondecreasing, not strictly increasing: duplicated values are legal
        # and exercise the deterministic tie-break
        if any(a > b for a, b in zip(grid, grid[1:])):
            raise ParameterError("candidate grid must be sorted ascending")
        if self.b_inner < 50:
            raise ParameterError("b_inner must be >= 50")
        object.__setattr__(self, "grid", grid)


@dataclass(eq=False)
class CVResult:
    chosen_r: float
    grid: tuple[float, ...]
    criterion: np.ndarray            # aggregated score per grid value
    h: np.ndarray                    # (grid, fold, coordinate) scores
    fold_sizes: tuple[int, ...]
    budget_parallel_view: float      # one estimation run's total
    budget_sequential_view: float    # every fold estimation at full price
    per_fold: list[dict] = field(default_factory=list)


def _estimate(stats, budget, rng: np.random.Generator, b_inner: int):
    """Release all 2v fold estimates at once and draw the training replicas.

    ``stats`` holds one row of clamped statistics per fold.  Each training set
    is the total minus its fold, so rows [0, v) of the release are the
    training sets and rows [v, 2v) the held-out folds.  Returns the release
    and the (v, b_inner, k) training draws, shared across the grid because
    the correction only shifts them.
    """
    v = stats.n.size
    sets = replace(
        stats,
        **{
            name: np.concatenate([a.sum(axis=0) - a, a])
            for name in stats.ADDITIVE
            if (a := getattr(stats, name)) is not None
        },
    )
    release = sets.release(budget, rng)
    return release, release.bootstrap_draws(b_inner, rng, v)


def cv_choose_r(
    data,
    budget,
    rng: np.random.Generator,
    config: CVConfig | None = None,
) -> CVResult:
    """Pick the correction strength from ``config.grid`` by cross-validation.

    ``data`` is any data class with a ``fold_statistics`` method.
    Deterministic given the data, budget, config, and generator state.  Every
    fold estimation uses the same per-statistic budget split as a full run.
    """
    config = config or CVConfig()
    n = data.n
    v = config.folds
    if n < 2 * v:
        raise ParameterError(f"need n >= {2 * v} observations for {v} folds")

    perm = rng.permutation(n)
    folds = np.array_split(perm, v)
    stats = data.fold_statistics(folds)
    if min(f.size for f in folds) < stats.min_rows:
        raise ParameterError("a fold is too small for the model estimator")

    release, draws = _estimate(stats, budget, rng, config.b_inner)
    beta, sizes = release.beta, release.n
    # (grid, fold) bias-reduced maxima of the training estimates
    reduced = bias_reduced_from_draws(beta[:v], draws, np.asarray(config.grid), sizes[:v])
    h = (reduced[:, :, None] - beta[None, v:]) ** 2 - release.coordinate_variances()[None, v:]

    criterion = h.sum(axis=1).min(axis=1) / v
    best = 0
    for l in range(1, len(config.grid)):
        if criterion[l] <= criterion[best]:  # ties go to the larger r
            best = l

    per_estimate = release.ledger.total_sequential()
    return CVResult(
        chosen_r=config.grid[best],
        grid=config.grid,
        criterion=criterion,
        h=h,
        fold_sizes=tuple(f.size for f in folds),
        budget_parallel_view=per_estimate,
        budget_sequential_view=2 * v * per_estimate,
        per_fold=[
            {
                "fold": j,
                "train_n": int(sizes[j]),
                "ref_n": int(sizes[v + j]),
                "train_beta": beta[j].tolist(),
                "ref_beta": beta[v + j].tolist(),
                "reduced_max": reduced[:, j].tolist(),
            }
            for j in range(v)
        ],
    )
