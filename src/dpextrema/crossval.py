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
the total minus its fold, mapped over the additive statistics by the helper
of :mod:`~dpextrema.models`, the one module that names them.  All 2v
estimates are released as one stacked estimate, with the noise scales
derived once and one eigendecomposition repairing every matrix, and the
training replicas of all folds are drawn in one ``replica_draws`` call.
This is the release every estimate goes through (a single estimate is a
stack of one), so each fold's release has the law of the single-set
estimator on that subset.  Any data class that
:func:`~dpextrema.models.fold_statistics` reads (its ``clamped`` rows and
``statistics_of``) can be cross-validated: a partitioned Gaussian is
its interest block, plain ``GaussianData``, and a partial regression is
``RegressionData`` of its design columns of interest, whose nuisance fit
stays in y.

A Monte Carlo block cross-validates R data sets at once: given a sequence of
data sets and a :class:`~dpextrema.privacy.GeneratorStack` with one generator
per set, each set shuffles with its own generator, all 2vR fold estimates are
one stacked release, and the result holds one choice per data set.  The fold
statistics come from one gather per fold across the block: the fold edges
follow from n and v alone, fold j of all R sets is the one (R, m_j, k) gather
``clamped[sets, perms[:, a_j:b_j]]``, and its sums, grams and cross products
are one batched reduction and matmul (:func:`~dpextrema.models.fold_statistics`),
so a block makes v gathers, not R v.

Cross-validation costs v times the budget of one estimation.  Each of the 2v
releases spends that budget on its own set of records, and each record lies
in exactly v of those sets: the v - 1 training sets that omit its fold, and
its held-out fold.  Substituting one record therefore changes the input of v
releases and leaves the other v unchanged, so by sequential composition over
the releases that see it the whole procedure is (v epsilon)-DP (McSherry,
*Privacy Integrated Queries*, 2009; Dwork and Roth, 2014).  ``budget``
reports that total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .extrema import DEFAULT_B_INNER, _check_failed_draws, bias_reduced_from_draws
from .models import _map_additive, fold_statistics
from .privacy import GeneratorStack

DEFAULT_GRID = (1.0 / 30.0, 1.0 / 15.0, 1.0 / 10.0, 1.0 / 5.0)
DEFAULT_FOLDS = 5

__all__ = ["CVConfig", "CVResult", "DEFAULT_FOLDS", "DEFAULT_GRID", "check_cv", "cv_choose_r"]


@dataclass(frozen=True)
class CVConfig:
    folds: int = DEFAULT_FOLDS
    grid: tuple[float, ...] = DEFAULT_GRID
    b_inner: int = DEFAULT_B_INNER

    def __post_init__(self):
        object.__setattr__(self, "grid", check_cv(self.folds, self.grid, self.b_inner))


def check_cv(
    folds: int, grid, b_inner: int, folds_key: str = "folds", grid_key: str = "grid"
) -> tuple[float, ...]:
    """The cross-validation settings' one check, whose errors name the keys
    given; returns the grid as a tuple of floats.

    At least 2 folds, a nonempty grid inside (0, 0.5) and nondecreasing, and
    at least 50 inner draws.
    """
    if folds < 2:
        raise ParameterError(f"{folds_key} must be >= 2 (cross-validation needs at least 2 folds)")
    grid = tuple(float(r) for r in grid)
    if not grid:
        raise ParameterError(f"{grid_key} is empty")
    for r in grid:
        if math.isnan(r) or not (0.0 < r < 0.5):
            raise ParameterError(f"{grid_key} values must lie strictly inside (0, 0.5)")
    # nondecreasing, not strictly increasing: duplicated values are legal
    # and exercise the deterministic tie-break
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ParameterError(f"{grid_key} must be sorted ascending")
    if b_inner < 50:
        raise ParameterError("b_inner must be >= 50")
    return grid


@dataclass(eq=False)
class CVResult:
    """The choices for R data sets, and the fold releases they were made from."""

    chosen_rs: np.ndarray            # (R,) chosen grid value per data set
    grid: tuple[float, ...]
    criteria: np.ndarray             # (R, grid) aggregated scores
    hs: np.ndarray                   # (R, grid, fold, coordinate) scores
    betas: np.ndarray                # (R, 2, fold, coordinate) training, then held-out releases
    sizes: np.ndarray                # (R, 2, fold) their row counts
    reduced: np.ndarray              # (R, grid, fold) bias-reduced maxima of the training releases
    budget: float                    # v times one estimation's total


def _estimate(stats, budget, rng: GeneratorStack, b_inner: int):
    """Release all 2v fold estimates of every data set at once and draw the
    training replicas.

    ``stats`` holds one row of clamped statistics per fold, v rows per data
    set and one data set per generator of ``rng``.  Each training set is its
    data set's total minus its fold, so each data set has 2v consecutive rows
    in the release: its v training sets, then its v held-out folds.  Returns
    the release and the (R v, b_inner, k) training draws, shared across the
    grid because the correction only shifts them; a failed draw is a NaN row.
    """
    R = len(rng)
    v = stats.n.size // R

    def train_then_folds(a):
        a = a.reshape(R, v, *a.shape[1:])
        return np.concatenate([a.sum(axis=1, keepdims=True) - a, a], axis=1).reshape(
            2 * R * v, *a.shape[2:]
        )

    release = _map_additive(train_then_folds, stats).release(budget, rng)
    train = release.take((2 * v * np.arange(R)[:, None] + np.arange(v)).ravel())
    draws, failed = train.replica_draws(b_inner, rng, R * v)
    _check_failed_draws(failed.sum(axis=1), b_inner)
    return release, draws


def cv_choose_r(
    data,
    budget,
    rng: np.random.Generator,
    config: CVConfig | None = None,
) -> CVResult:
    """Pick the correction strength from ``config.grid`` by cross-validation.

    ``data`` is a data set that :func:`~dpextrema.models.fold_statistics`
    reads, or a sequence of R such data sets of one size and box with ``rng`` a
    :class:`~dpextrema.privacy.GeneratorStack` of R generators, one per set.
    Deterministic given the data, budget, config, and generator states.
    Every fold estimation uses the same per-statistic budget split as a full
    run.  Raises :class:`~dpextrema.errors.DegeneracyError` when more than 1 %
    of a training set's inner draws fail, as a limit would.
    """
    config = config or CVConfig()
    data_sets = list(data) if isinstance(data, (list, tuple)) else [data]
    rng = GeneratorStack.of(rng)
    n = data_sets[0].n
    v = config.folds
    if n < 2 * v:
        raise ParameterError(f"need n >= {2 * v} observations for {v} folds")

    stats = fold_statistics(data_sets, v, rng.permutation(n))
    if n // v < stats.min_rows:
        raise ParameterError("a fold is too small for the model estimator")

    release, draws = _estimate(stats, budget, rng, config.b_inner)
    R, grid = len(data_sets), np.asarray(config.grid)
    beta = release.betas.reshape(R, 2, v, -1)  # (set, training/held-out, fold, coordinate)
    sizes = release.sizes.reshape(R, 2, v)
    # (grid, set, fold) bias-reduced maxima of the training estimates
    reduced = bias_reduced_from_draws(
        beta[:, 0].reshape(R * v, -1), draws, grid, sizes[:, 0].ravel()
    ).reshape(grid.size, R, v)
    held_out = release.variances().reshape(R, 2, v, -1)[:, 1]
    h = (reduced[..., None] - beta[None, :, 1]) ** 2 - held_out[None]

    criteria = h.sum(axis=2).min(axis=2) / v  # (grid, set)
    best = np.zeros(R, dtype=int)
    for l in range(1, grid.size):  # ties go to the larger r
        best = np.where(criteria[l] <= criteria[best, np.arange(R)], l, best)

    return CVResult(
        chosen_rs=grid[best],
        grid=config.grid,
        criteria=criteria.T,
        hs=np.moveaxis(h, 1, 0),
        betas=beta,
        sizes=sizes,
        reduced=np.moveaxis(reduced, 1, 0),
        budget=v * release.ledger.total(),
    )
