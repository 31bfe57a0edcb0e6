"""Privatized point estimation and parametric bootstrap draws.

Two model families are implemented: multivariate Gaussian observations, whose
coordinates of interest are the component means, and linear regression, whose
coordinates of interest are the coefficients.  ``RegressionData(X, y,
x_bounds, y_bounds, nuisance=W)`` adds covariates W orthogonal to X, whose fit
is removed from the residual variance but never released.

Both estimators add Laplace noise to clamped sufficient statistics (sums, gram
matrices, cross products) and post-process the noisy statistics; they never
look at rows again.  ``fold_statistics`` is the one way from data sets to a
stack of statistics, and this module alone maps their additive statistics
(``_map_additive``).  One release per model, ``GaussianStatistics.release`` and
``RegressionStatistics.release``, splits the budget over its ``RELEASED``
statistics, runs on a stack of F data sets and returns the model's one
estimate class, which holds all F sets along a leading axis, and one
:class:`~dpextrema.privacy.LaplaceSpec` record per released statistic: the
ledger, the noise scales and the bootstrap's noise all read those records.
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
    "fold_statistics",
    "gaussian_private_mle",
    "regression_private_mle",
]


def _refuse_cells(name: str, bad: np.ndarray, what: str = "NaN") -> None:
    """Refuse the first ``bad`` cell of the array ``name`` by its indices: a NaN
    passes the clamp, and a sum released with it is NaN whatever the noise."""
    if bad.any():
        cell = ", ".join(str(int(i)) for i in np.argwhere(bad)[0])
        raise ParameterError(f"the data cell {name}[{cell}] is {what} (indices from 0)")


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
        _refuse_cells("x", np.isnan(x))
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @cached_property
    def clamped(self) -> tuple[np.ndarray]:
        """The rows the statistics read, x clamped into the box, computed once."""
        return (self.bounds.clamp(self.x),)

    def statistics_of(self, x: np.ndarray) -> "GaussianStatistics":
        """Statistics of R blocks of clamped rows in this box, an (R, m, k) array."""
        sets, rows = x.shape[:2]
        return GaussianStatistics(self.bounds, np.full(sets, rows), x.sum(axis=1), np.swapaxes(x, 1, 2) @ x)


class _Stacked:
    """What both models' estimates share: F released data sets stacked along a
    leading axis, with ``betas`` (F, k), ``sizes`` (F,) and the repaired
    matrices ``repairs``, and the one bootstrap of both models.  A single
    estimate is a stack of one, so its release is row 0 of each array.

    ``mechanisms`` holds the release's :class:`LaplaceSpec` records, one per
    released statistic in ``RELEASED`` order; the ledger and the noise scales
    are read from it.  A model gives the bootstrap four things: ``systems``,
    its (F, k, k) stack S as released, or None for the identity;
    ``covariance``, the (F, k, k) covariance of the scores, whose root is
    cached in ``_root``; ``response_noise``, the record of the right-hand
    side's statistic; and ``system_noise``, that of S.

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

    @property
    def ledger(self) -> PrivacyLedger:
        """The charges of one set's release, ``<model>:<statistic>`` per record."""
        ledger = PrivacyLedger()
        for m in self.mechanisms:
            ledger = ledger.charge(f"{self.MODEL}:{m.name}", m.epsilon)
        return ledger

    # the Laplace scale of each released statistic, an (F,) array if it differs by set
    noise_scales = property(lambda self: {m.name: m.scale for m in self.mechanisms})

    def take(self, rows: np.ndarray):
        """The sets ``rows`` of this stack, as a stack of their own."""
        return replace(
            self,
            **_per_set(self, rows),
            repairs=RepairResult(*(a[rows] for a in self.repairs)),
            mechanisms=tuple(replace(m, **_per_set(m, rows)) for m in self.mechanisms),
        )

    def replica_draws(
        self, size: int, rng: np.random.Generator, sets: int, privacy_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sets, size, k) bootstrap replicas of the first ``sets`` releases,
        and their (sets, size) failure mask; a failed draw is a NaN row.

        A replica of set f solves (S + W1/n) b = C/sqrt(n) + S beta + W2/n,
        summed in that order, with scores C ~ N(0, covariance) and fresh noise
        W1 (``system_noise``) and W2 (``response_noise``); without S it is the
        right-hand side.  ``privacy_noise=False`` skips W1 and W2 (the
        ablation that ignores privatization randomness).  A near-singular
        noisy system is retried once with fresh W1; a second failure fails
        the draw.  With a :class:`GeneratorStack` of R generators, generator i
        serves the i-th of R equal groups of sets, in this order: their
        scores, their W2, their systems, then their retries.  The systems are
        drawn, screened, retried and solved one generator at a time.

        By Weyl's inequality every eigenvalue of S + W1/n lies within
        ||W1/n||_2 <= ||W1/n||_F of one of S, so a system whose Frobenius bound
        leaves the least eigenvalue of S above the floor, by a margin that
        covers rounding, is certified non-singular; only the others get an
        eigenvalue check.  Without W1 each S is solved as released, against
        all its right-hand sides at once, and no draw fails: the release is
        the one judge of S.
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
        if not privacy_noise or self.system_noise.is_zero:
            # psd_repair_stack clips every eigenvalue up to the unrepaired floor,
            # at least 1e-8 trace/k, and the release refuses a degenerate repair:
            # S has a condition number of at most about 1e8 k and no zero pivot
            draws = np.swapaxes(np.linalg.solve(S, np.swapaxes(rhs, -1, -2)), -1, -2)
            return draws, np.zeros((sets, size), dtype=bool)

        floor = psd_floor(S)  # screens only S + W1/n, new matrices no release judged
        eye = np.eye(self.k)  # stands in for a failed system, so one solve serves the rest
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
        W1 is drawn as the release drew the gram noise, by
        ``system_noise.sample``, on the free entries of
        :func:`~dpextrema.privacy.symmetric_layout`: it is scaled and bounded
        there, and gathered once into the systems.
        """
        index, weights = symmetric_layout(self.k)
        tri = self.system_noise.sample(rng, shape)
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


def _per_set(record, rows) -> dict:
    """The array fields of ``record``, each cut to the sets ``rows``."""
    return {f.name: v[rows] for f in fields(record) if isinstance(v := getattr(record, f.name), np.ndarray)}


@dataclass(eq=False)
class PrivatizedGaussianEstimate(_Stacked):
    """Noisy means and repaired covariances of F data sets, plus everything
    needed to bootstrap them."""

    betas: np.ndarray        # (F, k) released means
    repairs: RepairResult    # repaired (F, k, k) covariances, one entry per set
    sizes: np.ndarray        # (F,) row counts
    mechanisms: tuple[LaplaceSpec, ...]  # the sum's and the gram's
    noisy_sums: np.ndarray   # (F, k) released coordinate sums, noise included
    noisy_grams: np.ndarray  # (F, k, k) released second-moment matrices, noise included
    _root: np.ndarray | None = field(default=None, repr=False, compare=False)

    MODEL = "gaussian"
    # the bootstrap's model: S = I, with no noise in it, and the sum's noise
    systems = system_noise = None
    covariance = property(lambda self: self.repairs.matrix)
    response_noise = property(lambda self: self.mechanisms[0])

    def bootstrap_draws(
        self, size: int, rng: np.random.Generator, privacy_noise: bool = True
    ) -> tuple[np.ndarray, int]:
        """``size`` replicas of set 0 and the failure count, which is 0."""
        return self._set_zero_draws(size, rng, privacy_noise)


def gaussian_private_mle(
    data: GaussianData, budget, rng: np.random.Generator
) -> PrivatizedGaussianEstimate:
    """Privatized mean and covariance from noisy sums and second moments.

    ``budget`` is either a total epsilon (split equally between the two
    sufficient statistics) or a pair of per-statistic epsilons.  The noisy
    covariance is repaired onto the PSD cone; a repair that shifts eigenvalue
    mass beyond the budget marks the estimate as degenerate but does not fail.
    The data are released by :meth:`GaussianStatistics.release`, as a stack of
    one set of one fold, a view, so no row is copied.
    """
    return fold_statistics([data]).release(budget, rng)


# ---------------------------------------------------------------------------
# linear regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RegressionData:
    """Design matrix and response with declared bounds for rows of X and for y.

    ``nuisance`` is an (n, k2) block of covariates W orthogonal to X (|X^T W|
    at most ``ORTHOGONALITY_TOLERANCE * n`` per entry), as in a randomized
    trial with covariates centered within its arms.  The coefficients of X
    then depend on the statistics of X alone, so only those are noised; the
    nuisance fit is removed from the residual and never released.  Plain
    regression is the block ``np.empty((n, 0))``, which ``None`` is read as.
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
        _refuse_cells("X", np.isnan(X))
        _refuse_cells("y", np.isnan(y))
        W = np.atleast_2d(np.asarray([] if self.nuisance is None else self.nuisance, dtype=float))
        W = W if W.size else np.empty((X.shape[0], 0))  # any empty block, None included
        if W.shape[0] != X.shape[0]:
            raise ParameterError("the nuisance block must have one row per response")
        if W.shape[1]:
            # W is never clamped, and X^T W is undefined on an infinite design cell
            _refuse_cells("nuisance", ~np.isfinite(W), "not finite")
            _refuse_cells("X", ~np.isfinite(X), "not finite")
            # not "> tolerance", which an entry that overflows to NaN would pass
            if not np.abs(X.T @ W).max() <= ORTHOGONALITY_TOLERANCE * X.shape[0]:
                raise ParameterError(
                    "X^T nuisance is not numerically zero; the nuisance block must be "
                    "orthogonal to the design"
                )
        if X.shape[0] <= X.shape[1] + W.shape[1]:
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
    def clamped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows the statistics read, X and y clamped into their boxes and
        W, which is never clamped; computed once."""
        return self.x_bounds.clamp(self.X), self.y_bounds.clamp(self.y), self.nuisance

    def statistics_of(self, x: np.ndarray, t: np.ndarray, w: np.ndarray) -> "RegressionStatistics":
        """Statistics of R blocks of rows in these boxes: (R, m, k) clamped X,
        (R, m) clamped y and (R, m, k2) W."""
        xt, wt, t = np.swapaxes(x, 1, 2), np.swapaxes(w, 1, 2), t[..., None]
        stats = xt @ x, (xt @ t)[..., 0], (np.swapaxes(t, 1, 2) @ t)[:, 0, 0], wt @ w, wt @ x, (wt @ t)[..., 0]
        return RegressionStatistics(self.x_bounds, self.y_bounds, np.full(len(x), x.shape[1]), *stats)


@dataclass(eq=False)
class PrivatizedRegressionEstimate(_Stacked):
    """Noisy coefficients of F data sets, with the scaled gram matrices used to
    bootstrap them."""

    betas: np.ndarray        # (F, k) released coefficients
    sigma2s: np.ndarray      # (F,) released residual mean squares
    repairs: RepairResult    # repaired (F, k, k) scaled grams S = (X^T X + noise) / n
    sizes: np.ndarray        # (F,) row counts
    mechanisms: tuple[LaplaceSpec, ...]  # X^T X's (per free entry), X^T y's and the rss's
    noisy_grams: np.ndarray  # (F, k, k)
    noisy_xtys: np.ndarray   # (F, k)
    _root: np.ndarray | None = field(default=None, repr=False, compare=False)

    MODEL = "regression"
    # the bootstrap's model: S with the gram's noise, scores of covariance sigma2 S, X^T y's noise
    systems = property(lambda self: self.repairs.matrix)
    covariance = property(lambda self: self.sigma2s[:, None, None] * self.repairs.matrix)
    system_noise = property(lambda self: self.mechanisms[0])
    response_noise = property(lambda self: self.mechanisms[1])

    def bootstrap_draws(
        self, size: int, rng: np.random.Generator, privacy_noise: bool = True
    ) -> tuple[np.ndarray, int]:
        """``size`` replicas of set 0, with the failed draws dropped, and their count."""
        return self._set_zero_draws(size, rng, privacy_noise)


def regression_private_mle(
    data: RegressionData, budget, rng: np.random.Generator
) -> PrivatizedRegressionEstimate:
    """Privatized OLS coefficients and residual variance.

    ``data`` may carry a nuisance block (``RegressionData(..., nuisance=W)``);
    only the statistics of X are noised either way.  ``budget`` is a total
    epsilon split equally across the three released statistics (gram matrix,
    cross product, residual mean square) or an explicit triple.  This is
    :meth:`RegressionStatistics.release` on a stack of one set; the noisy
    residual mean square is clipped below at ``SIGMA2_FLOOR`` so the bootstrap
    stays well defined.  Raises :class:`NumericError` when the noisy gram
    matrix is irreparably singular.
    """
    return fold_statistics([data]).release(budget, rng)


# ---------------------------------------------------------------------------
# stacked releases of many data sets (see the module docstring)
# ---------------------------------------------------------------------------


def fold_statistics(data_sets, folds: int = 1, perms: np.ndarray | None = None):
    """The statistics of ``folds`` folds of each of R data sets of one class,
    size and box, as one stack of R * folds sets, set by set.

    With one fold in row order, ``data_sets`` may be any iterable: each set's
    statistics are formed from its rows as it is read.  Otherwise the edges
    a_j cut n rows as ``np.array_split`` does.  Fold j of set i is its rows
    a_j:a_{j+1}, or perms[i, a_j:a_{j+1}] with (R, n) row orders ``perms``:
    one gather across the sets per fold (a view of one set's rows in order),
    then one batched reduction and matmul.  Sets that differ in class, size,
    width or box are refused: one release calibrates its noise to the first
    set's box.
    """
    data_sets = _one_layout(data_sets)
    if folds == 1 and perms is None:
        parts = [d.statistics_of(*(c[None] for c in d.clamped)) for d in data_sets]
        return _map_additive(lambda *a: np.concatenate(a), *parts)
    data_sets = list(data_sets)
    columns = [c[0][None] if len(c) == 1 else np.stack(c) for c in zip(*(d.clamped for d in data_sets))]
    sets = np.arange(len(data_sets))[:, None]
    per, extra = divmod(data_sets[0].n, folds)
    edges = [j * per + min(j, extra) for j in range(folds + 1)]  # the first n % folds get one more row
    parts = [
        data_sets[0].statistics_of(*(c[:, a:b] if perms is None else c[sets, perms[:, a:b]] for c in columns))
        for a, b in zip(edges, edges[1:])
    ]
    # set by set: row i * folds + j is fold j of set i (a count, not -1: a stack may have no values)
    return _map_additive(lambda *a: np.stack(a, axis=1).reshape(len(a) * len(a[0]), *a[0].shape[1:]), *parts)


def _one_layout(data_sets):
    """The data sets one by one, each refused unless its class, array shapes and
    boxes are the first set's, which alone are kept.  Nothing is clamped here,
    so a set is clamped only once the consumer has dropped the set before it."""
    first = None
    for d in data_sets:
        layout = [type(d)] + [
            v.shape if isinstance(v, np.ndarray) else (v.lower.tolist(), v.upper.tolist())
            for v in vars(d).values() if isinstance(v, (np.ndarray, Bounds))
        ]
        first = first or layout
        if layout != first:
            raise ParameterError("the data sets of one stack need one class, size, width and box")
        yield d


def _map_additive(fn, *stacks):
    """The first stack with each additive statistic replaced by ``fn`` of the stacks' own."""
    return replace(stacks[0], **{name: fn(*(getattr(s, name) for s in stacks)) for name in stacks[0].ADDITIVE})


@dataclass(frozen=True, eq=False)
class GaussianStatistics:
    """Clamped count, coordinate sums and gram matrix of each of F data sets."""

    bounds: Bounds
    n: np.ndarray      # (F,)
    sums: np.ndarray   # (F, k)
    grams: np.ndarray  # (F, k, k)

    # class attributes, not fields: the statistics that add up over sets, the
    # released ones in budget-split order, and the fewest rows a set needs (the
    # covariance divides by n - 1)
    ADDITIVE = ("n", "sums", "grams")
    RELEASED = ("sum", "gram")
    min_rows = 2

    def release(self, budget, rng: np.random.Generator) -> PrivatizedGaussianEstimate:
        """Every set's Gaussian release, as one stacked estimate."""
        eps_sum, eps_gram = split_budget(budget, len(self.RELEASED))
        sets, k = self.sums.shape
        mechanisms = sum_noise, gram_noise = (
            LaplaceSpec.from_budget(sensitivity_sum_bounded(self.bounds), eps_sum, k, "sum"),
            LaplaceSpec.from_budget(sensitivity_gram_bounded(self.bounds), eps_gram, k * (k + 1) // 2, "gram"),
        )
        noisy_sum = self.sums + sum_noise.sample(rng, sets)
        noisy_gram = self.grams + np.take(gram_noise.sample(rng, sets), symmetric_layout(k)[0], axis=-1)
        # the mean and the (unrepaired) covariance the noisy statistics imply
        n = self.n.astype(float)[:, None]
        outer = noisy_sum[:, :, None] * noisy_sum[:, None, :]
        sigma = noisy_gram / (n[..., None] - 1) - outer / (n * (n - 1))[..., None]
        return PrivatizedGaussianEstimate(
            betas=noisy_sum / n,
            repairs=psd_repair_stack(0.5 * (sigma + np.swapaxes(sigma, -1, -2))),
            sizes=self.n,
            mechanisms=mechanisms,
            noisy_sums=noisy_sum,
            noisy_grams=noisy_gram,
        )


@dataclass(frozen=True, eq=False)
class RegressionStatistics:
    """Clamped X^T X, X^T y and y^T y, with the count, and the nuisance
    block's W^T W, W^T X and W^T y, of each of F data sets.

    The nuisance fit is removed from each set's residual, never released; with
    k2 = 0 (plain regression) the W blocks hold no values and the fit is 0.
    """

    x_bounds: Bounds
    y_bounds: Bounds
    n: np.ndarray                 # (F,)
    xtx: np.ndarray               # (F, k, k)
    xty: np.ndarray               # (F, k)
    yty: np.ndarray               # (F,)
    wtw: np.ndarray               # (F, k2, k2)
    wtx: np.ndarray               # (F, k2, k)
    wty: np.ndarray               # (F, k2)

    # class attributes, not fields: the statistics that add up over sets, and
    # the released ones in budget-split order
    ADDITIVE = ("n", "xtx", "xty", "yty", "wtw", "wtx", "wty")
    RELEASED = ("gram", "xty", "rss")

    @property
    def min_rows(self) -> int:
        """Fewest rows a set needs for one residual degree of freedom."""
        return self.xty.shape[1] + self.wtw.shape[-1] + 1

    def _rss(self, beta: np.ndarray, rows: slice) -> np.ndarray:
        """|y - X beta|^2 of the sets ``rows`` from the statistics, less what
        the nuisance fit explains."""
        beta = beta[rows]
        wtr = self.wty[rows] - np.einsum("fij,fj->fi", self.wtx[rows], beta)
        return (
            self.yty[rows]
            - 2.0 * np.einsum("fi,fi->f", beta, self.xty[rows])
            + np.einsum("fi,fij,fj->f", beta, self.xtx[rows], beta)
            - np.einsum("fi,fij,fj->f", wtr, np.linalg.pinv(self.wtw[rows]), wtr)
        )

    def release(self, budget, rng: np.random.Generator) -> PrivatizedRegressionEstimate:
        """Every set's regression release, as one stacked estimate.

        Raises :class:`NumericError` when any set's noisy gram matrix is
        irreparably singular.
        """
        rng = GeneratorStack.of(rng)
        eps_gram, eps_xty, eps_rss = split_budget(budget, len(self.RELEASED))
        sets, k = self.xty.shape
        gram_noise = LaplaceSpec.from_budget(
            sensitivity_gram_bounded(self.x_bounds), eps_gram, k * (k + 1) // 2, "gram"
        )
        xty_noise = LaplaceSpec.from_budget(
            sensitivity_cross_bounded(self.x_bounds, self.y_bounds), eps_xty, k, "xty"
        )
        noisy_gram = self.xtx + np.take(gram_noise.sample(rng, sets), symmetric_layout(k)[0], axis=-1)
        noisy_xty = self.xty + xty_noise.sample(rng, sets)
        n = self.n.astype(float)[:, None, None]
        repairs = psd_repair_stack(noisy_gram / n)
        if repairs.degenerate.any():
            raise NumericError("noisy gram matrix is irreparably singular; widen the budget or bounds")
        beta = np.linalg.solve(n * repairs.matrix, noisy_xty[..., None])[..., 0]
        # einsum's summation order depends on how many sets it sees, so each
        # generator's sets are summed as a stack of their own, as they are alone
        rss = np.concatenate([self._rss(beta, rows) for rows in rng.chunks(sets)])
        dof = self.n - (self.min_rows - 1)

        # The residual mean square is noised last.  Its sensitivity may use the
        # released coefficients (post-processing of a DP output may calibrate
        # the next mechanism): a record's squared residual is at most
        # (m_y + sum_j m_j |beta_j| + m_fit)^2, over dof.  A record's nuisance
        # fit m_fit = |w^T gamma| is taken to be at most the response magnitude;
        # W is never clamped, so this is assumed, not enforced.
        m_y = self.y_bounds.magnitudes[0]
        m_fit = m_y if self.wtw.shape[-1] else 0.0
        m_res = m_y + np.sum(self.x_bounds.magnitudes * np.abs(beta), axis=1) + m_fit
        with np.errstate(over="ignore"):  # response bounds too wide give inf, refused below
            delta = m_res**2 / dof
        try:
            rss_noise = LaplaceSpec.from_budget(delta, eps_rss, 1, "rss")
        except ParameterError:
            raise ParameterError(
                "residual-variance noise scale overflows; the response bounds are too wide"
            ) from None
        sigma2 = rss / dof + rss_noise.sample(rng, sets)[:, 0]
        return PrivatizedRegressionEstimate(
            betas=beta,
            sigma2s=np.maximum(sigma2, SIGMA2_FLOOR),
            repairs=repairs,
            sizes=self.n,
            mechanisms=(gram_noise, xty_noise, rss_noise),
            noisy_grams=noisy_gram,
            noisy_xtys=noisy_xty,
        )
