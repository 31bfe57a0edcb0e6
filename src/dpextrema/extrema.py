"""Lower confidence limits for the maximum of the coordinates of interest.

The main entry point is :func:`ppb_limits`, the privatized parametric
bootstrap with selection-bias correction:

1. take the released coordinate estimates and their maximum;
2. shift each bootstrap replica coordinate up by its correction term
   ``(1 - n^(r - 0.5)) * (max - estimate_j)``, which counteracts the upward
   selection bias of the plug-in maximum (winner's curse);
3. collect the centered, sqrt(n)-scaled maxima of the shifted replicas and
   read the lower limit off their upper quantile.

``r`` in (0, 0.5] tunes the correction: r = 0.5 disables it (the semi-naive
bootstrap) and the ``FULL_CORRECTION`` sentinel applies the full distance to
the maximum.  Smaller r corrects more aggressively, trading limit tightness
for coverage.  Normal-approximation and Bonferroni baselines are provided for
comparison, using only released quantities so they satisfy the same privacy
guarantee.

Every limit is computed for a stack of R estimates at once (``ppb_limits``,
``naive_limits``, ``bonferroni_limits``), which is how the Monte Carlo harness
computes a block of replications.  The single-estimate functions
(``ppb_lower_limit``, ``naive_lower_limit``, ``bonferroni_lower_limit``) run
those calls on a stack of one, set 0 of a released estimate, and wrap the
result in a :class:`ConfidenceResult`.

Minima are out of scope: negate the data (or coordinates) and the resulting
limit, which turns an upper extremum problem into this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegeneracyError, ParameterError

#: Sentinel for full-strength correction, the r -> -inf limit of the shrinkage
#: factor 1 - n^(r - 0.5).  Using the IEEE value keeps the arithmetic exact.
FULL_CORRECTION = float("-inf")

DEFAULT_B = 1000
DEFAULT_B_INNER = 200
MAX_FAILED_FRACTION = 0.01

__all__ = [
    "ConfidenceResult",
    "DEFAULT_B",
    "DEFAULT_B_INNER",
    "FULL_CORRECTION",
    "bias_correction",
    "bonferroni_limits",
    "bonferroni_lower_limit",
    "correction_factor",
    "naive_limits",
    "naive_lower_limit",
    "ppb_limits",
    "ppb_lower_limit",
    "quantile",
]


def correction_factor(r, n):
    """Shrinkage factor 1 - n^(r - 0.5) for r in (0, 0.5] or FULL_CORRECTION.

    Arrays of r and n broadcast against each other.  Since n^(-inf) = 0, the
    sentinel's factor is exactly 1.
    """
    r_arr = np.asarray(r, dtype=float)
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 2):
        raise ParameterError("correction needs n >= 2")
    if not np.all(((0.0 < r_arr) & (r_arr <= 0.5)) | (r_arr == FULL_CORRECTION)):
        raise ParameterError("r must lie in (0, 0.5] or be FULL_CORRECTION")
    factor = 1.0 - n_arr ** (r_arr - 0.5)
    return float(factor) if factor.ndim == 0 else factor


def bias_correction(betas, r, n) -> np.ndarray:
    """Per-coordinate upward shifts applied to bootstrap replicas.

    (..., k) estimates give (..., k) shifts factor * (max_i beta_i - beta_j),
    with the factor of :func:`correction_factor`, whose r and n broadcast
    against the leading axes.  The shift of the leading coordinate is exactly
    zero, shifts are nonnegative, and for fixed estimates they are
    componentwise nonincreasing in r.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size < 1:
        raise ParameterError("need at least one coordinate")
    return np.asarray(correction_factor(r, n))[..., None] * (
        betas.max(axis=-1)[..., None] - betas
    )


def _replica_maxima(draws: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Largest coordinate of each shifted replica: (..., B, k) draws and
    (..., k) shifts give (..., B) maxima."""
    # replicas along the contiguous axis: a max across k rows of replicas is
    # vectorized, while a max along a short contiguous axis of k is not
    shifted = np.add(np.swapaxes(draws, -1, -2), shifts[..., :, None], order="C")
    return shifted.max(axis=-2)


def _statistic_batch(draws: np.ndarray, shifts: np.ndarray, beta_max, n) -> np.ndarray:
    """Centered, scaled maximum of each shifted replica: (..., B, k) draws,
    (..., k) shifts and (...) maxima and sizes give (..., B) values."""
    if draws.shape[-1:] != shifts.shape[-1:]:
        raise ParameterError("replica and correction dimensions differ")
    centered = _replica_maxima(draws, shifts) - np.asarray(beta_max)[..., None]
    return np.sqrt(n)[..., None] * centered


def _order_statistics(values: np.ndarray, valid: np.ndarray, p: float) -> np.ndarray:
    """The ceil(p * (m + 1))-th smallest of each row's m = ``valid`` values,
    the index clamped into [1, m]; NaN values (failed draws) sort last."""
    idx = np.minimum(np.maximum(np.ceil(p * (valid + 1)), 1), valid).astype(np.intp) - 1
    part = np.partition(values, np.unique(idx), axis=-1)
    return np.take_along_axis(part, idx[..., None], axis=-1)[..., 0]


def quantile(values, p: float) -> float:
    """Order-statistic quantile: the ceil(p * (B + 1))-th smallest value.

    The index is clamped into [1, B].  Slightly conservative and exact under
    exchangeability of the values.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ParameterError("quantile of an empty sample")
    if math.isnan(p) or not (0.0 < p < 1.0):
        raise ParameterError("quantile level must lie in (0, 1)")
    return float(_order_statistics(v, np.array(v.size), p))


@dataclass(frozen=True)
class ConfidenceResult:
    """A one-sided lower confidence limit and how it was obtained.

    For bootstrap methods ``lower_limit + c_alpha / sqrt(n) == beta_max_priv``
    holds to machine precision; the baselines fill ``c_alpha`` so the same
    identity applies.
    """

    lower_limit: float
    level: float
    c_alpha: float
    B: int | None
    method: str
    r_used: float | None = None
    failed_draws: int = 0


def _method_tag(r: float, privacy_noise: bool) -> str:
    if not privacy_noise:
        return "rppb"
    return "semi_naive" if r == 0.5 else "ppb"


def _check_alpha(alpha: float) -> None:
    if math.isnan(alpha) or not (0.0 < alpha < 0.5):
        raise ParameterError("alpha must lie in (0, 0.5)")


def _check_B(B: int) -> None:
    if B < 100:
        raise ParameterError("B must be >= 100")


def _check_failed_draws(failed: np.ndarray, b_total: int) -> None:
    """Refuse a stack of estimates if any of them failed more than
    ``MAX_FAILED_FRACTION`` of its ``b_total`` draws; ``failed`` counts each one's."""
    degenerate = failed > MAX_FAILED_FRACTION * b_total
    if degenerate.any():
        raise DegeneracyError(
            f"{failed[degenerate][0]} of {b_total} bootstrap draws failed; estimate too degenerate"
        )


def ppb_limits(betas, draws, failed, r, n, alpha: float = 0.05):
    """Bootstrap lower limits of a stack of R estimates.

    ``betas`` is (R, k) and ``draws`` (R, B, k) holds every attempted draw,
    a failed one as a NaN row, with ``failed`` (R,) counting them; ``r`` and
    ``n`` are scalars or (R,) arrays.  Each estimate is checked as one: B of
    at least 100 counting failed draws, at most 1 % of them failed, and r in
    range.  Returns the (R,) lower limits and their (R,) ``c_alpha``.
    """
    _check_alpha(alpha)
    betas = np.asarray(betas, dtype=float)
    beta_max = betas.max(axis=-1)
    shifts = bias_correction(betas, r, n)
    b_total = draws.shape[-2]
    _check_B(b_total)
    _check_failed_draws(failed, b_total)
    t_values = _statistic_batch(draws, shifts, beta_max, n)
    c_alpha = _order_statistics(t_values, b_total - failed, 1.0 - alpha)
    return beta_max - c_alpha / np.sqrt(n), c_alpha


def ppb_lower_limit(
    estimate, r: float, rng: np.random.Generator, alpha: float = 0.05, B: int = DEFAULT_B,
    privacy_noise: bool = True,
) -> ConfidenceResult:
    """Privatized parametric bootstrap lower limit for the coordinate maximum
    of set 0 of a released ``estimate``.

    Runs ``B`` bootstrap draws of the estimate, applies the bias correction at
    strength ``r``, and returns the (1 - alpha) limit: :func:`ppb_limits` on a
    stack of one.  The bootstrap spends no additional privacy budget:
    replicas are simulated from the released estimate only.
    ``privacy_noise=False`` reproduces the ablation that skips the simulated
    privatization noise (and undercovers).
    """
    # ppb_limits refuses a B below 100; a negative one draws nothing
    draws, failed = estimate.replica_draws(max(B, 0), rng, 1, privacy_noise)
    failed = failed.sum(axis=1)
    lower, c_alpha = ppb_limits(estimate.betas[:1], draws, failed, r, estimate.sizes[:1], alpha)
    return ConfidenceResult(
        lower_limit=float(lower[0]),
        level=1.0 - alpha,
        c_alpha=float(c_alpha[0]),
        B=int(draws.shape[1] - failed[0]),
        method=_method_tag(r, privacy_noise),
        r_used=r,
        failed_draws=int(failed[0]),
    )


def naive_limits(betas, variances, n, alpha: float = 0.05):
    """Normal-approximation limits of a stack of R estimates: (R, k) released
    coordinates and their variances, (R,) sizes; returns the (R,) lower
    limits and their (R,) ``c_alpha``."""
    _check_alpha(alpha)
    j = np.argmax(betas, axis=-1)[..., None]
    se = np.sqrt(np.take_along_axis(variances, j, axis=-1)[..., 0])
    z = NormalDist().inv_cdf(1.0 - alpha)
    return np.take_along_axis(betas, j, axis=-1)[..., 0] - z * se, z * se * np.sqrt(n)


def bonferroni_limits(betas, variances, n, alpha: float = 0.05):
    """Bonferroni limits of a stack of R estimates, laid out as in :func:`naive_limits`."""
    _check_alpha(alpha)
    z = NormalDist().inv_cdf(1.0 - alpha / betas.shape[-1])
    lower = (betas - z * np.sqrt(variances)).max(axis=-1)
    return lower, (betas.max(axis=-1) - lower) * np.sqrt(n)


def _baseline(limits, estimate, alpha: float, private: bool, method: str):
    """``limits`` of set 0 of ``estimate``, a stack of one."""
    lower, c_alpha = limits(
        estimate.betas[:1], estimate.variances(private)[:1], estimate.sizes[:1], alpha
    )
    return ConfidenceResult(
        lower_limit=float(lower[0]),
        level=1.0 - alpha,
        c_alpha=float(c_alpha[0]),
        B=None,
        method=f"{method}_{'private' if private else 'nonprivate'}",
    )


def naive_lower_limit(estimate, alpha: float = 0.05, private: bool = True) -> ConfidenceResult:
    """Normal-approximation limit on the winning coordinate, ignoring selection.

    The standard error combines the plug-in variance of the selected
    coordinate with (under ``private``) the Laplace noise variance of its
    release, so the baseline is not handicapped by unaccounted noise.
    """
    return _baseline(naive_limits, estimate, alpha, private, "naive")


def bonferroni_lower_limit(estimate, alpha: float = 0.05, private: bool = True) -> ConfidenceResult:
    """Max of per-coordinate limits at level 1 - alpha/k (union bound)."""
    return _baseline(bonferroni_limits, estimate, alpha, private, "bonferroni")


def bias_reduced_from_draws(beta_priv: np.ndarray, draws: np.ndarray, r, n):
    """Bias-reduced maximum from precomputed replica draws.

    Also takes a stack of S estimates at once: ``beta_priv`` (S, k) with
    ``draws`` (S, B, k) and ``n`` (S,).  A vector of m values of ``r`` shares
    the draws, and the result then has shape (m, S), or (m,) for one estimate.
    A NaN row of ``draws`` (a failed draw) is left out of the mean.
    """
    beta = np.asarray(beta_priv, dtype=float)
    beta_max = beta.max(axis=-1)
    r_arr = np.reshape(r, np.shape(r) + (1,) * beta_max.ndim)
    replica_max = _replica_maxima(draws, bias_correction(beta, r_arr, n))
    mean = replica_max.mean(axis=-1)
    if np.isnan(mean).any():
        mean = np.nanmean(replica_max, axis=-1)
    reduced = beta_max - (mean - beta_max)
    return float(reduced) if reduced.ndim == 0 else reduced
