"""Laplace mechanism, sensitivity bounds, and privacy-budget accounting.

Every privatized statistic in this package is released through the Laplace
mechanism: noise with scale b = delta / epsilon is added to the statistic,
where delta is its L1 sensitivity under substitution of a single record.
Sensitivities are derived from user-declared data bounds; raw data are clamped
into the declared box before sufficient statistics are formed, which makes the
derived sensitivities exact or conservative.

``epsilon = math.inf`` is an explicit, supported sentinel: the noise scale
collapses to zero, the sampler returns exact zeros, and no budget is charged.
Non-private baselines and oracle tests run through the same code path as the
private estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .errors import LedgerError, ParameterError

__all__ = [
    "Bounds",
    "LaplaceSpec",
    "PrivacyLedger",
    "SensitivitySpec",
    "laplace_sample",
    "laplace_scale",
    "laplace_symmetric_sample",
    "sensitivity_cross_bounded",
    "sensitivity_gram_bounded",
    "sensitivity_sum_bounded",
    "split_budget",
]


def _as_bound_arrays(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    up = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.ndim != 1 or up.ndim != 1 or lo.shape != up.shape or lo.size == 0:
        raise ParameterError("bounds must be matching non-empty vectors")
    if not (np.isfinite(lo).all() and np.isfinite(up).all()):
        raise ParameterError("bounds must be finite; sensitivity is undefined on an unbounded domain")
    if np.any(lo > up):
        raise ParameterError("lower bound exceeds upper bound")
    return lo, up


@dataclass(frozen=True, eq=False)
class Bounds:
    """A per-coordinate box the data are clamped into before privatization."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo, up = _as_bound_arrays(self.lower, self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def symmetric(cls, half_width: float, k: int) -> "Bounds":
        if half_width <= 0:
            raise ParameterError("half_width must be positive")
        return cls(np.full(k, -half_width), np.full(k, half_width))

    @classmethod
    def centered(cls, centers, half_width: float) -> "Bounds":
        c = np.atleast_1d(np.asarray(centers, dtype=float))
        if half_width <= 0:
            raise ParameterError("half_width must be positive")
        return cls(c - half_width, c + half_width)

    @property
    def k(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def magnitudes(self) -> np.ndarray:
        """Largest absolute value each coordinate can take inside the box."""
        return np.maximum(np.abs(self.lower), np.abs(self.upper))

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class SensitivitySpec:
    """L1 sensitivity of one released statistic."""

    statistic_id: str
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ParameterError(f"sensitivity for {self.statistic_id!r} must be finite and >= 0")


def sensitivity_sum_bounded(lower, upper) -> SensitivitySpec:
    """Sensitivity of a coordinatewise sum over data clamped into [lower, upper].

    Substituting one clamped record moves the sum by at most the box width in
    each coordinate, so delta is the total width.
    """
    lo, up = _as_bound_arrays(lower, upper)
    return SensitivitySpec("sum", float(np.sum(up - lo)))


def sensitivity_gram_bounded(lower, upper) -> SensitivitySpec:
    """Sensitivity of the second-moment matrix sum over the clamped box.

    For a single record x in the box, the full-matrix L1 norm of x x^T is at
    most (sum_j m_j)^2 with m_j = max(|lower_j|, |upper_j|); a substitution
    changes the sum by at most twice that.  The bound counts each mirrored
    off-diagonal pair twice, so it also covers the symmetric noise layout used
    by :func:`laplace_symmetric_sample`.
    """
    lo, up = _as_bound_arrays(lower, upper)
    m = np.maximum(np.abs(lo), np.abs(up))
    return SensitivitySpec("gram", float(2.0 * np.sum(m) ** 2))


def sensitivity_cross_bounded(x_lower, x_upper, y_lower: float, y_upper: float) -> SensitivitySpec:
    """Sensitivity of sum_i x_i * y_i for x in a box and scalar y in a range."""
    lo, up = _as_bound_arrays(x_lower, x_upper)
    ylo, yup = _as_bound_arrays(y_lower, y_upper)
    mx = np.maximum(np.abs(lo), np.abs(up))
    my = float(np.max(np.maximum(np.abs(ylo), np.abs(yup))))
    return SensitivitySpec("cross", float(2.0 * my * np.sum(mx)))


def laplace_scale(delta: float, epsilon: float) -> float:
    """Noise scale b = delta / epsilon; an infinite epsilon yields scale 0."""
    if math.isnan(epsilon) or epsilon <= 0:
        raise ParameterError("epsilon must be positive (math.inf disables noise)")
    if math.isinf(epsilon):
        return 0.0
    if not math.isfinite(delta) or delta < 0:
        raise ParameterError("sensitivity must be finite and >= 0")
    return delta / epsilon


@dataclass(frozen=True)
class LaplaceSpec:
    """Scale and shape of one Laplace noise draw.

    ``scale == 0.0`` is the degenerate zero-noise case produced by an infinite
    epsilon; any negative or non-finite scale is rejected.
    """

    scale: float
    dimension: int = 1

    def __post_init__(self):
        if not math.isfinite(self.scale) or self.scale < 0:
            raise ParameterError("Laplace scale must be finite and >= 0")
        if int(self.dimension) < 1:
            raise ParameterError("Laplace dimension must be >= 1")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def from_budget(cls, delta: float, epsilon: float, dimension: int = 1) -> "LaplaceSpec":
        return cls(laplace_scale(delta, epsilon), dimension)

    @property
    def is_zero(self) -> bool:
        return self.scale == 0.0

    def sample(
        self, rng: np.random.Generator, size: int | tuple[int, ...] | None = None
    ) -> np.ndarray:
        """i.i.d. draws with density (1/2b) exp(-|w|/b); zeros when b == 0.

        The result has shape ``(dimension,)``, or ``(*size, dimension)`` for an
        integer or tuple ``size``.  Draws taken through this method are
        simulation noise (bootstrap replicas of the mechanism); they never
        touch the privacy ledger.
        """
        shape = self.dimension if size is None else (*np.atleast_1d(size).tolist(), self.dimension)
        if self.is_zero:
            return np.zeros(shape)
        return rng.laplace(0.0, self.scale, size=shape)


def laplace_sample(spec: LaplaceSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a noise vector of ``spec.dimension`` i.i.d. Laplace(0, scale) values."""
    return spec.sample(rng)


def laplace_symmetric_sample(
    scale: float, k: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Symmetric k x k Laplace noise matrix, or a (size, k, k) stack of them.

    Entries are drawn i.i.d. on the diagonal and upper triangle and mirrored
    below, so the noisy matrix stays symmetric.  Mirrored pairs count twice in
    the matrix L1 norm, which the gram/cross sensitivity bounds already cover.
    """
    if k < 1:
        raise ParameterError("matrix dimension must be >= 1")
    lead = () if size is None else (size,)
    if scale == 0.0:
        return np.zeros((*lead, k, k))
    if not math.isfinite(scale) or scale < 0:
        raise ParameterError("Laplace scale must be finite and >= 0")
    w = np.zeros((*lead, k, k))
    iu = np.triu_indices(k)
    w[..., iu[0], iu[1]] = rng.laplace(0.0, scale, size=(*lead, iu[0].size))
    il = np.tril_indices(k, -1)
    w[..., il[0], il[1]] = w[..., il[1], il[0]]
    return w


@dataclass(frozen=True)
class PrivacyLedger:
    """Ordered record of per-statistic budget charges.

    The ledger is a value: :meth:`charge` returns a new ledger.  Charges are
    recorded at estimation time only; bootstrap-simulated noise draws go
    through :meth:`LaplaceSpec.sample` and never appear here.  Composition
    follows the configured regime: sequential totals add, parallel totals
    (mechanisms on disjoint data) take the maximum.
    """

    charges: tuple[tuple[str, float], ...] = ()
    regime: str = "sequential"  # or "parallel"

    def __post_init__(self):
        if self.regime not in ("sequential", "parallel"):
            raise ParameterError(f"unknown composition regime {self.regime!r}")

    def charge(self, statistic_id: str, epsilon: float) -> "PrivacyLedger":
        """Append a charge; an infinite epsilon spends nothing and is not logged."""
        if math.isnan(epsilon) or epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if math.isinf(epsilon):
            return self
        if any(sid == statistic_id for sid, _ in self.charges):
            raise LedgerError(f"statistic {statistic_id!r} already charged in this estimation")
        return replace(self, charges=self.charges + ((statistic_id, float(epsilon)),))

    def merge(self, other: "PrivacyLedger") -> "PrivacyLedger":
        if other.regime != self.regime:
            raise LedgerError("cannot merge ledgers with different composition regimes")
        merged = self
        for sid, eps in other.charges:
            merged = merged.charge(sid, eps)
        return merged

    def total(self) -> float:
        if self.regime == "sequential":
            return self.total_sequential()
        return self.total_parallel()

    def total_sequential(self) -> float:
        # fsum is exactly rounded, so the total is order-independent
        return math.fsum(eps for _, eps in self.charges)

    def total_parallel(self) -> float:
        if not self.charges:
            return 0.0
        return float(max(eps for _, eps in self.charges))

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "charges": [{"statistic": sid, "epsilon": eps} for sid, eps in self.charges],
            "total_sequential": self.total_sequential(),
            "total_parallel": self.total_parallel(),
        }


def split_budget(budget, count: int, shares=None) -> tuple[float, ...]:
    """Resolve a total-or-per-statistic budget into per-statistic epsilons.

    A scalar is divided across the ``count`` statistics: equally, or by
    ``shares``, which must be ``count`` positive fractions summing to 1 (any
    share of an infinite total is still infinite).  A sequence of length
    ``count`` is taken as explicit per-statistic budgets.
    """
    if count < 1:
        raise ParameterError("budget split needs at least one statistic")
    if np.isscalar(budget) or isinstance(budget, float):
        eps = float(budget)
        if math.isnan(eps) or eps <= 0:
            raise ParameterError("total epsilon must be positive")
        if shares is None:
            return (eps / count if math.isfinite(eps) else math.inf,) * count
        shares = tuple(float(s) for s in shares)
        fits = all(s > 0 for s in shares) and abs(sum(shares) - 1.0) <= 1e-9  # False on NaN
        if len(shares) != count or not fits:
            raise ParameterError(f"split must be {count} positive shares summing to 1")
        return tuple(s * eps for s in shares)
    parts = tuple(float(e) for e in budget)
    if len(parts) != count:
        raise ParameterError(f"expected {count} per-statistic budgets, got {len(parts)}")
    for e in parts:
        if math.isnan(e) or e <= 0:
            raise ParameterError("every per-statistic epsilon must be positive")
    return parts
