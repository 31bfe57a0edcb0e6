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

Every draw goes through a :class:`GeneratorStack`: R generators, one per
replication of a Monte Carlo block, that fill the rows of one array together.
A plain ``numpy.random.Generator`` is a stack of one, so a single release and
a block of releases run the same code, and each generator draws exactly what
it would draw alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .errors import LedgerError, ParameterError

__all__ = [
    "Bounds",
    "GeneratorStack",
    "LaplaceSpec",
    "PrivacyLedger",
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


class GeneratorStack:
    """R generators that draw one array together, each filling its own rows.

    The leading axis of a draw is split into R equal chunks, and generator i
    fills chunk i with the draw of that chunk's shape; so a stacked estimate
    whose sets are grouped by replication draws every replication's sets from
    that replication's generator.  A ragged draw names the generator of each
    leading row in ``owner`` instead (ascending).  :meth:`of` turns a plain
    ``numpy.random.Generator`` into a stack of one, which draws straight from
    its generator, with no split and no copy.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)

    @classmethod
    def of(cls, rng) -> "GeneratorStack":
        return rng if isinstance(rng, cls) else cls((rng,))

    def __len__(self) -> int:
        return len(self.generators)

    def owners(self, rows: int) -> np.ndarray:
        """The generator of each of ``rows`` leading rows split into equal chunks."""
        per, rest = divmod(rows, len(self.generators))
        if rest:
            raise ParameterError(f"{rows} rows do not split among {len(self.generators)} generators")
        return np.arange(rows) // per

    def chunks(self, rows: int, owner=None) -> list[slice]:
        """The leading rows of each generator: equal chunks, or by ``owner``."""
        if owner is None:
            owner = self.owners(rows)
        ends = np.searchsorted(owner, np.arange(len(self.generators)), side="right")
        return [slice(start, end) for start, end in zip([0, *ends[:-1]], ends)]

    def standard_normal(self, size: tuple[int, ...]) -> np.ndarray:
        if len(self.generators) == 1:
            return self.generators[0].standard_normal(size)
        out = np.empty(size)
        for rng, rows in zip(self.generators, self.chunks(size[0])):
            rng.standard_normal(out=out[rows])
        return out

    def laplace(self, loc: float, scale, size=None, owner=None) -> np.ndarray:
        """Laplace draws of ``size`` (the shape of an array ``scale`` by default);
        an array ``scale`` holds one scale per leading row."""
        size = np.shape(scale) if size is None else size
        if len(self.generators) == 1:
            return self.generators[0].laplace(loc, scale, size)
        out = np.empty(size)
        for rng, rows in zip(self.generators, self.chunks(size[0], owner)):
            part = scale if np.ndim(scale) == 0 else scale[rows]
            out[rows] = rng.laplace(loc, part, out[rows].shape)  # an empty chunk draws nothing
        return out

    def permutation(self, n: int) -> np.ndarray:
        """One permutation of range(n) per generator, as an (R, n) array."""
        return np.stack([rng.permutation(n) for rng in self.generators])


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


def sensitivity_sum_bounded(lower, upper) -> float:
    """Sensitivity of a coordinatewise sum over data clamped into [lower, upper].

    Substituting one clamped record moves the sum by at most the box width in
    each coordinate, so delta is the total width.
    """
    lo, up = _as_bound_arrays(lower, upper)
    with np.errstate(over="ignore"):  # bounds too wide give inf, which laplace_scale refuses
        return float(np.sum(up - lo))


def sensitivity_gram_bounded(lower, upper) -> float:
    """Sensitivity of the second-moment matrix sum over the clamped box.

    For a single record x in the box, the full-matrix L1 norm of x x^T is at
    most (sum_j m_j)^2 with m_j = max(|lower_j|, |upper_j|); a substitution
    changes the sum by at most twice that.  The bound counts each mirrored
    off-diagonal pair twice, so it also covers the symmetric noise layout used
    by :func:`laplace_symmetric_sample`.
    """
    lo, up = _as_bound_arrays(lower, upper)
    m = np.maximum(np.abs(lo), np.abs(up))
    with np.errstate(over="ignore"):
        return float(2.0 * np.sum(m) ** 2)


def sensitivity_cross_bounded(x_lower, x_upper, y_lower: float, y_upper: float) -> float:
    """Sensitivity of sum_i x_i * y_i for x in a box and scalar y in a range."""
    lo, up = _as_bound_arrays(x_lower, x_upper)
    ylo, yup = _as_bound_arrays(y_lower, y_upper)
    mx = np.maximum(np.abs(lo), np.abs(up))
    my = float(np.max(np.maximum(np.abs(ylo), np.abs(yup))))
    with np.errstate(over="ignore"):
        return float(2.0 * my * np.sum(mx))


def laplace_scale(delta: float, epsilon: float) -> float:
    """Noise scale b = delta / epsilon; an infinite epsilon yields scale 0.

    A non-finite delta (bounds so wide that the sensitivity overflows) is
    refused at every epsilon, the infinite one included.
    """
    if math.isnan(epsilon) or epsilon <= 0:
        raise ParameterError("epsilon must be positive (math.inf disables noise)")
    if not math.isfinite(delta) or delta < 0:
        raise ParameterError("sensitivity must be finite and >= 0")
    if math.isinf(epsilon):
        return 0.0
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
        touch the privacy ledger.  ``rng`` may be a :class:`GeneratorStack`.
        """
        shape = (self.dimension,) if size is None else (*np.atleast_1d(size).tolist(), self.dimension)
        if self.is_zero:
            return np.zeros(shape)
        return GeneratorStack.of(rng).laplace(0.0, self.scale, shape)


def laplace_symmetric_sample(
    scale: float, k: int, rng: np.random.Generator, size: int | None = None, owner=None
) -> np.ndarray:
    """Symmetric k x k Laplace noise matrix, or a (size, k, k) stack of them.

    Entries are drawn i.i.d. on the diagonal and upper triangle and mirrored
    below, so the noisy matrix stays symmetric.  Mirrored pairs count twice in
    the matrix L1 norm, which the gram/cross sensitivity bounds already cover.
    ``rng`` may be a :class:`GeneratorStack`, and ``owner`` then names the
    generator of each matrix of a ragged stack.
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
    w[..., iu[0], iu[1]] = GeneratorStack.of(rng).laplace(0.0, scale, (*lead, iu[0].size), owner)
    il = np.tril_indices(k, -1)
    w[..., il[0], il[1]] = w[..., il[1], il[0]]
    return w


@dataclass(frozen=True)
class PrivacyLedger:
    """Ordered record of per-statistic budget charges.

    The ledger is a value: :meth:`charge` returns a new ledger.  Charges are
    recorded at estimation time only; bootstrap-simulated noise draws go
    through :meth:`LaplaceSpec.sample` and never appear here.  Every charged
    statistic is computed from the same records, so the charges compose
    sequentially: the total is their sum.
    """

    charges: tuple[tuple[str, float], ...] = ()

    def charge(self, statistic_id: str, epsilon: float) -> "PrivacyLedger":
        """Append a charge; an infinite epsilon spends nothing and is not logged."""
        if math.isnan(epsilon) or epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if math.isinf(epsilon):
            return self
        if any(sid == statistic_id for sid, _ in self.charges):
            raise LedgerError(f"statistic {statistic_id!r} already charged in this estimation")
        return replace(self, charges=self.charges + ((statistic_id, float(epsilon)),))

    def total(self) -> float:
        # fsum is exactly rounded, so the total is order-independent
        return math.fsum(eps for _, eps in self.charges)

    def to_dict(self) -> dict:
        return {
            "charges": [{"statistic": sid, "epsilon": eps} for sid, eps in self.charges],
            "total_sequential": self.total(),  # the former name, which bench/run.py reads
        }


def split_budget(budget, count: int) -> tuple[float, ...]:
    """Resolve a total-or-per-statistic budget into per-statistic epsilons.

    A scalar is divided equally across the ``count`` statistics (any share of
    an infinite total is still infinite).  A sequence is taken as explicit
    per-statistic budgets, one for each of the ``count`` statistics.
    """
    if count < 1:
        raise ParameterError("budget split needs at least one statistic")
    if np.isscalar(budget) or isinstance(budget, float):
        eps = float(budget)
        if math.isnan(eps) or eps <= 0:
            raise ParameterError("total epsilon must be positive")
        return (eps / count if math.isfinite(eps) else math.inf,) * count
    parts = tuple(float(e) for e in budget)
    if len(parts) != count:
        raise ParameterError(f"the budget split has {len(parts)} parts for {count} statistics")
    for e in parts:
        if math.isnan(e) or e <= 0:
            raise ParameterError("every per-statistic epsilon must be positive")
    return parts
