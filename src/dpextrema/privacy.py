"""Laplace mechanism, sensitivity bounds, and privacy-budget accounting.

Every privatized statistic in this package is released through the Laplace
mechanism: noise with scale b = delta / epsilon is added to the statistic,
where delta is its L1 sensitivity under substitution of a single record.
Sensitivities read the declared data box, a :class:`Bounds` checked once when
it is made; raw data are clamped into it before sufficient statistics are
formed, which makes the derived sensitivities exact or conservative.

Each released statistic has one :class:`LaplaceSpec` record: its name,
sensitivity, epsilon, dimension and scale.  :meth:`LaplaceSpec.sample` is the
one Laplace draw: a release draws its noise there (the symmetric gram noise
as its free entries, mirrored by :func:`symmetric_layout`), the bootstrap
replays the same records there, and the ledger and noise scales are read from
them too.

``epsilon = math.inf`` is an explicit, supported sentinel: the noise scale
collapses to zero, the noise is exact zeros, and no budget is charged.
Non-private baselines and oracle tests run through the same code path as the
private estimators.

Every draw goes through a :class:`GeneratorStack`: R generators, one per
replication of a Monte Carlo block, that fill R equal chunks of the rows of
one array together.  A plain ``numpy.random.Generator`` is a stack of one, so
a single release and a block of releases run the same code, and each
generator draws exactly what it would draw alone.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
import numpy as np

from .errors import LedgerError, ParameterError

__all__ = [
    "Bounds",
    "GeneratorStack",
    "LaplaceSpec",
    "PrivacyLedger",
    "check_epsilon",
    "laplace_scale",
    "sensitivity_cross_bounded",
    "sensitivity_gram_bounded",
    "sensitivity_sum_bounded",
    "split_budget",
    "symmetric_layout",
]


class GeneratorStack:
    """R generators that draw one array together, each filling its own rows.

    The leading axis of a draw is split into R equal chunks, and generator i
    fills chunk i with the draw of that chunk's shape; so a stacked estimate
    whose sets are grouped by replication draws every replication's sets from
    that replication's generator.  :meth:`of` turns a plain
    ``numpy.random.Generator`` into a stack of one, whose one chunk is the
    whole draw.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)

    @classmethod
    def of(cls, rng) -> "GeneratorStack":
        return rng if isinstance(rng, cls) else cls((rng,))

    def __len__(self) -> int:
        return len(self.generators)

    def chunks(self, rows: int) -> list[slice]:
        """The leading rows of each generator, ``rows`` split into equal chunks."""
        per, rest = divmod(rows, len(self.generators))
        if rest:
            raise ParameterError(f"{rows} rows do not split among {len(self.generators)} generators")
        return [slice(i * per, (i + 1) * per) for i in range(len(self.generators))]

    def standard_normal(self, size: tuple[int, ...]) -> np.ndarray:
        out = np.empty(size)
        for rng, rows in zip(self.generators, self.chunks(size[0])):
            rng.standard_normal(out=out[rows])
        return out

    def laplace(self, loc: float, scale, size: tuple[int, ...]) -> np.ndarray:
        """Laplace draws of ``size``; an array ``scale`` broadcasts against it
        and is cut along the leading axis with the rows."""
        out = np.empty(size)
        for rng, rows in zip(self.generators, self.chunks(size[0])):
            part = scale if np.ndim(scale) == 0 else scale[rows]
            out[rows] = rng.laplace(loc, part, out[rows].shape)
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
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or up.ndim != 1 or lo.shape != up.shape or lo.size == 0:
            raise ParameterError("bounds must be matching non-empty vectors")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ParameterError("bounds must be finite; sensitivity is undefined on an unbounded domain")
        if np.any(lo > up):
            raise ParameterError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def symmetric(cls, half_width: float, k: int) -> "Bounds":
        return cls.centered(np.zeros(k), half_width)

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


def sensitivity_sum_bounded(bounds: Bounds) -> float:
    """Sensitivity of a coordinatewise sum over data clamped into ``bounds``.

    Substituting one clamped record moves the sum by at most the box width in
    each coordinate, so delta is the total width.
    """
    with np.errstate(over="ignore"):  # bounds too wide give inf, which laplace_scale refuses
        return float(np.sum(bounds.widths))


def sensitivity_gram_bounded(bounds: Bounds) -> float:
    """Sensitivity of the second-moment matrix sum over data clamped into ``bounds``.

    For a single record x in the box, the full-matrix L1 norm of x x^T is at
    most (sum_j m_j)^2 with m_j the coordinate magnitudes; a substitution
    changes the sum by at most twice that.  The bound counts each mirrored
    off-diagonal pair twice, so it also covers noise drawn on the free entries
    of :func:`symmetric_layout` and mirrored into the full matrix.
    """
    with np.errstate(over="ignore"):
        return float(2.0 * np.sum(bounds.magnitudes) ** 2)


def sensitivity_cross_bounded(x_bounds: Bounds, y_bounds: Bounds) -> float:
    """Sensitivity of sum_i x_i * y_i for x in ``x_bounds`` and scalar y in ``y_bounds``."""
    my = float(np.max(y_bounds.magnitudes))
    with np.errstate(over="ignore"):
        return float(2.0 * my * np.sum(x_bounds.magnitudes))


def _finite_nonnegative(x) -> bool:
    """Whether the float ``x``, or every entry of the array ``x``, is finite and >= 0."""
    return bool(((0.0 <= x) & (x < math.inf)).all()) if isinstance(x, np.ndarray) else 0.0 <= x < math.inf


def check_epsilon(epsilon, subject: str = "epsilon") -> float:
    """The one epsilon rule, a positive real with ``math.inf`` allowed; refusals name ``subject``."""
    if not (isinstance(epsilon, numbers.Real) and epsilon > 0):  # False on NaN
        raise ParameterError(f"{subject} must be positive (inf allowed)")
    return float(epsilon)


def laplace_scale(delta, epsilon: float):
    """Noise scale b = delta / epsilon; an infinite epsilon yields scale 0.

    ``delta`` may be an array, one sensitivity per data set, which gives one
    scale per set.  A non-finite delta (bounds so wide that the sensitivity
    overflows) is refused at every epsilon, the infinite one included.
    """
    epsilon = check_epsilon(epsilon)
    if not _finite_nonnegative(delta):
        raise ParameterError("sensitivity must be finite and >= 0")
    return 0.0 * delta if math.isinf(epsilon) else delta / epsilon


@dataclass(frozen=True, eq=False)
class LaplaceSpec:
    """The Laplace mechanism of one released statistic, or simulated noise.

    A release's record comes from :meth:`from_budget`: the statistic's
    ``name``, its L1 ``sensitivity`` delta, the ``epsilon`` it spends, its
    ``dimension`` and ``scale`` = delta / epsilon, (F,) arrays when delta
    differs by data set.  A record made from a scale alone has no sensitivity
    and charges nothing.  Any negative or non-finite scale is rejected.
    """

    scale: float | np.ndarray
    dimension: int = 1
    name: str = ""
    sensitivity: float | np.ndarray | None = None
    epsilon: float = math.inf

    def __post_init__(self):
        scale = self.scale if isinstance(self.scale, np.ndarray) and self.scale.ndim else float(self.scale)
        if not _finite_nonnegative(scale):
            raise ParameterError("Laplace scale must be finite and >= 0")
        if int(self.dimension) < 1:
            raise ParameterError("Laplace dimension must be >= 1")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def from_budget(cls, delta, epsilon: float, dimension: int = 1, name: str = "") -> "LaplaceSpec":
        return cls(laplace_scale(delta, epsilon), dimension, name, delta, epsilon)

    @property
    def is_zero(self) -> bool:
        return not (self.scale.any() if isinstance(self.scale, np.ndarray) else self.scale)

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """i.i.d. draws with density (1/2b) exp(-|w|/b); zeros when b == 0.

        The result has shape ``(*size, dimension)`` for an integer or tuple
        ``size``, ``(dimension,)`` for ``size=()``; ``rng`` may be a
        :class:`GeneratorStack`.  A per-set scale needs ``size`` = F: set f
        draws from its generator with its scale, as one broadcast draw.  Every
        Laplace draw of the package, released or replayed by the bootstrap,
        is made here.
        """
        shape = (*np.atleast_1d(size).tolist(), self.dimension)
        if self.is_zero:
            return np.zeros(shape)
        scale = self.scale[:, None] if isinstance(self.scale, np.ndarray) else self.scale
        return GeneratorStack.of(rng).laplace(0.0, scale, shape)


@functools.cache
def symmetric_layout(k: int) -> tuple[np.ndarray, np.ndarray]:
    """How a symmetric k x k matrix is held as its k(k+1)/2 free entries.

    The free entries are the upper triangle in ``np.triu_indices(k)`` order.
    Returns the (k, k) position of every matrix entry in that vector, so
    ``np.take(tri, index, axis=-1)`` mirrors a stack of triangles into full
    matrices, and the weight of each free entry in the squared Frobenius
    norm: 1 on the diagonal, 2 off it.  Both arrays are read-only.
    """
    rows, cols = np.triu_indices(k)
    index = np.empty((k, k), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    weights = np.where(rows == cols, 1.0, 2.0)
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


@dataclass(frozen=True)
class PrivacyLedger:
    """Ordered record of per-statistic budget charges.

    The ledger is a value: :meth:`charge` returns a new ledger.  A release
    charges the epsilon of each of its records; bootstrap-simulated noise is
    drawn from the same records and never appears here.  Every charged
    statistic is computed from the same records, so the charges compose
    sequentially: the total is their sum.
    """

    charges: tuple[tuple[str, float], ...] = ()

    def charge(self, statistic_id: str, epsilon: float) -> "PrivacyLedger":
        """Append a charge; an infinite epsilon spends nothing and is not logged."""
        epsilon = check_epsilon(epsilon)
        if math.isinf(epsilon):
            return self
        if any(sid == statistic_id for sid, _ in self.charges):
            raise LedgerError(f"statistic {statistic_id!r} already charged in this estimation")
        return replace(self, charges=self.charges + ((statistic_id, epsilon),))

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
    if np.ndim(budget) == 0:
        eps = check_epsilon(budget, "total epsilon")
        return (eps / count if math.isfinite(eps) else math.inf,) * count
    parts = tuple(budget)
    if len(parts) != count:
        raise ParameterError(f"the budget split has {len(parts)} parts for {count} statistics")
    return tuple(check_epsilon(e, "every per-statistic epsilon") for e in parts)
