"""Monte Carlo experiment engine and tidy CSV reporting.

A configuration describes a data-generating truth, a privacy budget (or a
sweep of budgets), and a list of methods; :func:`run_experiment` replays the
configured number of replications, recording for each method whether its
lower limit covered the true maximum and the distance between the two.

Reproducibility contract: replication ``i`` at sweep position ``e`` draws all
of its randomness from ``SeedSequence(seed, spawn_key=(0, e, i))``; a fixed
regression design uses ``spawn_key=(1,)``.  Reports are therefore a pure
function of the configuration, independent of the worker count, the thread
count and execution order.

Replications run in blocks of R, as stacks: each replication generates its
data with its own generator, one :func:`~dpextrema.models.fold_statistics`
call reduces the block's data sets to statistics as they are generated, and
then every release, bootstrap draw, cross-validation and limit of the block
is one stacked computation, while a :class:`~dpextrema.privacy.GeneratorStack`
keeps drawing each replication's rows from that replication's generator, in
the order it would draw them alone.  So the block size, like the worker
count, changes no result.  A block returns its lower limits; only
:func:`run_experiment` reads the true maximum, and scores them.

A block is one loop over the report rows that :attr:`MethodSpec.rows` lists:
a release is made on its first use, and each replica draw once, dropped
after the last row that reads it.

A study's blocks, of every epsilon, run concurrently when there is more than
one block and more than one usable CPU (the process's affinity mask, which
``taskset`` narrows): on a process pool of ``workers`` when ``workers > 1``,
and otherwise on a thread pool of one thread per usable CPU, whose numpy
draws and solves release the GIL.  Block outcomes are gathered in plan
order, so every report row is summed as a serial run sums it, and the error
raised is that of the first failing block in plan order.

Simulation bounds: experiments declare the data box as truth +/- a configured
half-width (3 sigma-equivalents by default), mirroring how a practitioner
declares plausible data ranges a priori.  Sensitivities derive from that box
and the data are clamped into it, so the stated privacy guarantee is honest.

One table of config keys: each :class:`ExperimentConfig` field declares its
``[experiment]`` key, the parser of its text (the parsers of the CLI flags,
such as :func:`parse_number` and :func:`parse_split`), the check of its
value, the models that read it and the fill of an unset vector.
:func:`load_config`, the checks of a config from any source and the refusal
of a key the model does not read all read that table, so each bad key or
value is a :class:`ParameterError` that names its key.
"""

from __future__ import annotations

import collections.abc
import concurrent.futures
import configparser
import csv
import math
import numbers
import os
import typing
from dataclasses import dataclass, field, fields
import numpy as np

from .crossval import DEFAULT_FOLDS, DEFAULT_GRID, CVConfig, check_cv, cv_choose_r
from .errors import ParameterError
from .extrema import (
    DEFAULT_B,
    DEFAULT_B_INNER,
    FULL_CORRECTION,
    _check_alpha,
    _check_B,
    bonferroni_limits,
    naive_limits,
    ppb_limits,
)
from .models import GaussianData, GaussianStatistics, RegressionData, RegressionStatistics, fold_statistics
from .privacy import Bounds, GeneratorStack, check_epsilon, split_budget

R_METHODS = ("ppb", "npb", "rppb")
BASELINE_METHODS = ("naive", "bonferroni")

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "MethodSpec",
    "ReportRow",
    "REPORT_COLUMNS",
    "check_shares",
    "divide_budget",
    "emit_plot_data",
    "format_epsilon",
    "format_r_token",
    "load_config",
    "parse_floats",
    "parse_grid",
    "parse_number",
    "parse_r_token",
    "parse_split",
    "run_experiment",
]


def parse_r_token(token: str, what: str = "r value") -> float:
    """Parse a correction-strength token named ``what``: a float, a fraction, or ``full``."""
    t = str(token).strip().lower()
    if t == "full":
        return FULL_CORRECTION
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            return float(num) / float(den)
        return float(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse {what} {token!r}") from exc


def parse_grid(text: str, what: str = "r value") -> tuple[float, ...]:
    """A cross-validation grid named ``what``: comma-separated tokens read by :func:`parse_r_token`."""
    return tuple(parse_r_token(tok, what) for tok in text.split(","))


def format_r_token(r: float) -> str:
    if r == FULL_CORRECTION:
        return "full"
    return f"{r:g}"


def format_epsilon(epsilon: float) -> str:
    """An epsilon as reports and the CLI print it: ``%g``, which writes ``inf``."""
    return f"{epsilon:g}"


def parse_number(text: str, what: str) -> float:
    """One number (``inf`` included) from a flag or config value named ``what``."""
    try:
        return float(text)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {what} {text!r}") from exc


def parse_floats(text: str, what: str) -> tuple[float, ...]:
    """A comma- or semicolon-separated list of numbers, read by :func:`parse_number`."""
    tokens = (tok.strip() for tok in text.replace(";", ",").split(","))
    return tuple(parse_number(tok, what) for tok in tokens if tok)


def check_shares(shares) -> tuple[float, ...]:
    """Budget shares as floats, which must be positive and sum to 1; the model checks their count."""
    shares = tuple(float(s) for s in shares)
    if not (all(s > 0 for s in shares) and abs(sum(shares) - 1.0) <= 1e-9):  # False on NaN, inf
        raise ParameterError("split must be positive shares summing to 1")
    return shares


def parse_split(text: str | None) -> tuple[float, ...] | None:
    """Budget shares from ``text``; ``None``, the equal split, for ``equal`` or nothing."""
    t = (text or "").strip().lower()
    return None if t in ("", "equal") else check_shares(parse_floats(t, "split"))


def divide_budget(epsilon: float, shares: tuple[float, ...] | None):
    """Per-statistic epsilons by ``shares``, or the total, which the release splits equally."""
    return epsilon if shares is None else tuple(s * epsilon for s in shares)


@dataclass(frozen=True)
class MethodSpec:
    """One configured method, a bootstrap variant with r tokens or a baseline; it refuses unread fields."""

    name: str
    r_tokens: tuple[str, ...] = ()
    private: bool = True

    def __post_init__(self):
        if self.name not in R_METHODS + ("semi_naive",) + BASELINE_METHODS:
            raise ParameterError(f"unknown method {self.name!r}")
        if self.name in R_METHODS and not self.r_tokens:
            raise ParameterError(f"{self.name} needs at least one r value")
        if self.r_tokens and self.name not in R_METHODS:
            raise ParameterError(f"method {self.name!r} does not read r_tokens")
        if not self.private and self.name not in BASELINE_METHODS:
            raise ParameterError(f"method {self.name!r} does not read private")
        for token in self.r_tokens:
            if token == "cv":
                continue
            r = parse_r_token(token, f"{self.name} r token")
            if not (0.0 < r <= 0.5 or r == FULL_CORRECTION):
                raise ParameterError(f"{self.name} r token {token!r} must lie in (0, 0.5] or be full")

    @property
    def label(self) -> str:
        if self.name in BASELINE_METHODS:
            return f"{self.name}_{'private' if self.private else 'nonprivate'}"
        return self.name

    @property
    def rows(self) -> tuple:
        """(r token, private, privacy noise, baseline limits or None) of each row it reports, in report order."""
        if self.name in BASELINE_METHODS:
            return (("", self.private, False, naive_limits if self.name == "naive" else bonferroni_limits),)
        if self.name == "semi_naive":
            return (("0.5", True, True, None),)
        return tuple((token, self.name != "npb", self.name != "rppb", None) for token in self.r_tokens)


def _parse_int(text: str, key: str) -> int:
    """One integer from a config value named ``key``."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {key} {text!r}") from exc


_SHORTHANDS = {"zeros": lambda k: (0.0,) * k, "zeros+1": lambda k: (0.0,) * (k - 1) + (1.0,)}


def _parse_truth(text: str, key: str):
    """A truth vector: numbers, or ``zeros`` or ``zeros+1`` (a last 1), which its check sizes by k."""
    t = text.strip().lower()
    return t if t in _SHORTHANDS else parse_floats(text, key)


def _at_least(low, wording, kind=numbers.Integral, then=None):  # NaN is not below low
    def check(config, name, value):
        if not isinstance(value, kind) or value < low:
            raise ParameterError(f"{name} must be {wording}, got {value!r}")
        if then:
            then(value)
    return check


def _positive_finite(config, name, value):
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):  # False on NaN and None
        raise ParameterError(f"{name} must be positive and finite")


def _vector(low, wording, sized=True):  # numbers above low and finite; sized, k of them
    def check(config, name, value):
        if isinstance(value, str) and value in _SHORTHANDS:
            value = _SHORTHANDS[value](config.k)
        if not all(isinstance(v, numbers.Real) and low < v < math.inf for v in value):  # False on NaN
            raise ParameterError(f"{name} must be {wording}")
        value = tuple(float(v) for v in value)
        if sized and len(value) != config.k:
            raise ParameterError(f"{name} length does not match k")
        return value
    return check


def _check_model(config, name, value):
    if value not in _MODELS:
        raise ParameterError(f"unknown model {value!r}; the supported models are {', '.join(_MODELS)}")


def _check_epsilons(config, name, value):
    if not value:
        raise ParameterError("at least one epsilon is required")
    for eps in value:
        check_epsilon(eps, "every epsilon")


def _check_methods(config, name, value):  # each (label, r token) row once
    if not value:
        raise ParameterError("at least one method is required")
    seen = set()
    for spec in value:
        if not isinstance(spec, MethodSpec):
            raise ParameterError(f"{name} must hold MethodSpec entries, got {spec!r}")
        for token, *_ in spec.rows:
            if (spec.label, token) in seen:
                what = f"{spec.label} r token {token!r}" if spec.r_tokens else f"method {spec.label!r}"
                raise ParameterError(f"{what} is given twice")
            seen.add((spec.label, token))


def _check_split(config, name, value):  # one share per statistic that the model releases
    return split_budget(check_shares(value), len(_MODELS[config.model].statistics.RELEASED))


def _check_design(config, name, value):  # an unset design is resampled
    if value not in ("resampled", "fixed"):
        raise ParameterError("design must be 'resampled' or 'fixed'")


_INTEGER, _POSITIVE = _at_least(-math.inf, "an integer"), _at_least(1, "a positive integer")
_FINITE = _vector(-math.inf, "finite")
_GAUSSIAN, _REGRESSIONS = ("gaussian",), ("regression", "partial_regression")


def _key(parse, check, models=None, fill=None, key=None, **kwargs):
    """A field of :class:`ExperimentConfig` with its row of the table of config keys."""
    return field(metadata={"parse": parse, "check": check, "models": models, "fill": fill, "key": key}, **kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """A Monte Carlo study, whose fields are the one table of config keys.

    Each field's metadata (:func:`_key`) holds ``parse(text, key)``, which
    reads its ``[experiment]`` value (None: it has no key), named ``key`` or
    else as the field; ``check(config, name, value)``, which refuses a bad
    value, naming the field, and returns it normalized, or None to keep it;
    the ``models`` that read it (None: all), the others refusing a value
    other than its default; and ``fill(k)``, an unset vector's value.  The
    fields are checked in order, whatever their source: a config file, the
    constructor or ``dataclasses.replace``.  A field whose default is None
    is unset when None, and then only filled.
    """

    model: str = _key(lambda text, key: text, _check_model)
    n: int = _key(_parse_int, _POSITIVE)
    k: int = _key(_parse_int, _POSITIVE)
    epsilons: tuple[float, ...] = _key(parse_floats, _check_epsilons, key="epsilon")
    methods: tuple[MethodSpec, ...] = _key(None, _check_methods)  # the [methods] section
    seed: int = _key(_parse_int, _at_least(0, "a non-negative integer"))
    reps: int = _key(_parse_int, _POSITIVE, default=1000)
    alpha: float = _key(parse_number, _at_least(-math.inf, "a number", numbers.Real, _check_alpha), default=0.05)
    B: int = _key(_parse_int, _at_least(-math.inf, "an integer", then=_check_B), key="b", default=DEFAULT_B)
    b_inner: int = _key(_parse_int, _INTEGER, default=DEFAULT_B_INNER)
    cv_folds: int = _key(_parse_int, _INTEGER, default=DEFAULT_FOLDS)
    cv_grid: tuple[float, ...] = _key(  # with cv_folds and b_inner, by the one check of cross-validation
        parse_grid, lambda c, name, v: check_cv(c.cv_folds, v, c.b_inner, "cv_folds", name), default=DEFAULT_GRID
    )
    split: tuple[float, ...] | None = _key(lambda text, key: parse_split(text), _check_split, default=None)
    bounds_half_width: float = _key(parse_number, _positive_finite, _GAUSSIAN, default=3.0)
    workers: int = _key(_parse_int, _POSITIVE, default=1)
    mu: tuple[float, ...] | None = _key(_parse_truth, _FINITE, _GAUSSIAN, _SHORTHANDS["zeros"], default=None)
    sigma_diag: tuple[float, ...] | None = _key(
        parse_floats, _vector(0.0, "positive and finite"), _GAUSSIAN, lambda k: (1.0,) * k, default=None
    )
    beta: tuple[float, ...] | None = _key(_parse_truth, _FINITE, _REGRESSIONS, _SHORTHANDS["zeros"], default=None)
    sigma2: float = _key(parse_number, _positive_finite, _REGRESSIONS, default=1.0)
    # nuisance covariates W, one column per entry (none by default), are drawn
    # and W gamma is added to y; the release never reads W
    gamma: tuple[float, ...] | None = _key(
        parse_floats, _vector(-math.inf, "finite", sized=False), ("partial_regression",), lambda k: (), default=None
    )
    design: str | None = _key(lambda text, key: text, _check_design, ("regression",), default=None)
    x_half_width: float = _key(parse_number, _positive_finite, ("regression",), default=1.0)
    y_half_width: float | None = _key(parse_number, _positive_finite, _REGRESSIONS, default=None)

    def __post_init__(self):
        for f in fields(self):
            value, models = getattr(self, f.name), f.metadata["models"]
            reads = models is None or self.model in models
            if value is None and f.default is None:
                if not (reads and f.metadata["fill"]):
                    continue
                value = f.metadata["fill"](self.k)
            sequence = value in _SHORTHANDS if isinstance(value, str) else isinstance(value, collections.abc.Iterable)
            if f.type.startswith("tuple") and not sequence:  # a tuple field, or a shorthand its check sizes
                raise ParameterError(f"{f.name} must be a sequence, got {value!r}")
            checked = f.metadata["check"](self, f.name, value)
            value = value if checked is None else checked
            if not reads and value != f.default:
                raise ParameterError(f"model {self.model!r} does not read {f.name}")
            object.__setattr__(self, f.name, value)

    @property
    def truth_label(self) -> str:
        key = _MODELS[self.model].truth
        return f"{key}=(" + ",".join(f"{v:g}" for v in getattr(self, key)) + ")"

    @property
    def true_max(self) -> float:
        return max(getattr(self, _MODELS[self.model].truth))


@dataclass(frozen=True)
class ReportRow:
    model: str
    method: str
    r: str
    epsilon: float
    truth: str
    n: int
    k: int
    coverage: float
    coverage_se: float
    mean_length: float
    reps: int
    B: int
    seed: int
    failed_draws: int


#: Report CSV columns, in the order of the ``ReportRow`` fields.
REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(vars(row) | {"epsilon": format_epsilon(row.epsilon)})

    @classmethod
    def from_csv(cls, path) -> "ExperimentReport":
        """The report of a :meth:`to_csv` file; a missing column or a cell
        that does not read as its column's type is refused by row and column."""
        kinds = typing.get_type_hints(ReportRow)  # column -> type, e.g. "n" -> int
        rows = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's missing cells read as empty
            if missing := [c for c in REPORT_COLUMNS if c not in (reader.fieldnames or ())]:
                raise ParameterError(f"{path}: row 1, column {missing[0]}: not in the header")
            for rec in reader:
                for c in REPORT_COLUMNS:
                    try:
                        rec[c] = kinds[c](rec[c])
                    except ValueError:
                        where = f"{path}: row {reader.line_num}, column {c}"
                        raise ParameterError(f"{where}: cannot read {rec[c]!r} as {kinds[c].__name__}") from None
                rows.append(ReportRow(**{c: rec[c] for c in REPORT_COLUMNS}))
        return cls(rows)

    def merge(self, other: "ExperimentReport") -> "ExperimentReport":
        return ExperimentReport(self.rows + other.rows)

    def find(self, method: str, r: str | None = None, epsilon: float | None = None) -> ReportRow:
        for row in self.rows:
            if row.method != method:
                continue
            if r is not None and row.r != r:
                continue
            if epsilon is not None and row.epsilon != epsilon:
                continue
            return row
        raise KeyError(f"no report row for method={method!r} r={r!r} epsilon={epsilon!r}")


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def _gaussian_study(config: ExperimentConfig):
    return np.asarray(config.mu), np.sqrt(config.sigma_diag), Bounds.centered(config.mu, config.bounds_half_width)


def _gaussian_data(config: ExperimentConfig, rng: np.random.Generator, study):
    mu, scale, bounds = study
    return GaussianData(mu + rng.standard_normal((config.n, config.k)) * scale, bounds)


def _regression_study(config: ExperimentConfig):
    beta, hx = np.asarray(config.beta, dtype=float), config.x_half_width
    y_hw = config.y_half_width or float(np.sum(np.abs(beta)) * hx + 4.0 * math.sqrt(config.sigma2))
    return beta, _fixed_design_for(config), Bounds.symmetric(hx, config.k), Bounds.symmetric(y_hw, 1)


def _regression_data(config: ExperimentConfig, rng: np.random.Generator, study):
    beta, fixed_design, x_bounds, y_bounds = study
    hx = config.x_half_width
    X = fixed_design if fixed_design is not None else rng.uniform(-hx, hx, (config.n, config.k))
    y = X @ beta + math.sqrt(config.sigma2) * rng.standard_normal(config.n)
    return RegressionData(X, y, x_bounds, y_bounds)


def _partial_regression_study(config: ExperimentConfig):
    beta, gamma = np.asarray(config.beta, dtype=float), np.asarray(config.gamma, dtype=float)
    y_hw = config.y_half_width or float(
        np.max(np.abs(beta), initial=0.0) + 2.0 * np.sum(np.abs(gamma)) + 4.0 * math.sqrt(config.sigma2)
    )
    return beta, gamma, Bounds(np.zeros(config.k), np.ones(config.k)), Bounds.symmetric(y_hw, 1)


def _partial_regression_data(config: ExperimentConfig, rng: np.random.Generator, study):
    """Interest design = subgroup x treatment indicators; nuisance covariates
    W, centered within treated cells so X^T W = 0 exactly, are drawn and
    added to y as W gamma.  The data set holds X and y only, so the release
    never reads W."""
    beta, gamma, x_bounds, y_bounds = study
    groups = rng.integers(0, config.k, size=config.n)
    treated = rng.integers(0, 2, size=config.n)
    X = np.zeros((config.n, config.k))
    X[np.arange(config.n), groups] = treated
    W = rng.uniform(-1.0, 1.0, (config.n, gamma.size))  # no draw when gamma is empty
    for s in range(config.k):
        cell = (groups == s) & (treated == 1)
        if cell.any():
            W[cell] -= W[cell].mean(axis=0)
    y = X @ beta + W @ gamma + math.sqrt(config.sigma2) * rng.standard_normal(config.n)
    return RegressionData(X, y, x_bounds, y_bounds)


class _Model(typing.NamedTuple):
    """What the harness knows of one simulated model."""

    truth: str  # the config key of the truth vector, whose maximum the limits bound
    study: typing.Callable  # config -> what every replication's data share (truths, boxes), made once
    generate: typing.Callable  # (config, rng, study) -> one data set
    width: typing.Callable  # config -> values in one data row
    statistics: type  # the statistics class of its data sets, which names what it releases


_MODELS = {
    "gaussian": _Model("mu", _gaussian_study, _gaussian_data, lambda c: c.k, GaussianStatistics),
    "regression": _Model("beta", _regression_study, _regression_data, lambda c: c.k + 1, RegressionStatistics),
    "partial_regression": _Model(
        "beta", _partial_regression_study, _partial_regression_data, lambda c: c.k + 1, RegressionStatistics
    ),
}


def _generate_data(config: ExperimentConfig, rng: np.random.Generator, study):
    """One replication's data set; the traced benchmark times it by this name."""
    return _MODELS[config.model].generate(config, rng, study)


# ---------------------------------------------------------------------------
# blocks of replications
# ---------------------------------------------------------------------------

#: Values a block may hold in its largest array, which sets how many
#: replications run as one stack.
BLOCK_VALUES = 64_000


def _cross_validates(config: ExperimentConfig) -> bool:
    return any("cv" in spec.r_tokens for spec in config.methods)


def _replication_values(config: ExperimentConfig) -> int:
    """What one replication adds to a block's largest stacked array, in values.

    That is its B bootstrap replicas of k values, in both models; a
    regression replication's B (k, k) systems do not stack, since they are
    drawn and solved one replication at a time.  Only when cross-validation
    reads the rows again does a block hold every replication's data, n rows
    of the k interest columns and, in regression, the response (a
    partial-regression set holds no nuisance column), and then the larger of
    the two counts.
    """
    values = config.B * config.k
    if _cross_validates(config):
        values = max(values, config.n * _MODELS[config.model].width(config))
    return values


def _block_size(config: ExperimentConfig) -> int:
    """Most replications per block: BLOCK_VALUES / :func:`_replication_values`,
    at least 1, at most reps.

    So the regression study at B = 1000, k = 8 runs 8 replications per block,
    and a cross-validated study whose data alone exceed BLOCK_VALUES runs one
    replication at a time.
    """
    return min(config.reps, max(1, BLOCK_VALUES // _replication_values(config)))


def _block_outcomes(config: ExperimentConfig, eps_index: int, reps: range, study):
    """Every method's outcomes for the replications ``reps``, run as one stack.

    Keyed by (method label, r token); each outcome is two (R,) arrays: the
    lower limits and the failed draws.  The block reads no truth.
    Replication i draws from its own generator, exactly what it would draw
    alone: the stacked releases, bootstrap draws and cross-validation give
    generator i the rows of replication i.
    """
    rng = GeneratorStack(
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, eps_index, i)))
        for i in reps
    )
    budget = divide_budget(config.epsilons[eps_index], config.split)
    # only cross-validation reads the rows again; otherwise each replication's
    # rows are reduced to statistics as they are generated, and dropped
    data = (_generate_data(config, g, study) for g in rng.generators)
    if _cross_validates(config):
        data = list(data)
    stats = fold_statistics(data)
    rows = [(spec.label, *row) for spec in config.methods for row in spec.rows]
    # rows still to read each draws entry, which is dropped after its last one
    reads = collections.Counter((private, noise) for _, _, private, noise, limits in rows if limits is None)
    releases, draws, outcomes = {}, {}, {}  # private -> estimate; (private, privacy noise) -> (draws, failed counts)
    for label, token, private, privacy_noise, limits in rows:
        epsilon = budget if private else math.inf
        if private not in releases:
            releases[private] = stats.release(epsilon, rng)
        e = releases[private]
        if limits is not None:
            lower, failed = limits(e.betas, e.variances(private), e.sizes, config.alpha)[0], 0
        else:
            if token == "cv":
                r = cv_choose_r(data, epsilon, rng, CVConfig(config.cv_folds, config.cv_grid, config.b_inner)).chosen_rs
            else:
                r = parse_r_token(token)
            key = (private, privacy_noise)
            if key not in draws:
                d, failed = e.replica_draws(config.B, rng, len(reps), privacy_noise)
                draws[key] = d, failed.sum(axis=1)
            reads[key] -= 1
            d, failed = draws[key] if reads[key] else draws.pop(key)
            lower = ppb_limits(e.betas, d, failed, r, e.sizes, config.alpha)[0]
            del d  # so no name holds these draws while the next row draws its own
        outcomes[label, token] = (lower, np.broadcast_to(failed, lower.shape))
    return outcomes


def _fixed_design_for(config: ExperimentConfig):
    """The design of ``design = fixed``, which only plain regression reads."""
    if config.design != "fixed":
        return None
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    hx = config.x_half_width
    return rng.uniform(-hx, hx, (config.n, config.k))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` limits it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(tasks: list, workers: int) -> list:
    """:func:`_block_outcomes` of every task, in task order.

    ``workers`` chooses the pool: a process pool of ``workers``, at most one
    per task, when it is above 1, and otherwise a thread pool of one thread per usable CPU, at
    most one per task; the draws and solves that dominate a block release
    the GIL.  Each block draws from its own generators, so neither changes a
    result.  ``Executor.map`` raises the error of the first failing task in
    task order, as a serial run does, and cancels the tasks not yet started.
    One task or one usable CPU runs the tasks inline, one after another,
    whatever ``workers`` is.
    """
    threads = min(len(tasks), _usable_cpus())
    if threads <= 1:
        return [_block_outcomes(*task) for task in tasks]
    # named through the package, which imports multiprocessing only for a process pool
    executor = concurrent.futures.ProcessPoolExecutor if workers > 1 else concurrent.futures.ThreadPoolExecutor
    with executor(min(workers, len(tasks)) if workers > 1 else threads) as pool:
        return list(pool.map(_block_outcomes, *zip(*tasks)))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured method over ``reps`` replications per epsilon.

    Returns one aggregated report row per (method, r, epsilon) combination.
    Replications run in the fewest blocks of at most :func:`_block_size`,
    whose sizes differ by at most one (10 replications at 8 per block run as
    5 + 5).  The blocks of every epsilon are mapped, in sweep and block
    order, over a process pool of ``workers`` when ``workers > 1``, and
    otherwise over a thread pool of the usable CPUs (:func:`_map_blocks`);
    outcomes are gathered in that order, so the rows are summed as a serial
    run sums them.  Only here are the limits scored against the true
    maximum: coverage is the share of limits at or below it, and mean length
    their mean distance below it.  A failing study raises the first error of
    its first failing block in plan order, a pure function of the
    configuration, as the plan is.  Deterministic given the configuration;
    the block size, the worker count and the thread count only affect wall
    time.
    """
    study = _MODELS[config.model].study(config)
    count = -(-config.reps // _block_size(config))
    ends = [config.reps * i // count for i in range(count + 1)]
    blocks = [range(start, end) for start, end in zip(ends, ends[1:])]
    tasks = [(config, eps_index, block, study) for eps_index in range(len(config.epsilons)) for block in blocks]
    per_task = _map_blocks(tasks, config.workers)
    true_max = config.true_max
    rows: list[ReportRow] = []
    for eps_index, epsilon in enumerate(config.epsilons):
        per_block = per_task[eps_index * count:(eps_index + 1) * count]
        for key in per_block[0]:
            lower, failed = (np.concatenate([outcomes[key][i] for outcomes in per_block]) for i in range(2))
            coverage = float((lower <= true_max).mean())
            rows.append(
                ReportRow(
                    model=config.model,
                    method=key[0],
                    r=key[1],
                    epsilon=epsilon,
                    truth=config.truth_label,
                    n=config.n,
                    k=config.k,
                    coverage=coverage,
                    coverage_se=math.sqrt(coverage * (1.0 - coverage) / config.reps),
                    mean_length=float((true_max - lower).mean()),
                    reps=config.reps,
                    B=config.B,
                    seed=config.seed,
                    failed_draws=int(failed.sum()),
                )
            )
    return ExperimentReport(rows)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def load_config(path) -> ExperimentConfig:
    """Read an experiment configuration from a key = value sections file.

    Schema: an ``[experiment]`` section holding truth and run parameters and a
    ``[methods]`` section mapping method names to their settings (r tokens for
    the bootstrap variants, ``private``/``nonprivate``/``both`` for the
    baselines, ``on``/``off`` for semi_naive).  See the README for the key
    list and defaults; an unknown key is refused.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a duplicated key or section, a line outside any section
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    if not read:
        raise ParameterError(f"cannot read config file {path}")
    if "experiment" not in parser or "methods" not in parser:
        raise ParameterError("config needs [experiment] and [methods] sections")
    exp = parser["experiment"]

    by_key = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig) if f.metadata["parse"]}
    kwargs = {"model": "gaussian", "n": None, "k": None, "seed": None}
    for key, text in exp.items():
        if key not in by_key:
            raise ParameterError(f"unknown [experiment] key {key!r}")
        kwargs[by_key[key].name] = by_key[key].metadata["parse"](text, key)
    if not kwargs.get("epsilons"):
        raise ParameterError("the epsilon key is mandatory (a privacy budget must be declared)")

    methods: list[MethodSpec] = []
    for name, value in parser["methods"].items():
        value = value.strip().lower()
        if value in ("off", "false", "no", ""):
            continue
        if name in R_METHODS:
            tokens = tuple(tok.strip() for tok in value.split(",") if tok.strip())
            methods.append(MethodSpec(name, tokens))
        elif name == "semi_naive":
            if value in ("on", "true", "yes"):
                methods.append(MethodSpec("semi_naive"))
            else:
                raise ParameterError(f"semi_naive takes on/off, got {value!r}")
        elif name in BASELINE_METHODS:
            if value not in ("private", "nonprivate", "both"):
                raise ParameterError(f"{name} takes private/nonprivate/both/off, got {value!r}")
            if value in ("private", "both"):
                methods.append(MethodSpec(name, private=True))
            if value in ("nonprivate", "both"):
                methods.append(MethodSpec(name, private=False))
        else:
            raise ParameterError(f"unknown method key {name!r}")
    kwargs["methods"] = tuple(methods)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def emit_plot_data(report: ExperimentReport, axis: str, path) -> None:
    """Write a tidy (axis_value, method, coverage, mean_length) CSV.

    ``axis`` selects which report column varies: epsilon, k, or r.  Rows that
    do not carry the axis value (e.g. baselines when axis is r) are skipped.
    Column order is fixed and documented.
    """
    if axis not in ("epsilon", "k", "r"):
        raise ParameterError("axis must be one of: epsilon, k, r")
    if not report.rows:
        raise ParameterError("report has no rows")
    records = []
    for row in report.rows:
        if axis == "epsilon":
            value = format_epsilon(row.epsilon)
        elif axis == "k":
            value = str(row.k)
        else:
            if not row.r:
                continue
            value = row.r
        records.append((value, row.method, row.coverage, row.mean_length))
    distinct = {rec[0] for rec in records}
    if len(distinct) < 2:
        raise ParameterError(f"need at least 2 distinct {axis} values to plot, got {len(distinct)}")
    records.sort(key=lambda rec: (rec[1], _axis_sort_key(rec[0])))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("axis_value", "method", "coverage", "mean_length"))
        writer.writerows(records)


def _axis_sort_key(value: str):
    try:
        return (0, parse_r_token(value))
    except ParameterError:
        return (1, value)
