"""Monte Carlo experiment engine and tidy CSV reporting.

A configuration describes a data-generating truth, a privacy budget (or a
sweep of budgets), and a list of methods; :func:`run_experiment` replays the
configured number of replications, recording for each method whether its
lower limit covered the true maximum and the distance between the two.

Reproducibility contract: replication ``i`` at sweep position ``e`` draws all
of its randomness from ``SeedSequence(seed, spawn_key=(0, e, i))``; a fixed
regression design uses ``spawn_key=(1,)``.  Reports are therefore a pure
function of the configuration, independent of worker count and execution
order.

Replications run in blocks of R, as stacks: each replication generates its
data with its own generator, and then every release, bootstrap draw,
cross-validation and limit of the block is one stacked computation, while a
:class:`~dpextrema.privacy.GeneratorStack` keeps drawing each replication's
rows from that replication's generator, in the order it would draw them
alone.  So the block size, like the worker count, changes no result; a
failing block is rerun one replication at a time, so a study aborts with the
error of its first failing replication.

Simulation bounds: experiments declare the data box as truth +/- a configured
half-width (3 sigma-equivalents by default), mirroring how a practitioner
declares plausible data ranges a priori.  Sensitivities derive from that box
and the data are clamped into it, so the stated privacy guarantee is honest.

One input path with the CLI: config values and the CLI flags are read by the
same parsers (:func:`parse_number`, :func:`parse_floats`, :func:`parse_split`,
:func:`parse_grid`), so a malformed value is a :class:`ParameterError` that
names its key; so is an unknown key.  A ``split`` is checked here without a
statistic count (positive shares summing to 1); whether it has one share per
released statistic is checked by the model's release, at the first private
estimate of :func:`run_experiment`.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import csv
import math
import typing
from dataclasses import dataclass, field, fields
import numpy as np

from .crossval import DEFAULT_FOLDS, DEFAULT_GRID, CVConfig, check_cv, cv_choose_r
from .errors import NumericError, ParameterError
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
from .models import GaussianData, RegressionData, stack_statistics
from .privacy import Bounds, GeneratorStack

BOOTSTRAP_METHODS = ("ppb", "npb", "rppb", "semi_naive")
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
    """Budget shares as floats, which must be positive and sum to 1.

    How many statistics share the budget is left to the model's release.
    """
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
    """One configured method: a bootstrap variant with r tokens, or a baseline."""

    name: str
    r_tokens: tuple[str, ...] = ()
    private: bool = True

    def __post_init__(self):
        if self.name not in BOOTSTRAP_METHODS + BASELINE_METHODS:
            raise ParameterError(f"unknown method {self.name!r}")
        if self.name in ("ppb", "npb", "rppb") and not self.r_tokens:
            raise ParameterError(f"{self.name} needs at least one r value")
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


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    n: int
    k: int
    epsilons: tuple[float, ...]
    methods: tuple[MethodSpec, ...]
    seed: int
    reps: int = 1000
    alpha: float = 0.05
    B: int = DEFAULT_B
    b_inner: int = DEFAULT_B_INNER
    cv_folds: int = DEFAULT_FOLDS
    cv_grid: tuple[float, ...] = DEFAULT_GRID
    split: tuple[float, ...] | None = None
    bounds_half_width: float = 3.0
    workers: int = 1
    # gaussian truth
    mu: tuple[float, ...] | None = None
    sigma_diag: tuple[float, ...] | None = None
    # partitioned regression
    k_nuisance: int = 0
    # regression truth
    beta: tuple[float, ...] | None = None
    sigma2: float = 1.0
    gamma: tuple[float, ...] | None = None
    design: str = "resampled"
    x_half_width: float = 1.0
    y_half_width: float | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ParameterError(
                f"unknown model {self.model!r}; the supported models are {', '.join(_MODELS)}"
            )
        for key in ("n", "k"):
            value = getattr(self, key)
            if value is None or value < 1:
                raise ParameterError(f"{key} must be a positive integer, got {value!r}")
        if self.reps < 1:
            raise ParameterError("reps must be >= 1")
        if self.workers < 1:
            raise ParameterError(f"workers must be a positive integer, got {self.workers!r}")
        if self.seed is None:
            raise ParameterError("a seed is mandatory")
        if self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_alpha(self.alpha)
        _check_B(self.B)
        # a value given is checked whatever the model, so a config refuses it at load
        for key in ("bounds_half_width", "x_half_width", "y_half_width", "sigma2"):
            value = getattr(self, key)
            if value is not None and not (0.0 < value < math.inf):
                raise ParameterError(f"{key} must be positive and finite")
        if not all(0.0 < v < math.inf for v in self.sigma_diag or ()):
            raise ParameterError("sigma_diag must be positive and finite")
        for key in ("mu", "beta", "gamma"):
            if not all(map(math.isfinite, getattr(self, key) or ())):
                raise ParameterError(f"{key} must be finite")
        if not self.epsilons:
            raise ParameterError("at least one epsilon is required")
        for eps in self.epsilons:
            if math.isnan(eps) or eps <= 0:
                raise ParameterError("every epsilon must be positive (inf allowed)")
        if not self.methods:
            raise ParameterError("at least one method is required")
        if self.design not in ("resampled", "fixed"):
            raise ParameterError("design must be 'resampled' or 'fixed'")
        if self.split is not None:
            object.__setattr__(self, "split", check_shares(self.split))
        object.__setattr__(
            self, "cv_grid",
            check_cv(self.cv_folds, self.cv_grid, self.b_inner, "cv_folds", "cv_grid"),
        )
        # the model's truth (zeros by default), and sigma_diag and gamma, which
        # are filled and checked whatever the model, as every value given is
        for key, size_key, default in (
            (_MODELS[self.model].truth, "k", 0.0),
            ("sigma_diag", "k", 1.0),
            ("gamma", "k_nuisance", 0.0),
        ):
            value, size = getattr(self, key), getattr(self, size_key)
            value = (default,) * size if value is None else value
            if size and len(value) != size:  # k_nuisance = 0 leaves gamma's length free
                raise ParameterError(f"{key} length does not match {size_key}")
            object.__setattr__(self, key, tuple(float(v) for v in value))

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
        kinds = typing.get_type_hints(ReportRow)  # column -> type, e.g. "n" -> int
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        return cls([ReportRow(**{c: kinds[c](rec[c]) for c in REPORT_COLUMNS}) for rec in records])

    def merge(self, other: "ExperimentReport") -> "ExperimentReport":
        return ExperimentReport(self.rows + other.rows)

    def find(self, method: str, r: str | None = None, epsilon: float | None = None) -> ReportRow:
        for row in self.rows:
            if row.method != method:
                continue
            if r is not None and row.r != r:
                continue
            if epsilon is not None and not (
                row.epsilon == epsilon or (math.isinf(row.epsilon) and math.isinf(epsilon))
            ):
                continue
            return row
        raise KeyError(f"no report row for method={method!r} r={r!r} epsilon={epsilon!r}")


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def _gaussian_data(config: ExperimentConfig, rng: np.random.Generator, fixed_design):
    mu = np.asarray(config.mu)
    x = mu + rng.standard_normal((config.n, config.k)) * np.sqrt(config.sigma_diag)
    return GaussianData(x, Bounds.centered(mu, config.bounds_half_width))


def _regression_data(config: ExperimentConfig, rng: np.random.Generator, fixed_design):
    beta = np.asarray(config.beta, dtype=float)
    hx = config.x_half_width
    X = fixed_design if fixed_design is not None else rng.uniform(-hx, hx, (config.n, config.k))
    y = X @ beta + math.sqrt(config.sigma2) * rng.standard_normal(config.n)
    y_hw = config.y_half_width
    if y_hw is None:
        y_hw = float(np.sum(np.abs(beta)) * hx + 4.0 * math.sqrt(config.sigma2))
    return RegressionData(X, y, Bounds.symmetric(hx, config.k), Bounds.symmetric(y_hw, 1))


def _partial_regression_data(config: ExperimentConfig, rng: np.random.Generator, fixed_design):
    """Interest design = subgroup x treatment indicators, nuisance covariates
    centered within treated cells so X^T W = 0 exactly."""
    beta = np.asarray(config.beta, dtype=float)
    gamma = np.asarray(config.gamma, dtype=float)
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
    y_hw = config.y_half_width
    if y_hw is None:
        y_hw = float(
            np.max(np.abs(beta), initial=0.0)
            + 2.0 * np.sum(np.abs(gamma))
            + 4.0 * math.sqrt(config.sigma2)
        )
    return RegressionData(
        X, y, Bounds(np.zeros(config.k), np.ones(config.k)), Bounds.symmetric(y_hw, 1), W
    )


class _Model(typing.NamedTuple):
    """What the harness knows of one simulated model."""

    truth: str  # the config key of the truth vector, whose maximum the limits bound
    generate: typing.Callable  # (config, rng, fixed design or None) -> one data set
    width: typing.Callable  # config -> values in one data row


_MODELS = {
    "gaussian": _Model("mu", _gaussian_data, lambda c: c.k),
    "regression": _Model("beta", _regression_data, lambda c: c.k + 1),
    "partial_regression": _Model("beta", _partial_regression_data, lambda c: c.k + len(c.gamma) + 1),
}


def _generate_data(config: ExperimentConfig, rng: np.random.Generator, fixed_design):
    """One replication's data set; the traced benchmark times it by this name."""
    return _MODELS[config.model].generate(config, rng, fixed_design)


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
    of the k interest columns, the nuisance columns and, in regression, the
    response, and then the larger of the two counts.
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


def _block_outcomes(config: ExperimentConfig, eps_index: int, reps: range, fixed_design):
    """Every method's outcomes for the replications ``reps``, run as one stack.

    Keyed by (method label, r token); each outcome is three (R,) arrays:
    covered, lower-limit distance below the true maximum, failed draws.
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
    data = (_generate_data(config, g, fixed_design) for g in rng.generators)
    if _cross_validates(config):
        data = list(data)
    stats = stack_statistics([d.fold_statistics([slice(None)]) for d in data])
    releases = {}  # private -> stacked estimate
    draws = {}  # (private, privacy_noise) -> (draws, failed counts)

    def release(private):
        if private not in releases:
            releases[private] = stats.release(budget if private else math.inf, rng)
        return releases[private]

    def bootstrap_limits(private, token, privacy_noise=True):
        e = release(private)
        if token == "cv":
            cv_config = CVConfig(folds=config.cv_folds, grid=config.cv_grid, b_inner=config.b_inner)
            r = cv_choose_r(data, budget if private else math.inf, rng, cv_config).chosen_rs
        else:
            r = parse_r_token(token)
        key = (private, privacy_noise)
        if key not in draws:
            d, failed = e.replica_draws(config.B, rng, len(reps), privacy_noise)
            draws[key] = d, failed.sum(axis=1)
        d, failed = draws[key]
        return ppb_limits(e.betas, d, failed, r, e.sizes, config.alpha)[0], failed

    def baseline_limits(limits, private):
        e = release(private)
        return limits(e.betas, e.variances(private), e.sizes, config.alpha)[0], 0

    true_max = config.true_max
    outcomes = {}

    def record(key, lower, failed):
        outcomes[key] = (lower <= true_max, true_max - lower, np.broadcast_to(failed, lower.shape))

    for spec in config.methods:
        if spec.name in ("ppb", "npb", "rppb"):
            for token in spec.r_tokens:
                record(
                    (spec.label, token),
                    *bootstrap_limits(spec.name != "npb", token, privacy_noise=spec.name != "rppb"),
                )
        elif spec.name == "semi_naive":
            record((spec.label, "0.5"), *bootstrap_limits(True, "0.5"))
        else:
            limits = naive_limits if spec.name == "naive" else bonferroni_limits
            record((spec.label, ""), *baseline_limits(limits, spec.private))
    return outcomes


def _run_block(config: ExperimentConfig, eps_index: int, reps: range, fixed_design):
    """:func:`_block_outcomes`; on an error, that of the block's first failing
    replication, found by running the block one replication at a time, so
    the study aborts as a serial run of single replications would."""
    try:
        return _block_outcomes(config, eps_index, reps, fixed_design)
    except (NumericError, ParameterError):
        if len(reps) == 1:
            raise
        for rep in reps:
            _block_outcomes(config, eps_index, range(rep, rep + 1), fixed_design)
        raise


def _fixed_design_for(config: ExperimentConfig):
    """The design of ``design = fixed``, which only plain regression reads."""
    if config.design != "fixed":
        return None
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    hx = config.x_half_width
    return rng.uniform(-hx, hx, (config.n, config.k))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured method over ``reps`` replications per epsilon.

    Returns one aggregated report row per (method, r, epsilon) combination.
    Replications run in the fewest blocks of at most :func:`_block_size`,
    whose sizes differ by at most one (10 replications at 8 per block run as
    5 + 5), mapped over a process pool when ``workers > 1``.  Deterministic
    given the configuration; the block size and the worker count only affect
    wall time.
    """
    fixed_design = _fixed_design_for(config)
    count = -(-config.reps // _block_size(config))
    ends = [config.reps * i // count for i in range(count + 1)]
    blocks = [range(start, end) for start, end in zip(ends, ends[1:])]
    rows: list[ReportRow] = []
    for eps_index, epsilon in enumerate(config.epsilons):
        tasks = [(config, eps_index, block, fixed_design) for block in blocks]
        if config.workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
                chunk = max(1, len(tasks) // (8 * config.workers))
                per_block = list(pool.map(_run_block, *zip(*tasks), chunksize=chunk))
        else:
            per_block = [_run_block(*task) for task in tasks]

        for key in per_block[0]:
            covered, lengths, failed = (
                np.concatenate([outcomes[key][i] for outcomes in per_block]) for i in range(3)
            )
            coverage = float(covered.mean())
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
                    mean_length=float(lengths.mean()),
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


def _parse_truth(text: str, k: int, what: str) -> tuple[float, ...]:
    """A truth vector: numbers, or the shorthands ``zeros`` and ``zeros+1``."""
    t = text.strip().lower()
    if t == "zeros":
        return (0.0,) * k
    if t == "zeros+1":
        return (0.0,) * (k - 1) + (1.0,)
    return parse_floats(text, what)


def _parse_int(text: str, what: str) -> int:
    """One integer from a config value named ``what``."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {what} {text!r}") from exc


#: The parser of each ``[experiment]`` key's value, called with the value and
#: the key, which its error names.  ``b`` and ``epsilon`` fill the fields
#: ``B`` and ``epsilons``; the truth keys of :data:`_TRUTH_SIZES` are read
#: once the sizes are known.  Any other key is refused.
_EXPERIMENT_KEYS = {
    **dict.fromkeys(("model", "design"), lambda text, key: text),
    **dict.fromkeys(
        ("n", "k", "seed", "reps", "b", "b_inner", "cv_folds", "workers", "k_nuisance"), _parse_int
    ),
    **dict.fromkeys(
        ("alpha", "bounds_half_width", "sigma2", "x_half_width", "y_half_width"), parse_number
    ),
    **dict.fromkeys(("epsilon", "sigma_diag", "gamma"), parse_floats),
    "cv_grid": parse_grid,
    "split": lambda text, key: parse_split(text),
}
_FIELDS = {"b": "B", "epsilon": "epsilons"}
#: Truth vectors and the size key their ``zeros`` shorthands take the length of.
_TRUTH_SIZES = {"mu": "k", "beta": "k"}


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

    kwargs = {"model": "gaussian", "n": None, "k": None, "seed": None}
    for key, text in exp.items():
        if key in _TRUTH_SIZES:
            continue
        if key not in _EXPERIMENT_KEYS:
            raise ParameterError(f"unknown [experiment] key {key!r}")
        kwargs[_FIELDS.get(key, key)] = _EXPERIMENT_KEYS[key](text, key)
    if not kwargs.get("epsilons"):
        raise ParameterError("the epsilon key is mandatory (a privacy budget must be declared)")
    for key, size in _TRUTH_SIZES.items():
        if key in exp:
            kwargs[key] = _parse_truth(exp[key], kwargs.get(size) or 0, key)

    methods: list[MethodSpec] = []
    for name, value in parser["methods"].items():
        value = value.strip().lower()
        if value in ("off", "false", "no", ""):
            continue
        if name in ("ppb", "npb", "rppb"):
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
