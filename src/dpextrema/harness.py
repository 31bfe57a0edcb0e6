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

Simulation bounds: experiments declare the data box as truth +/- a configured
half-width (3 sigma-equivalents by default), mirroring how a practitioner
declares plausible data ranges a priori.  Sensitivities derive from that box
and the data are clamped into it, so the stated privacy guarantee is honest.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import csv
import math
from dataclasses import dataclass, field, replace
import numpy as np

from .crossval import DEFAULT_FOLDS, DEFAULT_GRID, CVConfig, cv_choose_r
from .errors import ParameterError
from .extrema import (
    DEFAULT_B,
    DEFAULT_B_INNER,
    FULL_CORRECTION,
    ConfidenceResult,
    bonferroni_lower_limit,
    naive_lower_limit,
    ppb_limit_from_draws,
)
from .models import GaussianData, RegressionData, gaussian_private_mle, regression_private_mle
from .partial import NuisanceRegressionData, PartitionedGaussianData, partial_gaussian_private_mle
from .privacy import Bounds, split_budget

MODELS = ("gaussian", "regression", "partial_gaussian", "partial_regression")
BOOTSTRAP_METHODS = ("ppb", "npb", "rppb", "semi_naive")
BASELINE_METHODS = ("naive", "bonferroni")

REPORT_COLUMNS = (
    "model",
    "method",
    "r",
    "epsilon",
    "truth",
    "n",
    "k",
    "coverage",
    "coverage_se",
    "mean_length",
    "reps",
    "B",
    "seed",
    "failed_draws",
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "MethodSpec",
    "ReportRow",
    "REPORT_COLUMNS",
    "emit_plot_data",
    "format_r_token",
    "load_config",
    "parse_r_token",
    "run_experiment",
]


def parse_r_token(token: str) -> float:
    """Parse a correction-strength token: a float, a fraction, or ``full``."""
    t = str(token).strip().lower()
    if t == "full":
        return FULL_CORRECTION
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            return float(num) / float(den)
        return float(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse r value {token!r}") from exc


def format_r_token(r: float) -> str:
    if r == FULL_CORRECTION:
        return "full"
    return f"{r:g}"


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
            if token != "cv":
                parse_r_token(token)

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
    # partitioned gaussian
    k_nuisance: int = 0
    mu_nuisance: tuple[float, ...] | None = None
    # regression truth
    beta: tuple[float, ...] | None = None
    sigma2: float = 1.0
    gamma: tuple[float, ...] | None = None
    design: str = "resampled"
    x_half_width: float = 1.0
    y_half_width: float | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}")
        if self.reps < 1:
            raise ParameterError("reps must be >= 1")
        if self.seed is None:
            raise ParameterError("a seed is mandatory")
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
            object.__setattr__(self, "split", tuple(float(s) for s in self.split))
            self.budget_for(1.0)  # rejects shares that do not fit the model
        if self.model in ("gaussian", "partial_gaussian"):
            mu = self.mu if self.mu is not None else (0.0,) * self.k
            if len(mu) != self.k:
                raise ParameterError("mu length does not match k")
            object.__setattr__(self, "mu", tuple(float(v) for v in mu))
        if self.model == "partial_gaussian":
            if self.k_nuisance < 1:
                raise ParameterError("partial_gaussian needs k_nuisance >= 1")
            mu2 = self.mu_nuisance if self.mu_nuisance is not None else (0.0,) * self.k_nuisance
            if len(mu2) != self.k_nuisance:
                raise ParameterError("mu_nuisance length does not match k_nuisance")
            object.__setattr__(self, "mu_nuisance", tuple(float(v) for v in mu2))
        if self.model in ("regression", "partial_regression"):
            beta = self.beta if self.beta is not None else (0.0,) * self.k
            if len(beta) != self.k:
                raise ParameterError("beta length does not match k")
            object.__setattr__(self, "beta", tuple(float(v) for v in beta))
            if self.sigma2 <= 0:
                raise ParameterError("sigma2 must be positive")
        if self.model == "partial_regression":
            gamma = self.gamma if self.gamma is not None else (0.0,) * max(self.k_nuisance, 0)
            object.__setattr__(self, "gamma", tuple(float(v) for v in gamma))

    @property
    def statistic_count(self) -> int:
        return 2 if self.model in ("gaussian", "partial_gaussian") else 3

    def budget_for(self, epsilon: float):
        return split_budget(epsilon, self.statistic_count, self.split)

    @property
    def truth_label(self) -> str:
        if self.model in ("gaussian", "partial_gaussian"):
            return "mu=(" + ",".join(f"{v:g}" for v in self.mu) + ")"
        return "beta=(" + ",".join(f"{v:g}" for v in self.beta) + ")"

    @property
    def true_max(self) -> float:
        if self.model in ("gaussian", "partial_gaussian"):
            return max(self.mu)
        return max(self.beta)


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

    def as_record(self) -> dict:
        return {c: getattr(self, c) for c in REPORT_COLUMNS}


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                rec = row.as_record()
                rec["epsilon"] = "inf" if math.isinf(row.epsilon) else f"{row.epsilon:g}"
                writer.writerow(rec)

    @classmethod
    def from_csv(cls, path) -> "ExperimentReport":
        rows = []
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                rows.append(
                    ReportRow(
                        model=rec["model"],
                        method=rec["method"],
                        r=rec["r"],
                        epsilon=float(rec["epsilon"]),
                        truth=rec["truth"],
                        n=int(rec["n"]),
                        k=int(rec["k"]),
                        coverage=float(rec["coverage"]),
                        coverage_se=float(rec["coverage_se"]),
                        mean_length=float(rec["mean_length"]),
                        reps=int(rec["reps"]),
                        B=int(rec["B"]),
                        seed=int(rec["seed"]),
                        failed_draws=int(rec["failed_draws"]),
                    )
                )
        return cls(rows)

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


def _gaussian_truth(config: ExperimentConfig):
    mu = np.asarray(config.mu, dtype=float)
    var = (
        np.asarray(config.sigma_diag, dtype=float)
        if config.sigma_diag is not None
        else np.ones(config.k)
    )
    if var.size != config.k or np.any(var <= 0):
        raise ParameterError("sigma_diag must hold k positive variances")
    return mu, var


def _generate_data(config: ExperimentConfig, rng: np.random.Generator, fixed_design):
    h = config.bounds_half_width
    if config.model == "gaussian":
        mu, var = _gaussian_truth(config)
        x = mu + rng.standard_normal((config.n, config.k)) * np.sqrt(var)
        return GaussianData(x, Bounds.centered(mu, h))
    if config.model == "partial_gaussian":
        mu, var = _gaussian_truth(config)
        mu2 = np.asarray(config.mu_nuisance, dtype=float)
        x1 = mu + rng.standard_normal((config.n, config.k)) * np.sqrt(var)
        x2 = mu2 + rng.standard_normal((config.n, config.k_nuisance))
        return PartitionedGaussianData(x1, x2, Bounds.centered(mu, h))
    if config.model == "regression":
        beta = np.asarray(config.beta, dtype=float)
        hx = config.x_half_width
        X = fixed_design if fixed_design is not None else rng.uniform(-hx, hx, (config.n, config.k))
        y = X @ beta + math.sqrt(config.sigma2) * rng.standard_normal(config.n)
        y_hw = config.y_half_width
        if y_hw is None:
            y_hw = float(np.sum(np.abs(beta)) * hx + 4.0 * math.sqrt(config.sigma2))
        return RegressionData(
            X, y, Bounds.symmetric(hx, config.k), Bounds.symmetric(y_hw, 1)
        )
    # partial_regression: interest design = subgroup x treatment indicators,
    # nuisance covariates centered within treated cells so Z^T X = 0 exactly
    beta = np.asarray(config.beta, dtype=float)
    gamma = np.asarray(config.gamma, dtype=float)
    k2 = gamma.size
    groups = rng.integers(0, config.k, size=config.n)
    treated = rng.integers(0, 2, size=config.n)
    Z = np.zeros((config.n, config.k))
    Z[np.arange(config.n), groups] = treated
    X = None
    if k2 > 0:
        X = rng.uniform(-1.0, 1.0, (config.n, k2))
        for s in range(config.k):
            cell = (groups == s) & (treated == 1)
            if cell.any():
                X[cell] -= X[cell].mean(axis=0)
    y = Z @ beta + (X @ gamma if X is not None else 0.0) + math.sqrt(
        config.sigma2
    ) * rng.standard_normal(config.n)
    y_hw = config.y_half_width
    if y_hw is None:
        y_hw = float(
            np.max(np.abs(beta), initial=0.0)
            + 2.0 * np.sum(np.abs(gamma))
            + 4.0 * math.sqrt(config.sigma2)
        )
    return NuisanceRegressionData(
        Z, X, y, Bounds(np.zeros(config.k), np.ones(config.k)), Bounds.symmetric(y_hw, 1)
    )


def _estimate(config: ExperimentConfig, data, budget, rng):
    if config.model == "gaussian":
        return gaussian_private_mle(data, budget, rng)
    if config.model == "partial_gaussian":
        return partial_gaussian_private_mle(data, budget, rng)
    return regression_private_mle(data, budget, rng)


# ---------------------------------------------------------------------------
# one replication
# ---------------------------------------------------------------------------


def _outcome(result: ConfidenceResult, true_max: float):
    return (
        result.lower_limit <= true_max,
        true_max - result.lower_limit,
        result.failed_draws,
    )


def _run_replication(config: ExperimentConfig, eps_index: int, rep: int, fixed_design):
    """All method outcomes for one replication; keyed by (method label, r token)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, eps_index, rep)))
    epsilon = config.epsilons[eps_index]
    data = _generate_data(config, rng, fixed_design)
    true_max = config.true_max

    est = None
    est_inf = None
    draws = {}  # (estimate id, privacy_noise) -> (draws, failed)

    def private_estimate():
        nonlocal est
        if est is None:
            est = _estimate(config, data, config.budget_for(epsilon), rng)
        return est

    def nonprivate_estimate():
        nonlocal est_inf
        if est_inf is None:
            est_inf = _estimate(config, data, math.inf, rng)
        return est_inf

    def draws_for(e, privacy_noise=True):
        key = (id(e), privacy_noise)
        if key not in draws:
            draws[key] = e.bootstrap_draws(config.B, rng, privacy_noise=privacy_noise)
        return draws[key]

    def bootstrap_result(e, token, privacy_noise=True):
        if token == "cv":
            cv = cv_choose_r(
                data,
                config.budget_for(epsilon) if e is est else math.inf,
                rng,
                CVConfig(folds=config.cv_folds, grid=config.cv_grid, b_inner=config.b_inner),
            )
            r = cv.chosen_r
        else:
            r = parse_r_token(token)
        d, failed = draws_for(e, privacy_noise)
        return ppb_limit_from_draws(
            e.beta_priv, d, r, e.n, alpha=config.alpha, failed_draws=failed
        )

    outcomes = {}
    for spec in config.methods:
        if spec.name == "ppb":
            e = private_estimate()
            for token in spec.r_tokens:
                outcomes[(spec.label, token)] = _outcome(bootstrap_result(e, token), true_max)
        elif spec.name == "npb":
            e = nonprivate_estimate()
            for token in spec.r_tokens:
                outcomes[(spec.label, token)] = _outcome(bootstrap_result(e, token), true_max)
        elif spec.name == "rppb":
            e = private_estimate()
            for token in spec.r_tokens:
                outcomes[(spec.label, token)] = _outcome(
                    bootstrap_result(e, token, privacy_noise=False), true_max
                )
        elif spec.name == "semi_naive":
            e = private_estimate()
            outcomes[(spec.label, "0.5")] = _outcome(bootstrap_result(e, "0.5"), true_max)
        elif spec.name == "naive":
            e = private_estimate() if spec.private else nonprivate_estimate()
            res = naive_lower_limit(e, alpha=config.alpha, private=spec.private)
            outcomes[(spec.label, "")] = _outcome(res, true_max)
        elif spec.name == "bonferroni":
            e = private_estimate() if spec.private else nonprivate_estimate()
            res = bonferroni_lower_limit(e, alpha=config.alpha, private=spec.private)
            outcomes[(spec.label, "")] = _outcome(res, true_max)
    return outcomes


def _fixed_design_for(config: ExperimentConfig):
    if config.model != "regression" or config.design != "fixed":
        return None
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    hx = config.x_half_width
    return rng.uniform(-hx, hx, (config.n, config.k))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured method over ``reps`` replications per epsilon.

    Returns one aggregated report row per (method, r, epsilon) combination.
    Deterministic given the configuration; the worker count only affects wall
    time.
    """
    fixed_design = _fixed_design_for(config)
    rows: list[ReportRow] = []
    for eps_index, epsilon in enumerate(config.epsilons):
        if config.workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
                per_rep = list(
                    pool.map(
                        _replication_task,
                        [(config, eps_index, rep, fixed_design) for rep in range(config.reps)],
                        chunksize=max(1, config.reps // (8 * config.workers)),
                    )
                )
        else:
            per_rep = [
                _run_replication(config, eps_index, rep, fixed_design)
                for rep in range(config.reps)
            ]

        keys = list(per_rep[0].keys())
        for key in keys:
            covered = np.array([out[key][0] for out in per_rep], dtype=float)
            lengths = np.array([out[key][1] for out in per_rep], dtype=float)
            failed = int(sum(out[key][2] for out in per_rep))
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
                    failed_draws=failed,
                )
            )
    return ExperimentReport(rows)


def _replication_task(args):
    return _run_replication(*args)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _parse_mu(text: str, k: int) -> tuple[float, ...]:
    t = text.strip().lower()
    if t == "zeros":
        return (0.0,) * k
    if t == "zeros+1":
        return (0.0,) * (k - 1) + (1.0,)
    values = _parse_floats(text)
    return values


def _parse_epsilons(text: str) -> tuple[float, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        out.append(math.inf if tok in ("inf", "infinity") else float(tok))
    return tuple(out)


def load_config(path) -> ExperimentConfig:
    """Read an experiment configuration from a key = value sections file.

    Schema: an ``[experiment]`` section holding truth and run parameters and a
    ``[methods]`` section mapping method names to their settings (r tokens for
    the bootstrap variants, ``private``/``nonprivate``/``both`` for the
    baselines, ``on``/``off`` for semi_naive).  See the README for the key
    list and defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ParameterError(f"cannot read config file {path}")
    if "experiment" not in parser or "methods" not in parser:
        raise ParameterError("config needs [experiment] and [methods] sections")
    exp = parser["experiment"]

    try:
        model = exp.get("model", "gaussian").strip()
        n = exp.getint("n")
        k = exp.getint("k")
        kwargs = dict(
            model=model,
            n=n,
            k=k,
            epsilons=_parse_epsilons(exp.get("epsilon", "")),
            seed=exp.getint("seed"),
            reps=exp.getint("reps", 1000),
            alpha=exp.getfloat("alpha", 0.05),
            B=exp.getint("b", DEFAULT_B),
            b_inner=exp.getint("b_inner", DEFAULT_B_INNER),
            cv_folds=exp.getint("cv_folds", DEFAULT_FOLDS),
            bounds_half_width=exp.getfloat("bounds_half_width", 3.0),
            workers=exp.getint("workers", 1),
            design=exp.get("design", "resampled").strip(),
            sigma2=exp.getfloat("sigma2", 1.0),
            k_nuisance=exp.getint("k_nuisance", 0),
            x_half_width=exp.getfloat("x_half_width", 1.0),
        )
    except (TypeError, ValueError, configparser.Error) as exc:
        raise ParameterError(f"bad [experiment] value: {exc}") from exc
    if kwargs["epsilons"] == ():
        raise ParameterError("the epsilon key is mandatory (a privacy budget must be declared)")

    if "cv_grid" in exp:
        kwargs["cv_grid"] = tuple(parse_r_token(t) for t in exp.get("cv_grid").split(","))
    split_text = exp.get("split", "equal").strip().lower()
    if split_text not in ("equal", ""):
        kwargs["split"] = _parse_floats(split_text)
    if "mu" in exp:
        kwargs["mu"] = _parse_mu(exp.get("mu"), k)
    if "sigma_diag" in exp:
        kwargs["sigma_diag"] = _parse_floats(exp.get("sigma_diag"))
    if "mu_nuisance" in exp:
        kwargs["mu_nuisance"] = _parse_mu(exp.get("mu_nuisance"), kwargs["k_nuisance"])
    if "beta" in exp:
        kwargs["beta"] = _parse_mu(exp.get("beta"), k)
    if "gamma" in exp:
        kwargs["gamma"] = _parse_floats(exp.get("gamma"))
    if "y_half_width" in exp:
        kwargs["y_half_width"] = exp.getfloat("y_half_width")

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
            value = "inf" if math.isinf(row.epsilon) else f"{row.epsilon:g}"
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
