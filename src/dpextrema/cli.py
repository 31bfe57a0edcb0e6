"""Command-line interface.

Subcommands:

* ``ci gaussian`` / ``ci regression``: one lower confidence limit from a CSV
  of observations (header row, one observation per row; regression input has
  the response as the last column).
* ``cv``: cross-validated choice of the correction strength r.
* ``simulate``: run a Monte Carlo experiment described by a config file.
* ``plot-data``: reshape one or more report CSVs into plot-ready tidy CSV.

Exit codes: 0 success, 2 validation error, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .crossval import CVConfig, cv_choose_r
from .errors import DegeneracyError, NumericError, ParameterError
from .extrema import ppb_lower_limit
from .harness import (
    ExperimentReport,
    emit_plot_data,
    format_r_token,
    load_config,
    parse_r_token,
    run_experiment,
)
from .models import GaussianData, RegressionData, gaussian_private_mle, regression_private_mle
from .partial import NuisanceRegressionData, PartitionedGaussianData, partial_gaussian_private_mle
from .privacy import Bounds, split_budget


def _parse_bounds(text: str, k: int, what: str) -> Bounds:
    """Parse 'lo:hi' (applied to every coordinate) or 'lo:hi,lo:hi,...'."""
    pairs = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        parsed = []
        for tok in pairs:
            lo, hi = tok.split(":", 1)
            parsed.append((float(lo), float(hi)))
    except ValueError as exc:
        raise ParameterError(f"cannot parse {what} bounds {text!r}; expected lo:hi[,lo:hi...]") from exc
    if len(parsed) == 1:
        parsed = parsed * k
    if len(parsed) != k:
        raise ParameterError(f"{what} bounds list has {len(parsed)} entries for {k} columns")
    lower = np.array([p[0] for p in parsed])
    upper = np.array([p[1] for p in parsed])
    return Bounds(lower, upper)


def _parse_epsilon(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    try:
        return float(t)
    except ValueError as exc:
        raise ParameterError(f"cannot parse epsilon {text!r}") from exc


def _read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row, reporting bad cells by position."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParameterError(f"{path}: empty file") from None
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParameterError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                bad = next(j for j, cell in enumerate(row, start=1) if not _is_float(cell))
                raise ParameterError(f"{path}: row {i}, column {bad}: not a number") from None
    if not rows:
        raise ParameterError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _budget(args, count: int):
    """Per-statistic epsilons from ``--epsilon`` and the optional ``--split`` shares."""
    text = (args.split or "").strip().lower()
    try:
        shares = None if text in ("", "equal") else [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ParameterError(f"cannot parse split {args.split!r}") from exc
    return split_budget(_parse_epsilon(args.epsilon), count, shares)


def _print_result(result, estimate, seed: int, extra: dict | None = None, output=None):
    ledger = estimate.ledger
    release = estimate.to_dict()
    repair = release["repair"]
    payload = {
        "result": result.to_dict(),
        "estimate": {"noise_scales": release["noise_scales"], "repair": repair},
        "ledger": ledger.to_dict(),
        "seed": seed,
    }
    if extra:
        payload.update(extra)
    print(f"lower_limit = {result.lower_limit:.6g}")
    print(f"level       = {result.level:g}")
    print(f"method      = {result.method}" + (f" (r = {format_r_token(result.r_used)})" if result.r_used is not None else ""))
    if result.B:
        print(f"B           = {result.B} ({result.failed_draws} failed draws)")
    print(f"budget      = sequential {ledger.total_sequential():g} | parallel view {ledger.total_parallel():g}")
    print(f"repair      = shift {repair['shift']:g}" + (" (degenerate)" if repair["degenerate"] else ""))
    if extra and "cv" in extra:
        cv = extra["cv"]
        print(
            f"cv          = chosen r {format_r_token(cv['chosen_r'])}; budget "
            f"parallel-reading {cv['budget_parallel_view']:g}, worst-case sequential {cv['budget_sequential_view']:g}"
        )
    print(f"seed        = {seed}")
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {output}")


def _cmd_ci(args) -> int:
    header, data = _read_csv_matrix(args.input)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    extra: dict = {}

    if args.model == "gaussian":
        k = data.shape[1]
        k1 = args.partial if args.partial else k
        if not (1 <= k1 <= k):
            raise ParameterError(f"--partial must name between 1 and {k} interest columns")
        bounds = _parse_bounds(args.bounds, k1, "coordinate")
        budget = _budget(args, 2)
        if args.partial:
            pdata = PartitionedGaussianData(data[:, :k1], data[:, k1:] if k1 < k else None, bounds)
            est = partial_gaussian_private_mle(pdata, budget, rng)
            cv_data = pdata
        else:
            gdata = GaussianData(data, bounds)
            est = gaussian_private_mle(gdata, budget, rng)
            cv_data = gdata
    else:
        if data.shape[1] < 2:
            raise ParameterError("regression input needs at least one design column plus y")
        X, y = data[:, :-1], data[:, -1]
        k = X.shape[1]
        k1 = args.partial if args.partial else k
        if not (1 <= k1 <= k):
            raise ParameterError(f"--partial must name between 1 and {k} interest columns")
        if args.y_bounds is None:
            raise ParameterError("response bounds are mandatory: sensitivity is undefined without bounds")
        y_bounds = _parse_bounds(args.y_bounds, 1, "response")
        bounds = _parse_bounds(args.bounds, k1, "design")
        budget = _budget(args, 3)
        if args.partial:
            X2 = X[:, k1:] if k1 < k else None
            cv_data = NuisanceRegressionData(X[:, :k1], X2, y, bounds, y_bounds)
        else:
            cv_data = RegressionData(X, y, bounds, y_bounds)
        est = regression_private_mle(cv_data, budget, rng)

    token = args.r.strip().lower()
    if token == "cv":
        cv = cv_choose_r(cv_data, budget, rng, CVConfig(folds=args.folds, b_inner=args.b_inner))
        r = cv.chosen_r
        extra["cv"] = {
            "chosen_r": cv.chosen_r,
            "grid": list(cv.grid),
            "criterion": cv.criterion.tolist(),
            "budget_parallel_view": cv.budget_parallel_view,
            "budget_sequential_view": cv.budget_sequential_view,
        }
    else:
        r = parse_r_token(token)
    result = ppb_lower_limit(est, r, rng, alpha=args.alpha, B=args.B)
    _print_result(result, est, args.seed, extra, args.output)
    return 0


def _cmd_cv(args) -> int:
    header, data = _read_csv_matrix(args.input)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    grid = tuple(parse_r_token(tok) for tok in args.grid.split(","))
    config = CVConfig(folds=args.folds, grid=grid, b_inner=args.b_inner)

    if args.model == "gaussian":
        bounds = _parse_bounds(args.bounds, data.shape[1], "coordinate")
        cv_data = GaussianData(data, bounds)
        budget = _budget(args, 2)
    else:
        X, y = data[:, :-1], data[:, -1]
        if args.y_bounds is None:
            raise ParameterError("response bounds are mandatory: sensitivity is undefined without bounds")
        cv_data = RegressionData(
            X, y, _parse_bounds(args.bounds, X.shape[1], "design"), _parse_bounds(args.y_bounds, 1, "response")
        )
        budget = _budget(args, 3)

    cv = cv_choose_r(cv_data, budget, rng, config)
    print(f"chosen_r = {format_r_token(cv.chosen_r)}")
    print("criterion by grid value:")
    for r, c in zip(cv.grid, cv.criterion):
        print(f"  r = {format_r_token(r):>6} : {c:.6g}")
    print(
        f"budget   = parallel-reading {cv.budget_parallel_view:g} | "
        f"worst-case sequential {cv.budget_sequential_view:g}"
    )
    print(f"seed     = {args.seed}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(
                {
                    "chosen_r": cv.chosen_r,
                    "grid": list(cv.grid),
                    "criterion": cv.criterion.tolist(),
                    "budget_parallel_view": cv.budget_parallel_view,
                    "budget_sequential_view": cv.budget_sequential_view,
                    "seed": args.seed,
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.reps:
        config = replace(config, reps=args.reps)
    if args.workers:
        config = replace(config, workers=args.workers)
    report = run_experiment(config)
    report.to_csv(args.output)
    print(f"wrote {args.output} ({len(report.rows)} rows)")
    for row in report.rows:
        eps = "inf" if math.isinf(row.epsilon) else f"{row.epsilon:g}"
        r = f" r={row.r}" if row.r else ""
        print(
            f"  {row.method}{r} eps={eps}: coverage {row.coverage:.3f} "
            f"(se {row.coverage_se:.3f}), mean length {row.mean_length:.4f}"
        )
    return 0


def _cmd_plot_data(args) -> int:
    report = ExperimentReport.from_csv(args.report[0])
    for path in args.report[1:]:
        report = report.merge(ExperimentReport.from_csv(path))
    emit_plot_data(report, args.axis, args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpextrema",
        description="Lower confidence limits for parameter extrema under differential privacy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="one-shot lower confidence limit from a CSV")
    ci_sub = ci.add_subparsers(dest="model", required=True)
    for model in ("gaussian", "regression"):
        p = ci_sub.add_parser(model)
        p.add_argument("--input", required=True, help="CSV with a header row, one observation per row")
        p.add_argument("--bounds", required=True,
                       help="declared coordinate box, lo:hi[,lo:hi...]; use --bounds=-5:5 for negative bounds")
        p.add_argument("--epsilon", required=True, help="total privacy budget (or 'inf')")
        p.add_argument("--split", default=None, help="per-statistic budget shares, e.g. 0.5,0.5")
        p.add_argument("--r", default="1/10", help="correction strength: float, fraction, 'full', or 'cv'")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--B", type=int, default=1000)
        p.add_argument("--folds", type=int, default=5, help="folds when --r cv")
        p.add_argument("--b-inner", type=int, default=200, dest="b_inner")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--partial", type=int, default=0, metavar="K1",
                       help="privatize only the first K1 columns; the rest are nuisance")
        p.add_argument("--output", default=None, help="optional JSON output path")
        if model == "regression":
            p.add_argument("--y-bounds", default=None, dest="y_bounds", help="response range lo:hi")
        p.set_defaults(func=_cmd_ci, model=model)

    cv = sub.add_parser("cv", help="cross-validated choice of the correction strength")
    cv.add_argument("--model", choices=("gaussian", "regression"), default="gaussian")
    cv.add_argument("--input", required=True)
    cv.add_argument("--bounds", required=True)
    cv.add_argument("--y-bounds", default=None, dest="y_bounds")
    cv.add_argument("--epsilon", required=True)
    cv.add_argument("--split", default=None)
    cv.add_argument("--grid", default="1/30,1/15,1/10,1/5")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--b-inner", type=int, default=200, dest="b_inner")
    cv.add_argument("--seed", type=int, required=True)
    cv.add_argument("--output", default=None)
    cv.set_defaults(func=_cmd_cv)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage/length experiment")
    sim.add_argument("--config", required=True, help="key = value sections file")
    sim.add_argument("--output", required=True, help="report CSV path")
    sim.add_argument("--reps", type=int, default=0, help="override the configured replication count")
    sim.add_argument("--workers", type=int, default=0, help="override the configured worker count")
    sim.set_defaults(func=_cmd_simulate)

    plot = sub.add_parser("plot-data", help="tidy CSV for plotting from report CSVs")
    plot.add_argument("--report", required=True, nargs="+", help="one or more report CSVs")
    plot.add_argument("--axis", required=True, choices=("epsilon", "k", "r"))
    plot.add_argument("--output", required=True)
    plot.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegeneracyError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
