"""Command-line interface.

Subcommands:

* ``ci gaussian`` / ``ci regression``: one lower confidence limit from a CSV
  of observations (header row, one observation per row; regression input has
  the response as the last column).
* ``cv``: cross-validated choice of the correction strength r.
* ``simulate``: run a Monte Carlo experiment described by a config file.
* ``plot-data``: reshape one or more report CSVs into plot-ready tidy CSV.

``ci`` and ``cv`` share one input path.  Their common flags come from one
parent parser, one loader turns the CSV and the bounds into a data class
(``cv`` always reads whole data, as ``--partial 0``; ``ci gaussian --partial
K1`` converts only the first K1 cells of each row, while every row is still
counted against the header), and ``ci`` releases it
as a stack of one set and bootstraps it with the stacked calls that the Monte
Carlo harness runs on a block of replications.  Epsilon, split shares and the
printed epsilon go through the parsers and the formatter that config files
and reports use.

Exit codes: 0 success, 2 validation error, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from .crossval import DEFAULT_FOLDS, DEFAULT_GRID, CVConfig, cv_choose_r
from .errors import NumericError, ParameterError
from .extrema import DEFAULT_B, DEFAULT_B_INNER, _check_alpha, _check_B, ppb_lower_limit
from .harness import (
    ExperimentReport,
    MethodSpec,
    divide_budget,
    emit_plot_data,
    format_epsilon,
    format_r_token,
    load_config,
    parse_grid,
    parse_number,
    parse_r_token,
    parse_split,
    run_experiment,
)
from .models import GaussianData, RegressionData, fold_statistics
from .privacy import Bounds


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


def _read_csv_matrix(path, columns=None) -> tuple[list[str], np.ndarray]:
    """Read a CSV with a header row as numbers, reporting bad cells by position.

    The matrix holds the first ``columns`` cells of each row (every cell when
    ``columns`` is ``None`` or not less than the header's length), and only
    those cells must be numbers; every row must still have as many cells as
    the header.  numpy's C parser reads the body in one call, keeping one
    character of each other cell, and its dtype refuses a row of any other
    length.  A body it refuses, or one with no row, goes to the row reader,
    which accepts what ``float`` accepts (quoted cells, blank rows) and raises
    every error.  A file that does not decode is refused by name.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            plain = header is not None and _numpy_reads_as_float(fh)
        if plain:
            width = len(header) if columns is None else min(columns, len(header))
            cells = [("x", float, (width,)), ("rest", "U1", (len(header) - width,))]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty body
                    data = np.loadtxt(
                        path, delimiter=",", skiprows=reader.line_num, dtype=cells, ndmin=1,
                        comments=None,
                    )
            except ValueError:
                pass
            else:
                if len(data):
                    return header, np.ascontiguousarray(data["x"])
        return _read_csv_rows(path, columns)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not {exc.encoding} text ({exc.reason})") from None


def _numpy_reads_as_float(fh) -> bool:
    """False if the rest of ``fh`` holds U+001C..U+001F, which numpy strips
    around a number as white space and ``float`` refuses."""
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if any(space in chunk for space in "\x1c\x1d\x1e\x1f"):
            return False
    return True


def _read_csv_rows(path, columns=None) -> tuple[list[str], np.ndarray]:
    """The row-by-row reader: the first ``columns`` cells of each row (every
    cell when ``None``) through ``float``, errors by row and column."""
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
                rows.append([float(cell) for cell in row[:columns]])
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


def _load_data(args):
    """The data class that the CSV and the flags of ``ci`` or ``cv`` describe.

    Regression input has the response as its last column.  ``--partial K1``
    keeps the first K1 columns (of the design, for regression) as the ones of
    interest; 0 reads every column as of interest.  A Gaussian is its first K1
    columns alone, so only those are read as numbers, while regression keeps
    the rest as its nuisance block.  A file error comes before an out-of-range
    K1, since a K1 outside 1..k reads every column.
    """
    regression = args.model == "regression"
    interest = None if regression or args.partial < 1 else args.partial
    header, data = _read_csv_matrix(args.input, interest)
    if regression and data.shape[1] < 2:
        raise ParameterError("regression input needs at least one design column plus y")
    x = data[:, :-1] if regression else data
    k = len(header) - 1 if regression else len(header)
    k1 = args.partial if args.partial else k
    if not (1 <= k1 <= k):
        raise ParameterError(f"--partial must name between 1 and {k} interest columns")
    if not regression:
        return GaussianData(x, _parse_bounds(args.bounds, k1, "coordinate"))
    if args.y_bounds is None:
        raise ParameterError("response bounds are mandatory: sensitivity is undefined without bounds")
    y, y_bounds = data[:, -1], _parse_bounds(args.y_bounds, 1, "response")
    return RegressionData(x[:, :k1], y, _parse_bounds(args.bounds, k1, "design"), y_bounds, x[:, k1:])


def _budget(args):
    """The budget of ``--epsilon``, divided by the ``--split`` shares if given."""
    return divide_budget(parse_number(args.epsilon, "epsilon"), parse_split(args.split))


def _cv_block(cv) -> dict:
    """A cross-validation result as the JSON of ``ci --r cv`` and of ``cv`` carry it."""
    return {
        "chosen_r": float(cv.chosen_rs[0]),
        "grid": list(cv.grid),
        "criterion": cv.criteria[0].tolist(),
        "budget": cv.budget,
    }


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")


def _print_result(result, estimate, seed: int, extra: dict, output=None):
    ledger = estimate.ledger
    repair = {
        "shift": float(estimate.repairs.shift[0]),
        "degenerate": bool(estimate.repairs.degenerate[0]),
    }
    # the noise scales of set 0, in budget-split order
    scales = {name: float(np.ravel(scale)[0]) for name, scale in estimate.noise_scales.items()}
    payload = {
        "result": asdict(result),
        "estimate": {"noise_scales": scales, "repair": repair},
        "ledger": ledger.to_dict(),
        "seed": seed,
        **extra,
    }
    print(f"lower_limit = {result.lower_limit:.6g}")
    print(f"level       = {result.level:g}")
    print(f"method      = {result.method}" + (f" (r = {format_r_token(result.r_used)})" if result.r_used is not None else ""))
    if result.B:
        print(f"B           = {result.B} ({result.failed_draws} failed draws)")
    print(f"budget      = {ledger.total():g}")
    print(f"repair      = shift {repair['shift']:g}" + (" (degenerate)" if repair["degenerate"] else ""))
    if "cv" in extra:
        cv = extra["cv"]
        print(f"cv          = chosen r {format_r_token(cv['chosen_r'])}; budget {cv['budget']:g}")
    print(f"seed        = {seed}")
    if output:
        _write_json(output, payload)


def _cmd_ci(args) -> int:
    data = _load_data(args)
    token = args.r.strip().lower()
    MethodSpec("ppb", (token,))  # r by the [methods] token rule: bad flags go before any release or draw
    _check_B(args.B)
    _check_alpha(args.alpha)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    budget = _budget(args)
    est = fold_statistics([data]).release(budget, rng)
    extra: dict = {}
    if token == "cv":
        cv = cv_choose_r(data, budget, rng, CVConfig(folds=args.folds, b_inner=args.b_inner))
        extra["cv"] = _cv_block(cv)
        r = extra["cv"]["chosen_r"]
    else:
        r = parse_r_token(token)
    result = ppb_lower_limit(est, r, rng, alpha=args.alpha, B=args.B)
    _print_result(result, est, args.seed, extra, args.output)
    return 0


def _cmd_cv(args) -> int:
    data = _load_data(args)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    grid = DEFAULT_GRID if args.grid is None else parse_grid(args.grid)
    config = CVConfig(folds=args.folds, grid=grid, b_inner=args.b_inner)
    cv = cv_choose_r(data, _budget(args), rng, config)
    print(f"chosen_r = {format_r_token(cv.chosen_rs[0])}")
    print("criterion by grid value:")
    for r, c in zip(cv.grid, cv.criteria[0]):
        print(f"  r = {format_r_token(r):>6} : {c:.6g}")
    print(f"budget   = {cv.budget:g}")
    print(f"seed     = {args.seed}")
    if args.output:
        _write_json(args.output, {**_cv_block(cv), "seed": args.seed})
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.reps is not None:
        config = replace(config, reps=args.reps)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    report = run_experiment(config)
    report.to_csv(args.output)
    print(f"wrote {args.output} ({len(report.rows)} rows)")
    for row in report.rows:
        r = f" r={row.r}" if row.r else ""
        print(
            f"  {row.method}{r} eps={format_epsilon(row.epsilon)}: coverage {row.coverage:.3f} "
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


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as ``SeedSequence`` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpextrema",
        description="Lower confidence limits for parameter extrema under differential privacy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, help="CSV with a header row, one observation per row")
    shared.add_argument("--bounds", required=True,
                        help="declared coordinate box, lo:hi[,lo:hi...]; use --bounds=-5:5 for negative bounds")
    shared.add_argument("--epsilon", required=True, help="total privacy budget (or 'inf')")
    shared.add_argument("--split", default=None, help="per-statistic budget shares, e.g. 0.5,0.5")
    shared.add_argument("--folds", type=int, default=DEFAULT_FOLDS, help="cross-validation folds")
    shared.add_argument("--b-inner", type=int, default=DEFAULT_B_INNER, dest="b_inner")
    shared.add_argument("--seed", type=_seed, required=True)
    shared.add_argument("--output", default=None, help="optional JSON output path")
    response = argparse.ArgumentParser(add_help=False)
    response.add_argument("--y-bounds", default=None, dest="y_bounds", help="response range lo:hi")

    ci = sub.add_parser("ci", help="one-shot lower confidence limit from a CSV")
    ci_sub = ci.add_subparsers(dest="model", required=True)
    for model, parents in (("gaussian", [shared]), ("regression", [shared, response])):
        p = ci_sub.add_parser(model, parents=parents)
        p.add_argument("--r", default="1/10", help="correction strength: float, fraction, 'full', or 'cv'")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--B", type=int, default=DEFAULT_B)
        p.add_argument("--partial", type=int, default=0, metavar="K1",
                       help="privatize only the first K1 columns; the rest are nuisance")
        p.set_defaults(func=_cmd_ci, model=model)

    cv = sub.add_parser("cv", parents=[shared, response],
                        help="cross-validated choice of the correction strength")
    cv.add_argument("--model", choices=("gaussian", "regression"), default="gaussian")
    cv.add_argument("--grid", default=None)
    cv.set_defaults(func=_cmd_cv, partial=0)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage/length experiment")
    sim.add_argument("--config", required=True, help="key = value sections file")
    sim.add_argument("--output", required=True, help="report CSV path")
    sim.add_argument("--reps", type=int, help="override the configured replication count")
    sim.add_argument("--workers", type=int, help="override the configured worker count")
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
    except NumericError as exc:  # DegeneracyError included
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
