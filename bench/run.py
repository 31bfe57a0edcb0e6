"""dpextrema benchmark: one workload, one process, one closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload sim-gauss-k2-cv --seed 1 --seconds 25 --trace 0

``--trace 0`` times the operations with no wrappers installed and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and prints the per-layer metrics.  Every operation is followed by one pass of
a fixed reference kernel, and op times are reported in units of the pass next
to them, which cancels the shared host's changing CPU speed.  Metric names and units come from
``BENCHMARK.json``.  Diagnostics (environment block, sample counts, failures)
are printed first; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Replications per ``sim-*`` operation; each operation gets its own seed.
BLOCK_REPS = 10
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9
#: Harness worker processes; one, so an operation runs in this process only.
WORKERS = 1
#: Least half-width of the pooled coverage band of a ``sim-*`` run.
COVERAGE_TOLERANCE = 0.025
#: Grid the ``ci`` command searches with ``--r cv`` (its documented default).
CV_GRID = (1 / 30, 1 / 15, 1 / 10, 1 / 5)
CI_ROWS, CI_COLS, CI_EPSILON, CI_PARTIAL = 20_000, 6, 1.5, 4


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, config or metric)."""


def coverage_band(center: float, reps: int) -> tuple[float, float]:
    """Band for the pooled ppb r=1/10 coverage of a ``sim-*`` run.

    The band is ``center +- max(COVERAGE_TOLERANCE, 4 standard errors of the
    pooled replications)``, so short runs are not failed by sampling noise alone.
    """
    half = max(COVERAGE_TOLERANCE, 4.0 * math.sqrt(center * (1.0 - center) / reps))
    return center - half, center + half


@dataclass
class Workload:
    name: str
    setup_statement: str          # what a fresh process loads after `import dpextrema`
    prepare: Callable             # (seed, workdir) -> (op, finish)
    reps_per_op: int


def op_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _sim_workload(name: str, config: Path, coverage: float) -> Workload:
    def prepare(seed, workdir):
        from dpextrema import harness

        base = replace(harness.load_config(config), reps=BLOCK_REPS, workers=WORKERS)
        pooled = {"covered": 0, "reps": 0}

        def op(index):
            cfg = replace(base, seed=op_seed(seed, index))
            start = time.perf_counter()
            report = harness.run_experiment(cfg)
            elapsed = time.perf_counter() - start
            try:
                row = report.find("ppb", r="1/10")
            except KeyError:
                return elapsed, "no ppb r=1/10 row in the report"
            for r in report.rows:
                if not math.isfinite(r.mean_length) or not 0.0 <= r.coverage <= 1.0:
                    return elapsed, f"{r.method} {r.r}: coverage {r.coverage}, mean_length {r.mean_length}"
            pooled["covered"] += round(row.coverage * row.reps)
            pooled["reps"] += row.reps
            return elapsed, None

        def finish():
            if pooled["reps"] == 0:
                return None
            lo, hi = coverage_band(coverage, pooled["reps"])
            value = pooled["covered"] / pooled["reps"]
            detail = {"ppb_1_10_coverage": value, "band": [lo, hi], "reps": pooled["reps"]}
            print(json.dumps({"pooled_check": detail}))
            if not lo <= value <= hi:
                return f"pooled ppb r=1/10 coverage {value:.4f} outside [{lo:.4f}, {hi:.4f}]"
            return None

        return op, finish

    statement = f"from dpextrema.harness import load_config; load_config({str(config)!r})"
    return Workload(name, statement, prepare, BLOCK_REPS)


def _ci_prepare(seed, workdir):
    import numpy as np

    from dpextrema import cli

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    csv_path = workdir / "input.csv"
    header = ",".join(f"x{j}" for j in range(CI_COLS))
    np.savetxt(csv_path, rng.standard_normal((CI_ROWS, CI_COLS)), delimiter=",",
               header=header, comments="", fmt="%.17g")
    out_path = workdir / "result.json"

    def op(index):
        out_path.unlink(missing_ok=True)
        argv = ["ci", "gaussian", "--input", str(csv_path), "--bounds=-3:3",
                "--epsilon", str(CI_EPSILON), "--partial", str(CI_PARTIAL), "--r", "cv",
                "--output", str(out_path), "--seed", str(op_seed(seed, index))]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, f"exit code {code}: {captured.getvalue().strip()}"
        payload = json.loads(out_path.read_text())
        result = payload["result"]
        total = payload["ledger"]["total_sequential"]
        if not math.isclose(total, CI_EPSILON, rel_tol=1e-12):
            return elapsed, f"ledger total_sequential {total} != {CI_EPSILON}"
        if not any(math.isclose(result["r_used"], r, rel_tol=1e-12) for r in CV_GRID):
            return elapsed, f"r_used {result['r_used']} not in the CV grid"
        if not math.isfinite(result["lower_limit"]):
            return elapsed, f"lower_limit {result['lower_limit']} is not finite"
        if result["failed_draws"] > 0.01 * (result["B"] + result["failed_draws"]):
            return elapsed, f"{result['failed_draws']} failed draws exceed 1% of B"
        return elapsed, None

    return op, lambda: None


WORKLOADS = {
    w.name: w
    for w in (
        _sim_workload(
            "sim-gauss-k2-cv",
            ROOT / "configs" / "gaussian_k2_tied.ini",
            # acceptance criterion 1: tied coverage 0.932 +- 0.025
            0.932,
        ),
        _sim_workload(
            "sim-reg-k8",
            BENCH_DIR / "configs" / "regression_k8.ini",
            # measured 0.945 and 0.948 over 1000 replications at seeds 7 and 8
            0.946,
        ),
        Workload("ci-partial-cv", "from dpextrema.cli import build_parser; build_parser()",
                 _ci_prepare, 1),
    )
}


def reference_kernel() -> Callable[[], float]:
    """Return a function that times one pass of a fixed reference computation, in ms.

    A pass mixes the kinds of work the workloads do: an interpreter loop, text
    numbers parsed into floats, small numpy/LAPACK calls, and sorts and
    quantiles of bootstrap-sized (1000, 2) arrays.  It uses numpy only, never
    dpextrema, so a change to the program does not change it; an op's time over
    the time of the pass right after it measures the op in units of the
    machine's speed at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(20230305)
    lines = [",".join(f"{v:.17g}" for v in row) for row in rng.standard_normal((150, 6))]
    matrix = rng.standard_normal((200, 8))
    offsets = rng.standard_normal((1000, 2))

    def one_pass() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(5_000):
            total += (i * 7) % 13
        [[float(x) for x in line.split(",")] for line in lines]
        for _ in range(150):
            np.linalg.eigvalsh(matrix.T @ matrix)
        noise = np.random.default_rng(7)
        for _ in range(20):
            draws = noise.standard_normal((1000, 2)) + offsets
            np.quantile(draws.max(axis=1), 0.1)
            np.sort(draws, axis=0)
        return (time.perf_counter() - start) * 1e3

    return one_pass


# ---------------------------------------------------------------------------
# program, environment and set-up time
# ---------------------------------------------------------------------------


def load_program():
    """Import dpextrema from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "dpextrema" / "__init__.py").is_file():
        raise BenchmarkError(f"no dpextrema package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dpextrema

    if SRC.resolve() not in Path(dpextrema.__file__).resolve().parents:
        raise BenchmarkError(f"dpextrema imported from {dpextrema.__file__}, not {SRC}")
    return dpextrema


_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dpextrema
{statement}
elapsed = time.perf_counter() - start
if not dpextrema.__file__.startswith(sys.argv[1]):
    sys.exit("dpextrema imported from " + dpextrema.__file__)
print(elapsed)
"""


def measure_setup(workload: Workload) -> list[float]:
    """Time `import dpextrema` plus loading the workload input in fresh processes."""
    code = _PROBE.format(statement=workload.setup_statement)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if readable."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts or None


def environment(dp, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dpextrema": dp.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": WORKERS,
        "workload": workload,
        "seed": seed,
        "op_seeds": f"{op_seed(seed, 0)} + op index",
        "seconds": seconds,
        "trace": int(trace),
    }


# ---------------------------------------------------------------------------
# the measurement
# ---------------------------------------------------------------------------


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its metrics and diagnostics (all names, not only one mode's)."""
    workload = WORKLOADS[workload_name]
    dp = load_program()
    # setup_s is an end-to-end metric, which a traced run does not report
    setup = [] if trace else measure_setup(workload)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        op, finish = workload.prepare(seed, Path(tmp))
        reference = reference_kernel()
        recorder = None
        if trace:
            if str(BENCH_DIR) not in sys.path:
                sys.path.insert(0, str(BENCH_DIR))
            from spans import Recorder

            recorder = Recorder()

        failures: list[str] = []
        untraced: list[tuple[float, float]] = []   # (op ms, op ms / reference ms)
        traced: list[tuple[float, float]] = []
        reference_ms: list[float] = []
        traced_attempts = [0]

        def attempt(index, traced_op):
            traced_attempts[0] += traced_op
            try:
                if traced_op:
                    elapsed, problem = recorder.trace(index, lambda: op(index))
                else:
                    elapsed, problem = op(index)
            except Exception as exc:  # any error is a failed op, never a retry
                failures.append(f"op {index}: {type(exc).__name__}: {exc}")
                return
            finally:
                reference_ms.append(reference())
            if problem is not None:
                failures.append(f"op {index}: {problem}")
            ms = elapsed * 1e3
            (traced if traced_op else untraced).append((ms, ms / reference_ms[-1]))

        # one warm-up op (and reference pass) fills lazy caches; it is checked
        # but not timed
        attempt(0, False)
        untraced.clear()
        reference_ms.clear()
        index = 1
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or index < (3 if trace else 2):
            attempt(index, trace and index % 2 == 0)
            index += 1
        attempted = index
        failed = len(failures)
        pooled_problem = finish()
    if pooled_problem is not None:
        # a failed pooled check cannot be pinned on one op, so it fails them all
        failures.append(f"run: {pooled_problem}")
        failed = attempted

    timed_ms = [ms for ms, _ in untraced] or [math.nan]
    timed_ref = [ref for _, ref in untraced] or [math.nan]
    op_ref_p50 = statistics.median(timed_ref)
    metrics = {
        "op_ref_p50": op_ref_p50,
        "op_ref_p90": p90(timed_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # wall-clock figures; they follow the host's CPU speed from run to run
        "reps_per_s": workload.reps_per_op * len(timed_ms) / (math.fsum(timed_ms) / 1e3),
        "op_ms_p50": statistics.median(timed_ms),
        "op_ms_p90": p90(timed_ms),
        "reference_ms_p50": statistics.median(reference_ms or [math.nan]),
        "ops_failed_ratio": failed / attempted,
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if recorder is not None:
        metrics.update(recorder.layer_metrics(traced_attempts[0]))
        traced_ref = [ref for _, ref in traced] or [math.nan]
        metrics["trace.overhead_ratio"] = statistics.median(traced_ref) / op_ref_p50
        spans_written = recorder.write(OUT_DIR / f"{workload_name}.spans.csv")
    return {
        "env": environment(dp, workload_name, seed, seconds, trace),
        "samples": {
            "setup_s": setup,
            "untraced_ops": len(untraced),
            "traced_ops": len(traced),
            "spans": spans_written if recorder is not None else 0,
            "untraced_group_members": recorder.missing if recorder is not None else {},
        },
        "failures": failures,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit for one mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(outcome: dict, trace: bool) -> dict:
    metrics = {}
    for name, unit in declared_metrics(trace).items():
        if name not in outcome["metrics"]:
            raise BenchmarkError(f"metric {name} is declared but not measured")
        metrics[name] = {"value": outcome["metrics"][name], "unit": unit}
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        declared_metrics(bool(args.trace))
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(outcome, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": outcome["env"]}))
    print(json.dumps({"samples": outcome["samples"], "failures": outcome["failures"][:20]}))
    print(json.dumps({"all_metrics": outcome["metrics"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
