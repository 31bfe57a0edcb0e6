"""Smoke test of the benchmark; run with ``python3 -m pytest bench/test_bench.py``.

Each workload runs for a fraction of a second, traced and untraced.  The test
checks that every metric the benchmark declares is emitted with its unit,
that traced time lands in the layers the profiles name, and that an injected
operation error shows up in ``ops_failed_ratio``.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sim-gauss-k2-cv", "sim-reg-k8", "ci-partial-cv")

END_TO_END = {"setup_s", "op_ref_p50", "op_ref_p90", "peak_rss_mb"}
PER_LAYER = {
    "reps_per_s", "op_ms_p50", "op_ms_p90", "reference_ms_p50",
    "ops_failed_ratio", "trace.overhead_ratio",
    "crossval.cv.calls", "crossval.cv.ms", "crossval.self_ms", "crossval.fold_estimates.calls",
    "models.estimate.calls", "models.estimate.ms", "models.bootstrap_draws.calls",
    "models.bootstrap_draws.ms", "models.draws.attempted", "models.draws.failed",
    "models.draws.useful_ratio", "models.self_ms",
    "privacy.clamp.calls", "privacy.clamp.ms", "privacy.sensitivity.calls",
    "privacy.sensitivity.ms", "privacy.laplace.calls", "privacy.laplace.ms", "privacy.self_ms",
    "linalg.psd_repair.calls", "linalg.psd_repair.clipped", "linalg.psd_repair.degenerate",
    "linalg.psd_repair.ms", "linalg.sym_sqrt.calls", "linalg.sym_sqrt.ms", "linalg.self_ms",
    "extrema.limit.calls", "extrema.limit.ms", "extrema.bias_reduced.ms", "extrema.baselines.ms",
    "extrema.self_ms",
    "harness.generate_data.calls", "harness.generate_data.ms", "harness.self_ms",
    "partial.estimate.calls", "partial.estimate.ms", "partial.self_ms",
    "cli.calls", "cli.read_csv.ms", "cli.self_ms",
}
# largest inclusive span time on each workload, as the profiles put it
LARGEST = {
    "sim-gauss-k2-cv": "crossval.cv.ms",
    "sim-reg-k8": "models.bootstrap_draws.ms",
    "ci-partial-cv": "cli.read_csv.ms",
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def one_setup_probe(bench, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)


def test_declared_metric_names_are_the_fixed_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(bench, workload, trace):
    outcome = bench.run(workload, seed=5, seconds=0.2, trace=trace)
    line = bench.result_line(outcome, trace)
    declared = bench.declared_metrics(trace)
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"]), name
    assert line["correct"] and line["failed"] == 0, outcome["failures"]
    assert line["attempted"] >= (3 if trace else 2)
    if trace:
        values = {name: m["value"] for name, m in line["metrics"].items()}
        inclusive = {n: v for n, v in values.items() if n.endswith(".ms")}
        assert max(inclusive, key=inclusive.get) == LARGEST[workload]
        assert values["ops_failed_ratio"] == 0.0
        if workload == "sim-reg-k8":
            assert values["crossval.cv.calls"] == 0 and values["cli.calls"] == 0


def test_wrappers_change_no_result(bench):
    harness = bench.load_program().harness
    sys.path.insert(0, str(BENCH))
    from spans import Recorder

    config = replace(harness.load_config(ROOT / "configs" / "gaussian_k2_tied.ini"), reps=3, seed=11)
    recorder = Recorder()
    traced = recorder.trace(0, lambda: harness.run_experiment(config))
    assert recorder.layer_metrics(1)["crossval.cv.calls"] == 3
    assert traced.rows == harness.run_experiment(config).rows


def test_injected_op_error_raises_ops_failed_ratio(bench, monkeypatch):
    harness = bench.load_program().harness
    real = harness.run_experiment

    def flaky(config):
        if config.seed % 2:
            raise RuntimeError("injected")
        return real(config)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    outcome = bench.run("sim-reg-k8", seed=5, seconds=0.3, trace=True)
    line = bench.result_line(outcome, True)
    assert line["metrics"]["ops_failed_ratio"]["value"] > 0.0
    assert line["failed"] > 0 and not line["correct"]
    assert any("RuntimeError: injected" in f for f in outcome["failures"])


def test_command_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-reg-k8", "--seed", "5",
         "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-reg-k8", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
