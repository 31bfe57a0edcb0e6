"""The traced benchmark (bench/spans.py) reports metric groups by span name.

A group whose every member the program no longer defines makes a traced run
fail, so renaming or deleting a traced entry point must fail here first.  The
draw counters read ``bootstrap_draws`` arguments and results by position, so
its signature and return are pinned here too.
"""

import collections
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from dpextrema.models import (
    GaussianData,
    RegressionData,
    gaussian_private_mle,
    regression_private_mle,
)
from dpextrema.privacy import Bounds

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_metric_group_names_a_defined_function():
    spans = load_spans()
    # the same resolution the span recorder uses when it installs wrappers
    defined = {
        span
        for layer in spans.LAYERS
        for *_, span in spans._layer_callables(importlib.import_module(f"dpextrema.{layer}"), layer)
    }
    empty = sorted(group for group, members in spans.GROUPS.items() if not defined & set(members))
    assert not empty, f"metric groups with no defined member: {empty}"


def released_estimates():
    rng = np.random.default_rng(5)
    gaussian = GaussianData(rng.uniform(-1.0, 1.0, (50, 2)), Bounds.symmetric(1.0, 2))
    X = rng.uniform(-1.0, 1.0, (400, 2))
    regression = RegressionData(
        X, X @ [1.0, -1.0] + rng.standard_normal(400),
        Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1),
    )
    return [gaussian_private_mle(gaussian, 2.0, rng), regression_private_mle(regression, 5.0, rng)]


@pytest.mark.parametrize("est", released_estimates(), ids=["gaussian", "regression"])
def test_bootstrap_draws_fits_the_draw_counter(est):
    # the recorder counts attempted draws from args[1] (size, after self) and
    # failed ones from result[1]; another signature or return would zero them
    spans = load_spans()
    params = list(inspect.signature(type(est).bootstrap_draws).parameters)
    assert params[:2] == ["self", "size"]
    size, rng = 120, np.random.default_rng(6)
    result = est.bootstrap_draws(size, rng)
    draws, failed = result
    assert draws.shape[0] + failed == size
    counters = collections.Counter()
    spans._count_draws(counters, (est, size, rng), {}, result)
    assert counters == {"draws.attempted": size, "draws.failed": failed}


@pytest.mark.parametrize("model, draws", [("gaussian", 2), ("regression", 3)])
def test_the_trace_counts_each_laplace_draw_once(model, draws):
    # a Gaussian release draws the noise of its sum and gram, a regression
    # release that of its gram, X^T y and rss: one LaplaceSpec.sample each
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.0, 1.0, (400, 2))
    if model == "gaussian":
        data, release = GaussianData(X, Bounds.symmetric(1.0, 2)), gaussian_private_mle
    else:
        y = X @ [1.0, -1.0] + rng.standard_normal(400)
        data = RegressionData(X, y, Bounds.symmetric(1.0, 2), Bounds.symmetric(5.0, 1))
        release = regression_private_mle
    recorder = load_spans().Recorder()
    recorder.trace(0, lambda: release(data, 5.0, rng))
    assert recorder.layer_metrics(1)["privacy.laplace.calls"] == draws
