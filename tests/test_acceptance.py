"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion with the measured values.
The Monte Carlo criteria run the shipped config files in ``configs/`` at full
scale (1000 replications, B = 1000), so the whole module takes a minute or
two; run it with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import dpextrema as dp
from dpextrema.harness import load_config, run_experiment
from test_partial import assert_nuisance_unreleased

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_runtime = {}


def _run(name):
    config = load_config(CONFIG_DIR / name)
    start = time.perf_counter()
    report = run_experiment(config)
    _runtime[name] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def tied_report():
    return _run("gaussian_k2_tied.ini")


@pytest.fixture(scope="module")
def separated_report():
    return _run("gaussian_k2_separated.ini")


@pytest.fixture(scope="module")
def k8_report():
    return _run("gaussian_k8.ini")


@pytest.fixture(scope="module")
def sweep_report():
    return _run("budget_sweep.ini")


def _check(criterion, label, value, lo, hi):
    ok = lo <= value <= hi
    print(f"criterion {criterion} [{'PASS' if ok else 'FAIL'}] {label}: "
          f"{value:.4f} in [{lo:.4f}, {hi:.4f}]")
    assert ok, f"{label}: {value:.4f} outside [{lo:.4f}, {hi:.4f}]"


def _check_upper(criterion, label, value, bound):
    ok = value <= bound
    print(f"criterion {criterion} [{'PASS' if ok else 'FAIL'}] {label}: "
          f"{value:.4f} <= {bound:.4f}")
    assert ok, f"{label}: {value:.4f} exceeds {bound:.4f}"


def test_criterion_1_headline_coverage_and_length(tied_report, separated_report):
    """Tied and separated bivariate cases at eps = 1.5, r = 1/10."""
    row = tied_report.find("ppb", r="1/10")
    _check(1, "tied coverage", row.coverage, 0.932 - 0.025, 0.932 + 0.025)
    _check(1, "tied mean length", row.mean_length, 0.065 - 0.01, 0.065 + 0.01)
    row = separated_report.find("ppb", r="1/10")
    _check(1, "separated coverage", row.coverage, 0.943 - 0.025, 0.943 + 0.025)
    _check(1, "separated mean length", row.mean_length, 0.068 - 0.01, 0.068 + 0.01)
    runtime = _runtime["gaussian_k2_tied.ini"] + _runtime["gaussian_k2_separated.ini"]
    _check_upper(1, "runtime of both table runs (s)", runtime, 900.0)


def test_criterion_2_baseline_undercoverage(tied_report):
    """Selection bias hurts the baselines at tied means."""
    naive = tied_report.find("naive_private")
    _check_upper(2, "private naive coverage", naive.coverage, 0.90 + 3 * naive.coverage_se)
    semi = tied_report.find("semi_naive")
    _check_upper(2, "semi-naive coverage", semi.coverage, 0.92 + 3 * semi.coverage_se)
    ppb = tied_report.find("ppb", r="1/10")
    ordered = ppb.coverage >= semi.coverage >= naive.coverage
    print(f"criterion 2 [{'PASS' if ordered else 'FAIL'}] coverage ordering "
          f"ppb {ppb.coverage:.3f} >= semi {semi.coverage:.3f} >= naive {naive.coverage:.3f}")
    assert ordered


def test_criterion_3_bootstrap_noise_is_load_bearing(tied_report):
    """Skipping the simulated privatization noise undercovers."""
    row = tied_report.find("rppb", r="1/10")
    _check_upper(3, "ablation coverage", row.coverage, 0.90 - 1e-12)


def test_criterion_4_high_dimension(k8_report):
    """k = 8 at eps = 3: the correction still calibrates, baselines collapse."""
    _check(4, "ppb r=1/10 coverage", k8_report.find("ppb", r="1/10").coverage, 0.931 - 0.03, 0.931 + 0.03)
    _check(4, "ppb r=0.5 coverage", k8_report.find("ppb", r="0.5").coverage, 0.717 - 0.05, 0.717 + 0.05)
    _check(4, "private naive coverage", k8_report.find("naive_private").coverage, 0.613 - 0.05, 0.613 + 0.05)


def test_criterion_5_budget_sweep_monotonicity(sweep_report):
    """Mean length strictly decreases in the budget; coverage stays nominal."""
    rows = sorted(sweep_report.rows, key=lambda r: r.epsilon)
    lengths = [r.mean_length for r in rows]
    decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
    print(f"criterion 5 [{'PASS' if decreasing else 'FAIL'}] lengths strictly decreasing: "
          + " > ".join(f"{v:.4f}" for v in lengths))
    assert decreasing
    for row in rows:
        _check(5, f"coverage at eps={row.epsilon:g}", row.coverage, 0.90, 0.98)


def test_criterion_6_zero_noise_oracles(tied_report, separated_report):
    """Infinite budget: estimators equal closed forms; bootstrap covers nominally."""
    rng = np.random.default_rng(1606)
    worst_gauss = 0.0
    worst_reg = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(1, 5))
        x = rng.uniform(-2.0, 2.0, (n, k))
        est = dp.gaussian_private_mle(
            dp.GaussianData(x, dp.Bounds.symmetric(5.0, k)), math.inf, rng
        )
        mean = x.mean(axis=0)
        centered = x - mean
        cov = centered.T @ centered / (n - 1)
        worst_gauss = max(
            worst_gauss,
            np.abs(est.betas[0] - mean).max() / max(np.abs(mean).max(), 1e-9),
            np.abs(est.repairs.matrix[0] - cov).max() / np.abs(cov).max(),
        )
        m = int(rng.integers(10, 51))
        p = int(rng.integers(1, 5))
        X = rng.uniform(-1.0, 1.0, (m, p))
        y = X @ rng.uniform(-2.0, 2.0, p) + rng.standard_normal(m)
        reg = dp.regression_private_mle(
            dp.RegressionData(X, y, dp.Bounds.symmetric(1.0, p), dp.Bounds.symmetric(12.0, 1)),
            math.inf,
            rng,
        )
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        worst_reg = max(worst_reg, np.abs(reg.betas[0] - ols).max() / np.abs(ols).max())
    _check_upper(6, "gaussian worst relative error", worst_gauss, 1e-10)
    _check_upper(6, "regression worst relative error", worst_reg, 1e-10)
    _check(6, "non-private bootstrap coverage (tied)", tied_report.find("npb", r="1/10").coverage, 0.93, 0.97)
    _check(6, "non-private bootstrap coverage (separated)", separated_report.find("npb", r="1/10").coverage, 0.93, 0.97)


def test_criterion_7_property_suite(tmp_path):
    """Distributional, arithmetic, accounting, and audit properties; no simulation."""
    start = time.perf_counter()
    rng = np.random.default_rng(1707)

    # Laplace moments and distribution
    draws = dp.LaplaceSpec(scale=1.0, dimension=100_000).sample(rng, ())
    assert abs(draws.mean()) < 3 * math.sqrt(2 / 100_000)
    assert abs(draws.var() - 2.0) < 0.1
    assert stats.kstest(draws, stats.laplace(scale=1.0).cdf).pvalue > 0.001
    print("criterion 7 [PASS] Laplace moments and KS against the analytic CDF")

    # bias-correction invariants
    for _ in range(200):
        k = int(rng.integers(1, 7))
        beta = rng.standard_normal(k)
        n = int(rng.integers(2, 5000))
        r_lo, r_hi = sorted(rng.uniform(0.01, 0.5, 2))
        s_lo = dp.bias_correction(beta, r_lo, n)
        s_hi = dp.bias_correction(beta, r_hi, n)
        assert np.all(s_lo >= 0) and s_lo[np.argmax(beta)] == 0.0
        assert np.all(s_lo >= s_hi - 1e-15)
        assert np.array_equal(dp.bias_correction(beta, 0.5, n), np.zeros(k))
        full = dp.bias_correction(beta, dp.FULL_CORRECTION, n)
        assert np.allclose(full, beta.max() - beta)
    print("criterion 7 [PASS] correction-shift invariants (sign, argmax, monotone in r)")

    # quantile agrees with a sort-and-index oracle on 1000 random vectors
    for _ in range(1000):
        size = int(rng.integers(1, 300))
        values = rng.standard_normal(size)
        p = float(rng.uniform(0.01, 0.99))
        idx = min(max(math.ceil(p * (size + 1)), 1), size)
        assert dp.quantile(values, p) == sorted(values)[idx - 1]
    print("criterion 7 [PASS] quantile equals the sort oracle on 1000 vectors")

    # lower-limit arithmetic identity
    x = rng.standard_normal((300, 3))
    est = dp.gaussian_private_mle(dp.GaussianData(x, dp.Bounds.symmetric(4.0, 3)), 1.5, rng)
    res = dp.ppb_lower_limit(est, 0.1, rng, B=500)
    assert res.lower_limit + res.c_alpha / math.sqrt(est.sizes[0]) == pytest.approx(
        est.betas[0].max(), abs=1e-15
    )
    print("criterion 7 [PASS] lower limit + c_alpha / sqrt(n) reproduces the estimate")

    # ledger composition totals; cross-validation touches each record in v of
    # its 2v fold releases, so it costs v times one estimation's total
    ledger = dp.PrivacyLedger().charge("a", 1.0).charge("b", 0.5)
    assert ledger.total() == 1.5
    cv = dp.cv_choose_r(
        dp.GaussianData(x, dp.Bounds.symmetric(4.0, 3)), 1.5, np.random.default_rng(77),
        dp.CVConfig(folds=5, b_inner=60),
    )
    assert cv.budget == 5 * est.ledger.total() == 7.5
    reversed_ledger = dp.PrivacyLedger().charge("b", 0.5).charge("a", 1.0)
    assert reversed_ledger.total() == ledger.total()
    print("criterion 7 [PASS] ledger totals, cross-validation at v epsilon, and order independence")

    # released-surface audit and sufficient-statistic reduction
    x1, x2 = rng.standard_normal((200, 2)), rng.standard_normal((200, 2)) + 5.0
    assert_nuisance_unreleased(x1, x2, 3.0, tmp_path)
    partial = dp.partial_gaussian_private_mle(
        dp.GaussianData(x1, dp.Bounds.symmetric(3.0, 2)), 1.5, rng
    )
    assert np.array_equal(partial.noisy_sums[0] / partial.sizes[0], partial.betas[0])
    print("criterion 7 [PASS] nuisance audit of the released surface and noisy-statistic reduction")

    elapsed = time.perf_counter() - start
    _check_upper(7, "property-suite runtime (s)", elapsed, 60.0)


def test_criterion_8_cross_validated_choice(separated_report):
    """cv-chosen r stays in the grid and covers like the table's cv row."""
    config = load_config(CONFIG_DIR / "gaussian_k2_separated.ini")
    rng = np.random.default_rng(1808)
    x = np.array([0.0, 1.0]) + rng.standard_normal((200, 2))
    data = dp.GaussianData(x, dp.Bounds.centered([0.0, 1.0], 2.8))
    first = dp.cv_choose_r(data, 1.5, np.random.default_rng(31), dp.CVConfig(b_inner=100))
    second = dp.cv_choose_r(data, 1.5, np.random.default_rng(31), dp.CVConfig(b_inner=100))
    in_grid = first.chosen_rs[0] in first.grid and first.chosen_rs[0] == second.chosen_rs[0]
    print(f"criterion 8 [{'PASS' if in_grid else 'FAIL'}] chosen r {first.chosen_rs[0]:g} "
          "in grid and seed-stable")
    assert in_grid
    row = separated_report.find("ppb", r="cv")
    _check(8, "cv-tuned coverage", row.coverage, 0.947 - 3 * row.coverage_se, 0.947 + 3 * row.coverage_se)
