"""A statistical privacy audit of the Gaussian release as it runs.

``tests/test_neighbours.py`` checks each statistic's sensitivity, a property
of a function.  This audit checks the mechanism itself: it releases two
neighbouring data sets many times and bounds epsilon from below by how often
each release crosses a threshold (Jagielski, Ullman and Oprea, *Auditing
Differentially Private Machine Learning*, NeurIPS 2020).

The data sets have n = 20 rows of k = 1 coordinate in the box [-1, 1], and
the budget gives each statistic epsilon 0.5.  A neighbour pair shares 19
rows and differs in the last one.  Each side is released ``COPIES`` times by
one stacked ``GaussianStatistics.release``, from its own fixed seed.  The
threshold of each test is fixed in advance at the upper neighbour's exact
statistic.  For counts c_hi and c_lo of crossings,

    eps_lb = log(CP_lower(c_hi) / CP_upper(c_lo)),

with the two-sided 95 % Clopper-Pearson bounds of each count, so eps_lb is a
lower bound on the epsilon the release spends, with 95 % confidence.  It is
held against the epsilon of the release's own mechanism record:

* the sum's pair puts the last row at -1 and at +1, which attains its
  sensitivity 2, so eps_lb must be at least 0.8 times the record's epsilon
  (tightness) and not above it (soundness);
* the gram's pair puts it at 0 and at 1.  A record moves x^2 by at most 1,
  so the gram's declared sensitivity 2 is never attained and only soundness
  is tested.

The regression release, its rss, cross-validation and the mutation checks
are not audited yet.
"""

import math

import numpy as np
from scipy.stats import beta

from dpextrema.models import GaussianData, _map_additive, fold_statistics
from dpextrema.privacy import Bounds

COPIES = 1_000_000
BOUNDS = Bounds.symmetric(1.0, 1)
BUDGET = (0.5, 0.5)  # (sum, gram)
SHARED = np.linspace(-0.9, 0.9, 19)[:, None]  # the rows both neighbours hold


def clopper_pearson(count: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """The two-sided Clopper-Pearson interval of a binomial proportion."""
    tail = (1.0 - level) / 2.0
    lower = beta.ppf(tail, count, trials - count + 1) if count > 0 else 0.0
    upper = beta.ppf(1.0 - tail, count + 1, trials - count) if count < trials else 1.0
    return lower, upper


def released(last: float, seed: int, statistic: str):
    """The exact ``statistic`` of the shared rows plus ``last``, its
    ``COPIES`` released values from one stacked call, and its mechanism record."""
    stats = fold_statistics([GaussianData(np.vstack([SHARED, [[last]]]), BOUNDS)])
    copies = _map_additive(lambda a: np.repeat(a, COPIES, axis=0), stats)
    est = copies.release(BUDGET, np.random.default_rng(seed))
    exact, noisy = (stats.sums, est.noisy_sums) if statistic == "sum" else (stats.grams, est.noisy_grams)
    (record,) = (m for m in est.mechanisms if m.name == statistic)
    return float(exact.ravel()[0]), noisy.reshape(COPIES), record


def epsilon_lower_bound(hi: np.ndarray, lo: np.ndarray, threshold: float) -> float:
    """eps_lb of the event "above ``threshold``", more likely under ``hi``."""
    c_hi, c_lo = int(np.count_nonzero(hi > threshold)), int(np.count_nonzero(lo > threshold))
    return math.log(clopper_pearson(c_hi, hi.size)[0] / clopper_pearson(c_lo, lo.size)[1])


def audit(statistic: str, upper: float, lower: float, seeds: tuple[int, int]) -> tuple[float, float]:
    """eps_lb of one neighbour pair, thresholded at the upper neighbour's
    statistic, and the epsilon that both releases' records charge."""
    threshold, hi, record = released(upper, seeds[0], statistic)
    _, lo, lo_record = released(lower, seeds[1], statistic)
    assert record.epsilon == lo_record.epsilon == BUDGET[("sum", "gram").index(statistic)]
    return epsilon_lower_bound(hi, lo, threshold), record.epsilon


def test_the_sum_spends_its_epsilon_and_no_more():
    eps_lb, epsilon = audit("sum", 1.0, -1.0, seeds=(101, 102))
    assert 0.8 * epsilon <= eps_lb <= epsilon, eps_lb


def test_the_gram_spends_no_more_than_its_epsilon():
    eps_lb, epsilon = audit("gram", 1.0, 0.0, seeds=(201, 202))
    assert eps_lb <= epsilon, eps_lb
