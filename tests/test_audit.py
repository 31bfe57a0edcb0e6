"""A statistical privacy audit of the Gaussian and regression releases as they run.

``tests/test_neighbours.py`` checks each statistic's sensitivity, a property
of a function.  This audit checks the mechanism itself: it releases two
neighbouring data sets many times and bounds epsilon from below by how often
each release crosses a threshold (Jagielski, Ullman and Oprea, *Auditing
Differentially Private Machine Learning*, NeurIPS 2020).

A neighbour pair shares all rows but the last.  Each side is released
``COPIES`` times by one stacked ``release``, from its own fixed seed.  The
threshold of each test is fixed in advance at the upper neighbour's exact
statistic, its release with no noise.  For counts c_hi and c_lo of crossings,

    eps_lb = log(CP_lower(c_hi) / CP_upper(c_lo)),

with the two-sided 95 % Clopper-Pearson bounds of each count, so eps_lb is a
lower bound on the epsilon the release spends, with 95 % confidence.  It is
held against the epsilon of the release's own mechanism record, and every
other statistic of the release is given an infinite budget, so no noise:

* the Gaussian sets have n = 20 rows of k = 1 coordinate in the box [-1, 1].
  The sum's pair puts the last row at -1 and at +1, which attains its
  sensitivity 2, so eps_lb must be at least 0.8 times the record's epsilon
  (tightness) and not above it (soundness).  The gram's pair puts it at 0
  and at 1.  A record moves x^2 by at most 1, so the gram's declared
  sensitivity 2 is never attained and only soundness is tested;
* the regression sets have one design column and the response in the box
  [-1, 1].  X^T y's pair ends in (1, 1) and (-1, 1), which attains its
  sensitivity 2 (tightness).  The gram's pair ends in (1, 0) and (0, 0), a
  move of 1 against the declared 2 (soundness).  Both share 199 rows on
  the line y = 0.5 x, n = 200 so that no noisy gram of the copies is
  irreparably singular.  The rss's pair shares 20 rows whose X^T y is 0
  and ends in (0, 1) and (0, 0): the coefficients are exact and equal on
  both sides, so is the rss noise scale m_y^2 / dof, and rss / dof moves by
  exactly that (tightness).

Cross-validation and the mutation checks are not audited yet.  No release
reads a nuisance column, so the rss case covers every regression release.
"""

import math

import numpy as np
from scipy.stats import beta

from dpextrema.models import GaussianData, RegressionData, _map_additive, fold_statistics
from dpextrema.privacy import Bounds

COPIES = 1_000_000
BOUNDS = Bounds.symmetric(1.0, 1)
SHARED = np.linspace(-0.9, 0.9, 19)[:, None]  # the rows both Gaussian neighbours hold
LINE = np.resize([0.9, -0.9], 199)  # the design both regression neighbours hold, with y = 0.5 x
#: the released values of each audited statistic, by its mechanism's name
NOISY = {"sum": "noisy_sums", "gram": "noisy_grams", "xty": "noisy_xtys", "rss": "sigma2s"}


def clopper_pearson(count: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """The two-sided Clopper-Pearson interval of a binomial proportion."""
    tail = (1.0 - level) / 2.0
    lower = beta.ppf(tail, count, trials - count + 1) if count > 0 else 0.0
    upper = beta.ppf(1.0 - tail, count + 1, trials - count) if count < trials else 1.0
    return lower, upper


def gaussian(last: float) -> GaussianData:
    return GaussianData(np.vstack([SHARED, [[last]]]), BOUNDS)


def regression(x: np.ndarray, y: np.ndarray, last: tuple[float, float]) -> RegressionData:
    return RegressionData(np.append(x, last[0])[:, None], np.append(y, last[1]), BOUNDS, BOUNDS)


def released(data, budget: tuple[float, ...], seed: int, statistic: str):
    """The exact ``statistic`` of ``data``, its ``COPIES`` released values
    from one stacked call, and its mechanism record."""
    stats = fold_statistics([data])
    exact = getattr(stats.release((math.inf,) * len(budget), np.random.default_rng(0)), NOISY[statistic])
    copies = _map_additive(lambda a: np.repeat(a, COPIES, axis=0), stats)
    est = copies.release(budget, np.random.default_rng(seed))
    (record,) = (m for m in est.mechanisms if m.name == statistic)
    return float(exact.ravel()[0]), getattr(est, NOISY[statistic]).reshape(COPIES), record


def epsilon_lower_bound(hi: np.ndarray, lo: np.ndarray, threshold: float) -> float:
    """eps_lb of the event "above ``threshold``", more likely under ``hi``."""
    c_hi, c_lo = int(np.count_nonzero(hi > threshold)), int(np.count_nonzero(lo > threshold))
    return math.log(clopper_pearson(c_hi, hi.size)[0] / clopper_pearson(c_lo, lo.size)[1])


def audit(statistic: str, upper, lower, budget: tuple[float, ...], seeds: tuple[int, int]) -> tuple[float, float]:
    """eps_lb of one neighbour pair, thresholded at the ``upper`` neighbour's
    statistic, and the epsilon that both releases' records charge, each
    with the same noise scale."""
    threshold, hi, record = released(upper, budget, seeds[0], statistic)
    _, lo, lo_record = released(lower, budget, seeds[1], statistic)
    assert record.epsilon == lo_record.epsilon == min(budget)  # its share, no other statistic's is smaller
    assert np.array_equal(record.scale, lo_record.scale)
    return epsilon_lower_bound(hi, lo, threshold), record.epsilon


def test_the_sum_spends_its_epsilon_and_no_more():
    eps_lb, epsilon = audit("sum", gaussian(1.0), gaussian(-1.0), (0.5, 0.5), seeds=(101, 102))
    assert 0.8 * epsilon <= eps_lb <= epsilon, eps_lb


def test_the_gram_spends_no_more_than_its_epsilon():
    eps_lb, epsilon = audit("gram", gaussian(1.0), gaussian(0.0), (0.5, 0.5), seeds=(201, 202))
    assert eps_lb <= epsilon, eps_lb


def test_the_regression_xty_spends_its_epsilon_and_no_more():
    pair = (regression(LINE, 0.5 * LINE, last) for last in ((1.0, 1.0), (-1.0, 1.0)))
    eps_lb, epsilon = audit("xty", *pair, (math.inf, 0.5, math.inf), seeds=(301, 302))
    assert 0.8 * epsilon <= eps_lb <= epsilon, eps_lb


def test_the_regression_gram_spends_no_more_than_its_epsilon():
    pair = (regression(LINE, 0.5 * LINE, last) for last in ((1.0, 0.0), (0.0, 0.0)))
    eps_lb, epsilon = audit("gram", *pair, (0.5, math.inf, math.inf), seeds=(401, 402))
    assert eps_lb <= epsilon, eps_lb


def test_the_regression_rss_spends_its_epsilon_and_no_more():
    # X^T y = 0, so the coefficients are 0 and the rss is y^T y, 6 or 5 over 20 dof
    x, y = np.repeat([-0.9, -0.3, 0.3, 0.9], 5), np.repeat([0.5, -0.5, -0.5, 0.5], 5)
    pair = (regression(x, y, last) for last in ((0.0, 1.0), (0.0, 0.0)))
    eps_lb, epsilon = audit("rss", *pair, (math.inf, math.inf, 0.5), seeds=(501, 502))
    assert 0.8 * epsilon <= eps_lb <= epsilon, eps_lb
