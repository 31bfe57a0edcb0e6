"""Each released statistic moves by at most the sensitivity its release declares.

For the sum and the gram of the Gaussian release, and the gram, X^T y and
the residual mean square of the regression release, one record of a data set
is replaced by another: a box corner, or a point anywhere, which the clamp
brings into the box.  The L1 distance between the two data sets' statistics,
as ``fold_statistics`` forms them, must not exceed delta read from the
release's own record of that statistic.  The gram's distance is the L1 norm
of the full matrix, so every mirrored off-diagonal pair counts twice, as
``sensitivity_gram_bounded`` states.  The residual mean square rss / dof is
released after the coefficients, whose released values calibrate its delta,
so both neighbours' residuals are taken at the coefficients released from
the first data set.

The residual mean square with a nuisance block W is left out on purpose: its
declared sensitivity takes a record's nuisance fit to be at most the response
magnitude, which is assumed, not enforced (the residual-sensitivity item of
ROADMAP.md).
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpextrema.models import GaussianData, RegressionData, fold_statistics
from dpextrema.privacy import Bounds

#: Relative slack for the rounding of sums of a few dozen products.  rss =
#: y^T y - 2 beta^T X^T y + beta^T X^T X beta cancels: each of its three terms
#: may reach n m^2, where m^2 is one record's largest squared residual and
#: delta * dof, and each is a sum of about n + k rounded products.  So the two
#: rss differ from their exact values by at most about 8 n (n + k + 2) 2^-53
#: of delta * dof: 3.5e-13 at the largest data set drawn (n = 17, k = 4).
ROUNDING = 1e-12


def gaussian_distances(x, x_prime, bounds):
    """L1 distances of the sum and the gram, and the deltas the release declares."""
    stats, other = (fold_statistics([GaussianData(rows, bounds)]) for rows in (x, x_prime))
    sum_noise, gram_noise = stats.release(math.inf, None).mechanisms
    return (
        (np.abs(stats.sums - other.sums).sum(), sum_noise.sensitivity),
        (np.abs(stats.grams - other.grams).sum(), gram_noise.sensitivity),
    )


def regression_distances(xy, xy_prime, x_bounds, y_bounds):
    """L1 distances of X^T X and X^T y, and the deltas the release declares."""
    stats, other = (
        fold_statistics([RegressionData(rows[:, :-1], rows[:, -1], x_bounds, y_bounds)])
        for rows in (xy, xy_prime)
    )
    gram_noise, xty_noise, _ = stats.release(math.inf, None).mechanisms
    return (
        (np.abs(stats.xtx - other.xtx).sum(), gram_noise.sensitivity),
        (np.abs(stats.xty - other.xty).sum(), xty_noise.sensitivity),
    )


def rss_distance(xy, xy_prime, x_bounds, y_bounds):
    """How far rss / dof moves at the coefficients released from ``xy``, and the delta the release declares."""
    stats, other = (
        fold_statistics([RegressionData(rows[:, :-1], rows[:, -1], x_bounds, y_bounds)])
        for rows in (xy, xy_prime)
    )
    estimate = stats.release(math.inf, None)
    beta, every, dof = estimate.betas, slice(None), stats.n - (stats.min_rows - 1)
    moved = np.abs(stats._rss(beta, every) - other._rss(beta, every)) / dof
    return [(moved[0], estimate.mechanisms[2].sensitivity[0])]


def assert_within(pairs):
    for distance, delta in pairs:
        assert distance <= delta * (1.0 + ROUNDING), (distance, delta)


@st.composite
def neighbours(draw, width_extra=0):
    """A box, a data set inside it, and the data set with one record replaced.

    ``width_extra`` adds columns beyond the box's (the response of regression
    carries its own box, drawn the same way).
    """
    k = draw(st.integers(1, 4)) + width_extra
    ends = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
    lo, up = np.sort(np.array([[draw(ends), draw(ends)] for _ in range(k)]), axis=1).T
    up = np.maximum(up, lo + 0.25)  # wide enough that the design has full rank
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 3 * k + 2
    rows = rng.uniform(lo, up, (n, k))
    j = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        corner = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        replacement = np.where(corner, up, lo)
    else:
        replacement = np.array([draw(st.floats(-1e3, 1e3)) for _ in range(k)])
    other = rows.copy()
    other[j] = replacement
    return rows, other, lo, up


class TestGaussianRelease:
    @settings(max_examples=300, deadline=None)
    @given(neighbours())
    def test_sum_and_gram_move_within_their_declared_sensitivity(self, case):
        rows, other, lo, up = case
        assert_within(gaussian_distances(rows, other, Bounds(lo, up)))

    def test_every_corner_pair(self):
        # rows at every corner of an off-centre box, each replaced by every corner
        lo, up = np.array([-1.0, 0.5, -3.0]), np.array([2.0, 4.0, -1.0])
        corners = np.array(list(itertools.product(*zip(lo, up))))
        rows = np.vstack([corners, corners])
        for j, corner in itertools.product(range(len(corners)), corners):
            other = rows.copy()
            other[j] = corner
            assert_within(gaussian_distances(rows, other, Bounds(lo, up)))


class TestRegressionRelease:
    @settings(max_examples=300, deadline=None)
    @given(neighbours(width_extra=1))
    def test_gram_and_xty_move_within_their_declared_sensitivity(self, case):
        rows, other, lo, up = case
        x_bounds, y_bounds = Bounds(lo[:-1], up[:-1]), Bounds(lo[-1:], up[-1:])
        assert_within(regression_distances(rows, other, x_bounds, y_bounds))

    def test_every_corner_pair(self):
        lo, up = np.array([-1.0, 0.5, -2.0]), np.array([2.0, 4.0, 5.0])
        corners = np.array(list(itertools.product(*zip(lo, up))))
        rng = np.random.default_rng(3)
        rows = np.vstack([corners, rng.uniform(lo, up, (6, 3))])
        x_bounds, y_bounds = Bounds(lo[:2], up[:2]), Bounds(lo[2:], up[2:])
        for j, corner in itertools.product(range(len(corners)), corners):
            other = rows.copy()
            other[j] = corner
            assert_within(regression_distances(rows, other, x_bounds, y_bounds))

    @settings(max_examples=300, deadline=None)
    @given(neighbours(width_extra=1))
    def test_rss_without_nuisance_moves_within_its_declared_sensitivity(self, case):
        rows, other, lo, up = case
        x_bounds, y_bounds = Bounds(lo[:-1], up[:-1]), Bounds(lo[-1:], up[-1:])
        assert_within(rss_distance(rows, other, x_bounds, y_bounds))

    def test_rss_without_nuisance_reaches_its_declared_sensitivity(self):
        # records on the line y = X beta leave no residual; the corner farthest
        # from the line leaves (m_y + sum_j m_j |beta_j|)^2, which is delta * dof
        lo, up = np.array([-1.0, -1.0, -3.0]), np.array([1.0, 1.0, 3.0])
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (10, 2))
        rows = np.column_stack([x, x @ [0.5, -1.0]])
        x_bounds, y_bounds = Bounds(lo[:2], up[:2]), Bounds(lo[2:], up[2:])
        ratios = []
        for corner in itertools.product(*zip(lo, up)):
            other = rows.copy()
            other[0] = corner
            pairs = rss_distance(rows, other, x_bounds, y_bounds)
            assert_within(pairs)
            ratios.append(pairs[0][0] / pairs[0][1])
        assert max(ratios) > 1.0 - 1e-9
