"""Mean and median, two-cluster 1-D k-means and the two-tailed Fisher
exact test."""

import random
import statistics

import pytest
from hypothesis import example, given, strategies as st

from annodiff.errors import AnnodiffError
from annodiff.stats import fisher_exact_two_tailed, kmeans_1d, mean, median
from oracles import (
    best_threshold_wcss,
    cluster_means,
    exact_threshold_wcss,
    fisher_exact_fraction,
    wcss_of_assignment,
)


# the program computes these without importing statistics; the tests hold
# them to it. Magnitudes stay below 1e300, so no partial sum overflows.
numbers = st.one_of(st.floats(-1e300, 1e300), st.integers(-10**6, 10**6))


@given(st.lists(numbers, min_size=1, max_size=40))
@example([0.1])
@example([0.1, 0.2, 0.3])
@example([0.1, 0.2, 0.3, 0.4])
@example([1e100, 1.0, -1e100])
def test_mean_is_fmean(values):
    expected = repr(statistics.fmean(values))
    assert repr(mean(values)) == expected
    assert repr(mean(iter(values))) == expected
    assert repr(mean(v for v in values)) == expected


@given(st.lists(numbers, min_size=1, max_size=40))
@example([3])
@example([1, 3])
@example([2.5, 1.0, 4.0])
@example([2.5, 1.0, 4.0, 0.5])
def test_median_is_statistics_median(values):
    assert repr(median(values)) == repr(statistics.median(values))


def test_kmeans_symmetric_split():
    values = [0.0, 0.0, 10.0, 10.0]
    result = kmeans_1d(values)
    assert result.labels == (0, 0, 1, 1)
    assert cluster_means(values, result.labels) == (0.0, 10.0)


def test_kmeans_wide_gap():
    values = [0.3, 0.4, 2.5, 2.6]
    result = kmeans_1d(values)
    assert result.labels == (0, 0, 1, 1)
    assert cluster_means(values, result.labels) == pytest.approx((0.35, 2.55))


def test_kmeans_three_values():
    # both contiguous splits of {1,2,3} have equal cost; among tied splits
    # the larger lower cluster wins, so 2 goes to the lower cluster
    values = [1.0, 2.0, 3.0]
    result = kmeans_1d(values)
    assert result.labels == (0, 0, 1)
    assert cluster_means(values, result.labels) == (1.5, 3.0)
    assert kmeans_1d([0.0, 0.0, 1.0, 2.0, 2.0]).labels == (0, 0, 0, 1, 1)


def test_kmeans_labels_follow_input_order():
    result = kmeans_1d([10.0, 0.0, 10.0, 0.0])
    assert result.labels == (1, 0, 1, 0)


def test_kmeans_escapes_poor_local_minimum():
    # {0, ..., 0, 10} | {20} is a local minimum of 2-means (each value is
    # nearest its own cluster's mean), but the optimal contiguous split
    # keeps the zeros together; the larger crowd is above 10,000 values
    for crowd in (8, 10_399):
        values = [0.0] * crowd + [10.0, 20.0]
        result = kmeans_1d(values)
        assert result.labels == (0,) * crowd + (1, 1)
        assert wcss_of_assignment(values, result.labels) == pytest.approx(50.0)


def _skewed_scores(rng):
    # a crowd of low scores, a small mode just above it and a rare top mode:
    # keeping the small mode with the crowd is a local minimum of 2-means
    # with about twice the optimal cost
    def draw():
        u = rng.random()
        centre, spread = (0.3, 0.05) if u < 0.965 else (1.2, 0.05) if u < 0.995 else (2.8, 0.1)
        return min(3.0, max(0.0, rng.gauss(centre, spread)))

    return [draw() for _ in range(rng.randint(10_001, 12_000))]


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_optimal_on_large_skewed_populations(seed):
    values = _skewed_scores(random.Random(seed))
    result = kmeans_1d(values)
    optimum = float(exact_threshold_wcss(values))
    assert wcss_of_assignment(values, result.labels) <= optimum * (1 + 1e-9)


@pytest.mark.parametrize("scale", [2.0**-40, 2.0**40])
def test_kmeans_labels_ignore_power_of_two_scale(scale):
    rng = random.Random(77)
    cases = [[0.0] * 8 + [10.0, 20.0], [1.0, 2.0, 3.0], [0.4, 0.8, 1.2], [0.0, 0.0, 1.0, 2.0, 2.0]]
    cases += [[rng.uniform(0.0, 3.0) for _ in range(rng.randint(2, 40))] for _ in range(200)]
    for values in cases:
        assert kmeans_1d([v * scale for v in values]).labels == kmeans_1d(values).labels, values


@pytest.mark.parametrize("shift", [100.0, -1e4])
def test_kmeans_labels_ignore_shift(shift):
    # the tie slack scales with the spread of the values, not with their
    # distance from zero, so a far-off run is split like one near zero
    assert kmeans_1d([100.0, 100.0002, 100.00021]).labels == (0, 1, 1)
    assert kmeans_1d([7e153, 7.01e153, 7.02e153]).labels == (0, 0, 1)
    rng = random.Random(78)
    cases = [[0.0] * 8 + [10.0, 20.0], [1.0, 2.0, 3.0], [0.4, 0.8, 1.2], [0.0, 0.0, 1.0, 2.0, 2.0]]
    cases += [[rng.uniform(0.0, 3.0) for _ in range(rng.randint(2, 40))] for _ in range(200)]
    for values in cases:
        assert kmeans_1d([v + shift for v in values]).labels == kmeans_1d(values).labels, values


@pytest.mark.parametrize(
    "values",
    [
        [],
        [3.0],
        [5.0, 5.0, 5.0],
        [1.0, float("nan")],
        [1.0, float("inf")],
        [1.0, 1e200],
        [-3e152] * 1000 + [0.0] * 1001,  # deviations square to finite sums whose squares overflow
    ],
)
def test_kmeans_degenerate_inputs(values):
    with pytest.raises(AnnodiffError, match="^degenerate clustering: "):
        kmeans_1d(values)


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=60).filter(
        lambda vs: len(set(vs)) >= 2
    )
)
def test_kmeans_matches_exhaustive_threshold_optimum(values):
    result = kmeans_1d(values)
    assert set(result.labels) == {0, 1}
    achieved = wcss_of_assignment(values, result.labels)
    assert achieved <= best_threshold_wcss(values) + 1e-9
    # the split is contiguous in value: no low-cluster member exceeds a
    # high-cluster member
    low = [v for v, lab in zip(values, result.labels) if lab == 0]
    high = [v for v, lab in zip(values, result.labels) if lab == 1]
    assert max(low) <= min(high)
    # cluster 1 is the values above the cut, so it has the higher mean
    low_mean, high_mean = cluster_means(values, result.labels)
    assert low_mean < high_mean


# --- Fisher's exact test ---


def test_fisher_small_table():
    # 5 same-margin tables; those at least as extreme sum to 34/70
    assert fisher_exact_two_tailed(3, 1, 1, 3) == pytest.approx(34 / 70, abs=1e-12)


def test_fisher_perfect_separation():
    assert fisher_exact_two_tailed(0, 5, 5, 0) == pytest.approx(2 / 252, abs=1e-12)


# an empty table has four zero margins
@pytest.mark.parametrize("table", [(0, 0, 1, 2), (5, 0, 3, 0), (0, 4, 0, 9), (7, 11, 0, 0), (0, 0, 0, 0)])
def test_fisher_zero_margin_is_one(table):
    assert fisher_exact_two_tailed(*table) == 1.0


def test_fisher_outcome_tables():
    assert fisher_exact_two_tailed(31, 12, 13, 36) < 0.0001
    assert fisher_exact_two_tailed(13, 36, 10, 6) < 0.02
    assert fisher_exact_two_tailed(31, 12, 10, 6) > 0.5


@pytest.mark.parametrize(
    "table",
    [(1.5, 1, 1, 1), (-1, 2, 3, 4), (True, 1, 1, 1), ("2", 1, 1, 1)],
)
def test_fisher_rejects_bad_cells(table):
    with pytest.raises(ValueError):
        fisher_exact_two_tailed(*table)


cells = st.integers(min_value=0, max_value=12)


@given(a=cells, b=cells, c=cells, d=cells)
def test_fisher_matches_exact_enumeration(a, b, c, d):
    p = fisher_exact_two_tailed(a, b, c, d)
    assert abs(p - float(fisher_exact_fraction(a, b, c, d))) <= 1e-10
    assert 0.0 < p <= 1.0


@given(a=cells, b=cells, c=cells, d=cells)
def test_fisher_symmetries(a, b, c, d):
    p = fisher_exact_two_tailed(a, b, c, d)
    assert p == pytest.approx(fisher_exact_two_tailed(c, d, a, b), abs=1e-12)  # swap rows
    assert p == pytest.approx(fisher_exact_two_tailed(b, a, d, c), abs=1e-12)  # swap columns
    assert p == pytest.approx(fisher_exact_two_tailed(a, c, b, d), abs=1e-10)  # transpose


def test_fisher_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(8214)
    for _ in range(60):
        a, b, c, d = (rng.randint(0, 10) for _ in range(4))
        ours = fisher_exact_two_tailed(a, b, c, d)
        _, theirs = scipy_stats.fisher_exact([[a, b], [c, d]], alternative="two-sided")
        assert ours == pytest.approx(theirs, abs=1e-7)
