"""Small statistics primitives: mean, median, 1-D 2-means, Fisher's exact test.

They are implemented here rather than pulled from a library because their
exact conventions matter downstream: the clustering must be the optimal
contiguous split with a fixed tie rule, and the exact test must use the
point-probability definition of two-tailed. mean and median give the floats
of statistics.fmean and statistics.median, which imports fractions and decimal.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from annodiff.errors import DegenerateClusteringError


def mean(values) -> float:
    """The correctly rounded sum of one or more values over their count."""
    values = list(values)
    return math.fsum(values) / len(values)


def median(values):
    """The middle of one or more sorted values, or the halved sum of the middle two."""
    ordered = sorted(values)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


class Clustering1D(NamedTuple):
    centroids: tuple[float, float]  # ascending
    labels: tuple[int, ...]  # cluster index per input value, aligned with input order


def kmeans_1d(values) -> Clustering1D:
    """Exact two-cluster 1-D k-means by one scan over threshold splits.

    An optimal 1-D 2-means split cuts the sorted values into a lower and an
    upper run. Every cut between distinct neighbors is scored by its
    within-cluster sum of squares (WCSS) from prefix sums of the deviations
    from the median and of their squares, which stay as small as the spread.
    Costs within 1e-12 times the summed squared deviations (at most twice the
    total WCSS) of the least count as tied, so what ties does not depend on
    the offset or the scale of the values; the larger lower cluster wins.

    Raises DegenerateClusteringError on fewer than two distinct values, on a
    value that is not finite, or when the squared deviations overflow.
    """
    vals = [float(v) for v in values]
    if not all(map(math.isfinite, vals)):
        raise DegenerateClusteringError("degenerate clustering: values must be finite")
    ordered = sorted(vals)
    n = len(ordered)
    splits = [i for i in range(1, n) if ordered[i - 1] < ordered[i]]
    if not splits:
        raise DegenerateClusteringError("degenerate clustering: need at least two distinct values")
    median = ordered[n // 2]
    deviations = [v - median for v in ordered]
    sums = list(accumulate(deviations, initial=0.0))
    squares = list(accumulate((d * d for d in deviations), initial=0.0))
    total, total_sq = sums[n], squares[n]

    def wcss(i: int) -> float:  # lower cluster is ordered[:i]
        lower, upper = sums[i], total - sums[i]
        return squares[i] - lower * lower / i + (total_sq - squares[i]) - upper * upper / (n - i)

    costs = {i: wcss(i) for i in splits}
    if not all(map(math.isfinite, costs.values())):
        raise DegenerateClusteringError("degenerate clustering: the squared deviations overflow")
    least = min(costs.values())
    split = max(i for i, cost in costs.items() if cost <= least + 1e-12 * total_sq)

    boundary = ordered[split - 1]
    centroids = (median + sums[split] / split, median + (total - sums[split]) / (n - split))
    return Clustering1D(centroids=centroids, labels=tuple(int(v > boundary) for v in vals))


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact_two_tailed(a: int, b: int, c: int, d: int) -> float:
    """Two-tailed Fisher's exact test for a 2x2 table ((a, b), (c, d)).

    Point-probability definition: the p-value is the total probability of all
    same-margin tables whose hypergeometric probability does not exceed the
    observed table's. Probabilities are computed in log space; a relative
    slack of 1e-7 absorbs floating-point noise when deciding ties.

    Returns 1.0 when any margin is zero, where the table carries no evidence.
    """
    for v in (a, b, c, d):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"cell counts must be non-negative integers, got {(a, b, c, d)}")
    r1, r2 = a + b, c + d
    c1, c2 = a + c, b + d
    n = r1 + r2
    if min(r1, r2, c1, c2) == 0:
        return 1.0

    denom = _log_choose(n, c1)

    def log_p(x: int) -> float:
        return _log_choose(r1, x) + _log_choose(r2, c1 - x) - denom

    observed = log_p(a)
    total = 0.0
    for x in range(max(0, c1 - r2), min(r1, c1) + 1):
        lp = log_p(x)
        if lp <= observed + 1e-7:
            total += math.exp(lp)
    return min(total, 1.0)
