"""Small statistics primitives: 1-D 2-means and Fisher's exact test.

Both are implemented here rather than pulled from a library because their
exact conventions matter downstream: the clustering must be the
variance-minimizing contiguous split with deterministic initialization, and
the exact test must use the point-probability definition of two-tailed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from annodiff.errors import DegenerateClusteringError

if TYPE_CHECKING:
    import numpy as np

_MAX_VERIFY = 10_000  # population cap for the exhaustive-threshold check


@dataclass(frozen=True)
class Clustering1D:
    centroids: tuple[float, float]  # ascending
    labels: tuple[int, ...]  # cluster index per input value, aligned with input order


def _threshold_wcss(sorted_vals: np.ndarray) -> tuple[float, int]:
    """Best within-cluster sum of squares over contiguous splits.

    Returns (wcss, i) where the lower cluster is sorted_vals[:i]. Only splits
    between distinct neighboring values are considered; an optimal split never
    needs to separate equal values.
    """
    import numpy as np

    n = len(sorted_vals)
    csum = np.cumsum(sorted_vals)
    csq = np.cumsum(sorted_vals**2)
    best = (math.inf, 1)
    for i in range(1, n):
        if sorted_vals[i - 1] == sorted_vals[i]:
            continue
        left = csq[i - 1] - csum[i - 1] ** 2 / i
        right = (csq[n - 1] - csq[i - 1]) - (csum[n - 1] - csum[i - 1]) ** 2 / (n - i)
        wcss = left + right
        if wcss < best[0]:
            best = (wcss, i)
    return best


def _wcss(values: np.ndarray, labels: np.ndarray) -> float:
    import numpy as np

    total = 0.0
    for cluster in (0, 1):
        members = values[labels == cluster]
        if len(members):
            total += float(np.sum((members - members.mean()) ** 2))
    return total


def kmeans_1d(values) -> Clustering1D:
    """Two-cluster 1-D k-means with deterministic extreme-point initialization.

    Lloyd iteration starting from (min, max); a value equidistant from both
    centroids goes to the lower one. Lloyd can stall in a suboptimal local
    minimum on skewed inputs, so for populations up to 10,000 the result is
    checked against exhaustive threshold enumeration and replaced by the
    optimal contiguous split when it loses.

    Raises DegenerateClusteringError when fewer than two distinct values are
    given.
    """
    # imported here so that commands which never cluster skip numpy's import
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if len(np.unique(arr)) < 2:
        raise DegenerateClusteringError("degenerate clustering: need at least two distinct values")

    lo, hi = float(arr.min()), float(arr.max())
    centroids = np.array([lo, hi])
    labels: np.ndarray | None = None
    for _step in range(1000):
        dist0 = np.abs(arr - centroids[0])
        dist1 = np.abs(arr - centroids[1])
        new_labels = (dist1 < dist0).astype(int)  # ties go to the lower centroid
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in (0, 1):
            members = arr[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean()
    assert labels is not None

    if len(arr) <= _MAX_VERIFY:
        sorted_vals = np.sort(arr)
        best_wcss, split = _threshold_wcss(sorted_vals)
        if best_wcss < _wcss(arr, labels) - 1e-12:
            boundary = sorted_vals[split - 1]
            labels = (arr > boundary).astype(int)

    means = sorted(float(arr[labels == cluster].mean()) for cluster in (0, 1))
    # relabel so cluster 0 is the lower-centroid cluster regardless of the
    # path that produced the assignment
    lower = min((0, 1), key=lambda cluster: float(arr[labels == cluster].mean()))
    final = tuple(0 if lab == lower else 1 for lab in labels)
    return Clustering1D(centroids=(means[0], means[1]), labels=final)


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
    if n == 0:
        raise ValueError("empty table")
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
