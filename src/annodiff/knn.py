"""Per-worker k-nearest-neighbor label prediction in three steps.

rank_by_similarity orders a worker's labeled tweets by similarity to a query,
as deep as the largest k needs; the caller counts the labels of the first
min(k, n) of them, and vote returns the labels that share the top count;
the caller settles a tie by a seeded draw. One ranking serves every k and
every hierarchy level. The grid (simulation._arm_curves) grows one count
per level over the ranking as k rises, in which a blank level (below
Irrelevant or Factual) counts as an explicit NoLabel class, and predicts a
whole label path by voting top-down (simulation.vote_path). It sums the
path_triple of each (truth, predicted) pair it scores into one (overlap,
predicted size, truth size) triple per neighbor count, and hierarchical_f1
scores that sum. The certainty component counts the labels of one level and
turns them into smoothed certainties instead of a vote.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Mapping, Sequence

from annodiff.labels import LABEL_ORDER, label_set


def rank_by_similarity(sims: Sequence[float], rng: random.Random, depth: int) -> list[int]:
    """The indices of the depth most similar items, by descending similarity.

    One stable sort puts equal similarities in index order; then each group
    of equal similarities is shuffled by the given rng, from the top down,
    until the group that holds rank depth is done. That settles which items
    make the cut when a tie spans it, and draws from the rng exactly as
    shuffling every group would up to that point, so the result is the
    prefix of the full ranking. The prefix of length k is the neighbor set
    for any k up to depth.
    """
    order = sorted(range(len(sims)), key=sims.__getitem__, reverse=True)
    end = min(max(depth, 0), len(order))
    i = 0
    while i < end:
        value = sims[order[i]]
        j = i + 1
        while j < len(order) and sims[order[j]] == value:
            j += 1
        if j - i > 1:
            group = order[i:j]
            rng.shuffle(group)
            order[i:j] = group
        i = j
    return order[:end]


def vote(counts: Mapping[str, int]) -> list[str]:
    """The labels that share the top neighbor count, in LABEL_ORDER.

    One label is a decided plurality vote; several are a tie, which the
    caller settles by a seeded draw among them in this order.
    """
    if len(counts) == 1:
        [(label, count)] = counts.items()
        if count >= 1:
            return [label]
    top = max(counts.values(), default=0)
    if top < 1:
        raise ValueError("cannot vote over zero labels")
    tied = [lab for lab, c in counts.items() if c == top]
    if len(tied) > 1:
        tied.sort(key=LABEL_ORDER.__getitem__)
    return tied


@cache  # the grid scores only a handful of distinct pairs
def path_triple(truth: tuple[str, ...], predicted: tuple[str, ...]) -> tuple[int, int, int]:
    """(overlap, predicted size, truth size) of one (truth, prediction) pair,
    each side a label path, the (level 1, level 2, level 3) tuple with
    NoLabel blanks, expanded to its ancestor-closed label set."""
    truth_set, predicted_set = label_set(truth), label_set(predicted)
    return len(truth_set & predicted_set), len(predicted_set), len(truth_set)


def hierarchical_f1(triple: Sequence[int]) -> float:
    """Micro-averaged hierarchical F1 of one summed (overlap, predicted size,
    truth size) triple, the path_triple sums over the scored pairs.

    Precision and recall are the overlap over each integer total, so a sum
    taken in any grouping gives the same float. Returns 0 when both are 0.
    """
    overlap, predicted_total, truth_total = triple
    if not truth_total:
        raise ValueError("cannot compute F1 over zero pairs")
    precision = overlap / predicted_total if predicted_total else 0.0
    recall = overlap / truth_total
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
