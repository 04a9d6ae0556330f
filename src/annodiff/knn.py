"""Per-worker k-nearest-neighbor label prediction in three steps.

descending sorts a query's similarity row once; rank_by_similarity reads
that order, or a subsequence of it (the same order over a subset of the
row), lazily and only as deep as the largest k needs; the caller counts
the labels of the first min(k, n), and vote returns the labels that share
the top count; the caller settles a tie by a seeded draw. The grid
(simulation.worker_triples) ranks each training prefix of a query from one
sort, grows one count per level over the ranking as k rises, in which a
blank level (below Irrelevant or Factual) counts as an explicit NoLabel
class, and predicts a whole label path by voting top-down
(simulation.vote_path). It sums the path_triple of each (truth, predicted)
pair it scores into one (overlap, predicted size, truth size) triple per
neighbor count, and hierarchical_f1 scores that sum. The certainty
component ranks each level's pool from one sort per test tweet and turns
a level's counts into smoothed certainties instead of a vote.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Iterable, Mapping, Sequence

from annodiff.labels import LABEL_ORDER, NO_LABEL


def descending(sims: Sequence[float]) -> list[int]:
    """The indices of sims by descending similarity, equal ones in index order."""
    return sorted(range(len(sims)), key=sims.__getitem__, reverse=True)


def rank_by_similarity(sims: Sequence[float], candidates: Iterable[int], rng: random.Random, depth: int) -> list[int]:
    """The depth most similar of the candidates, by descending similarity.

    candidates are indices into sims in descending's order, or a
    subsequence of it. They are read lazily, one group of equal similarities
    at a time, up to one candidate past the group that holds rank depth,
    and each group read is shuffled by the given rng, from the top down.
    That settles which items make the cut when a tie spans it, and draws
    from the rng exactly as shuffling every group would up to that point,
    so the result is the prefix of the full ranking. The prefix of length k
    is the neighbor set for any k up to depth.
    """
    order: list[int] = []
    if depth < 1:
        return order
    candidates = iter(candidates)
    head = next(candidates, None)
    while head is not None and len(order) < depth:
        value = sims[head]
        group = [head]
        head = None
        for index in candidates:
            if sims[index] != value:
                head = index
                break
            group.append(index)
        if len(group) > 1:
            rng.shuffle(group)
        order += group
    return order[:depth]


def vote(counts: Mapping[str, int]) -> list[str]:
    """The labels that share the top neighbor count, in LABEL_ORDER.

    One label is a decided plurality vote; several are a tie, which the
    caller settles by a seeded draw among them in this order. The grid
    builds counts by +1 increments over at least one neighbor, so they hold
    at least one label and every count is at least 1.
    """
    if len(counts) == 1:
        return list(counts)
    top = max(counts.values())
    tied = [lab for lab, c in counts.items() if c == top]
    if len(tied) > 1:
        tied.sort(key=LABEL_ORDER.__getitem__)
    return tied


@cache  # the grid scores only a handful of distinct pairs
def path_triple(truth: tuple[str, ...], predicted: tuple[str, ...]) -> tuple[int, int, int]:
    """(overlap, predicted size, truth size) of one (truth, prediction) pair,
    each side a label path, the (level 1, level 2, level 3) tuple with
    NoLabel blanks. A label path is ancestor-closed already, so its label
    set is its labels other than NoLabel."""
    truth_set, predicted_set = set(truth) - {NO_LABEL}, set(predicted) - {NO_LABEL}
    return len(truth_set & predicted_set), len(predicted_set), len(truth_set)


def hierarchical_f1(triple: Sequence[int]) -> float:
    """Micro-averaged hierarchical F1 of one summed (overlap, predicted size,
    truth size) triple, the path_triple sums over the scored pairs.

    Precision and recall are the overlap over each integer total, so a sum
    taken in any grouping gives the same float. Returns 0 when both are 0.
    Both totals are positive: the grid sums at least one pair, and every
    label path of either side holds a level-1 label.
    """
    overlap, predicted_total, truth_total = triple
    precision = overlap / predicted_total
    recall = overlap / truth_total
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
