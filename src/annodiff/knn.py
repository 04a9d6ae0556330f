"""Per-worker k-nearest-neighbor label prediction in three steps.

rank_by_similarity orders a worker's labeled tweets by similarity to a query,
prefix_counts counts the labels of the first min(k, n) of them for each k,
and vote picks the plurality label from those counts. One ranking serves
every k and every hierarchy level. The grid predicts a whole label path this
way, one vote per level over rows in which a blank level (below Irrelevant or
Factual) counts as an explicit NoLabel class, and coerce_structure makes the
voted path structurally coherent. The certainty component counts the labels
of one level and turns them into smoothed certainties instead of a vote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from annodiff.labels import (
    FACTUAL,
    IRRELEVANT,
    LABEL_ORDER,
    NO_LABEL,
    LabelPath,
    label_set,
)


@dataclass(frozen=True)
class PredictedPath:
    """Predicted labels for all three levels; blanks are NoLabel."""

    level1: str
    level2: str
    level3: str

    def label(self, level: int) -> str:
        return (self.level1, self.level2, self.level3)[level - 1]


def rank_by_similarity(sims: Sequence[float], rng: random.Random) -> list[int]:
    """Indices ordered by descending similarity.

    Equal similarities are shuffled by the given rng, which settles which
    examples make the cut when a tie spans the k-th rank. The prefix of
    length k is the neighbor set for any k.
    """
    order = sorted(range(len(sims)), key=lambda i: -sims[i])
    out: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and sims[order[j]] == sims[order[i]]:
            j += 1
        group = order[i:j]
        if len(group) > 1:
            rng.shuffle(group)
        out.extend(group)
        i = j
    return out


def prefix_counts(
    order: Sequence[int], rows: Sequence[Sequence[str]], ks: Sequence[int]
) -> Iterator[tuple[int, list[dict[str, int]]]]:
    """Per-row label counts over growing prefixes of a neighbor ranking.

    order is a ranking from rank_by_similarity; each row holds one label per
    ranked item, indexed like the similarities that were ranked. For each
    distinct k of ks in ascending order, yields (k, counts), where counts[r]
    maps each label of rows[r] to how often it occurs among the first
    min(k, len(order)) neighbors; a k below 1 counts none. The mappings grow
    in place from one k to the next, so read them before advancing.
    """
    counts: list[dict[str, int]] = [{} for _ in rows]
    tallies = list(zip(rows, counts))
    depth = 0
    for k in sorted(set(ks)):
        end = min(k, len(order))
        if end > depth:
            for i in order[depth:end]:
                for row, row_counts in tallies:
                    label = row[i]
                    row_counts[label] = row_counts.get(label, 0) + 1
            depth = end
        yield k, counts


def vote(counts: Mapping[str, int], make_rng: Callable[[], random.Random]) -> str:
    """Unit-weight plurality vote over per-label neighbor counts.

    A tie for the top count is settled by a draw among the tied labels, taken
    in LABEL_ORDER, from the rng that make_rng() returns. make_rng is called
    only on a tie, so a vote with a unique winner derives no rng at all.
    """
    top = max(counts.values(), default=0)
    if top < 1:
        raise ValueError("cannot vote over zero labels")
    tied = [lab for lab, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0]
    tied.sort(key=lambda lab: LABEL_ORDER.get(lab, len(LABEL_ORDER)))
    return make_rng().choice(tied)


def coerce_structure(level1: str, level2: str, level3: str) -> PredictedPath:
    """Repair per-level votes into a structurally coherent path.

    An Irrelevant tweet has no lower levels, and a level 2 other than
    NonFactual admits no sentiment, so the affected levels collapse to
    NoLabel.
    """
    if level1 == IRRELEVANT:
        level2 = NO_LABEL
        level3 = NO_LABEL
    if level2 in (FACTUAL, NO_LABEL):
        level3 = NO_LABEL
    return PredictedPath(level1=level1, level2=level2, level3=level3)


def hierarchical_f1(pairs: Sequence[tuple[LabelPath, PredictedPath]]) -> float:
    """Micro-averaged hierarchical F1 over (truth, prediction) pairs.

    Each side is expanded to its ancestor-closed label set; precision and
    recall are computed from the pooled intersection sizes. Returns 0 when
    both are 0.
    """
    if not pairs:
        raise ValueError("cannot compute F1 over zero pairs")
    overlap = 0
    predicted_total = 0
    truth_total = 0
    for truth, predicted in pairs:
        truth_set = label_set((truth.level1, truth.level2, truth.level3))
        predicted_set = label_set((predicted.level1, predicted.level2, predicted.level3))
        overlap += len(truth_set & predicted_set)
        predicted_total += len(predicted_set)
        truth_total += len(truth_set)
    precision = overlap / predicted_total if predicted_total else 0.0
    recall = overlap / truth_total if truth_total else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
