"""Per-worker hierarchical k-nearest-neighbor label prediction.

A worker's labeling behavior is modeled by one kNN predictor per hierarchy
level, trained on tweets the worker labeled. Levels the worker left blank
(below Irrelevant or Factual) are represented by an explicit NoLabel class,
so every training tweet is usable on every level. Predicted paths are made
structurally coherent afterwards.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from annodiff.config import stable_seed
from annodiff.labels import (
    FACTUAL,
    IRRELEVANT,
    LABEL_ORDER,
    LEVELS,
    NO_LABEL,
    LabelPath,
    label_set,
)
from annodiff.textsim import SimilarityMetric, WordSequence, nsim


@dataclass(frozen=True)
class LevelPredictor:
    """kNN over word sequences for one hierarchy level."""

    level: int
    examples: tuple[tuple[tuple[str, ...], str], ...]  # (words, label or NoLabel)
    metric: SimilarityMetric
    k: int

    @property
    def effective_k(self) -> int:
        """Neighbors actually consulted; capped by the training-set size."""
        return min(self.k, len(self.examples))


@dataclass(frozen=True)
class PredictedPath:
    """Predicted labels for all three levels; blanks are NoLabel."""

    level1: str
    level2: str
    level3: str

    def label(self, level: int) -> str:
        return (self.level1, self.level2, self.level3)[level - 1]


def train(
    examples: Sequence[tuple[WordSequence, LabelPath]],
    metric: SimilarityMetric,
    k: int,
) -> tuple[LevelPredictor, LevelPredictor, LevelPredictor]:
    """Build the three per-level predictors from one worker's labeled tweets."""
    if not examples:
        raise ValueError("cannot train on an empty example list")
    if k < 1:
        raise ValueError("k must be at least 1")
    predictors = []
    for level in LEVELS:
        rows = tuple(
            (tuple(words), path.label(level) or NO_LABEL) for words, path in examples
        )
        predictors.append(LevelPredictor(level=level, examples=rows, metric=metric, k=k))
    return tuple(predictors)


def _sim_safe(a: WordSequence, b: WordSequence, metric: SimilarityMetric) -> float:
    if not a and not b:
        return 1.0
    return nsim(a, b, metric)


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


def predict(
    predictors: Sequence[LevelPredictor],
    words: WordSequence,
    seed: int,
) -> PredictedPath:
    """Predict the label path of one tweet. Deterministic under a fixed seed."""
    raw: dict[int, str] = {}
    for predictor in predictors:
        sims = [_sim_safe(words, ex_words, predictor.metric) for ex_words, _ in predictor.examples]
        order_rng = random.Random(stable_seed(seed, "order", predictor.level))
        order = rank_by_similarity(sims, order_rng)
        counts = Counter(predictor.examples[i][1] for i in order[: predictor.effective_k])
        raw[predictor.level] = vote(counts, lambda: random.Random(stable_seed(seed, "vote", predictor.level)))
    return coerce_structure(raw[1], raw[2], raw[3])


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
