"""Per-tweet difficulty scoring.

A tweet's difficulty score is the sum of three components, each in [0, 1]:
worker agreement on its labels, the certainty of per-worker label predictors,
and its normalized labeling cost. Higher scores mean easier tweets. Scores
are split into an easy and a difficult class by 1-D 2-means. Imputed and
excluded tweets are returned, not logged; score prints and records them.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

from annodiff.config import RunConfig, stable_seed
from annodiff.dataset import Annotation, Dataset
from annodiff.errors import AnnodiffError
from annodiff.knn import descending, rank_by_similarity
from annodiff.labels import LEVELS, LEVEL_LABELS, NO_LABEL, path_labels
from annodiff.stats import kmeans_1d, mean, median
from annodiff.textsim import similarity_rows

EASY = "easy"
DIFFICULT = "difficult"


class DifficultyScore(NamedTuple):
    tweet_id: str
    agreement: float
    certainty: float
    cost: float
    ds: float
    klass: str  # EASY or DIFFICULT


class ScoringResult(NamedTuple):
    scores: list[DifficultyScore]
    imputed_certainty: list[str]  # tweets that received the population mean
    excluded: dict[str, str]  # tweet id -> reason it could not be scored


def majority_labels(annotations: Sequence[Annotation]) -> dict[int, Counter[str]]:
    """The label counts per level over the annotations of one tweet, in level
    order; a level nobody labeled is absent.

    annotations is one group of Dataset.annotations_by_tweet(), which is
    never empty and holds one tweet, so level 1 is always present.
    """
    tallies: dict[int, Counter[str]] = {level: Counter() for level in LEVELS}
    for ann in annotations:
        for level, label in path_labels(ann.labels).items():
            tallies[level][label] += 1
    return {level: counts for level, counts in tallies.items() if counts}


def agreement_score(tallies: Mapping[int, Mapping[str, int]]) -> float:
    """Worker agreement for one tweet from its per-level label counts.

    Each level contributes the fraction of its voters that chose the majority
    label, weighted by that majority's share of all majority votes across
    levels. A tied level, where two labels share the top count, contributes
    one extra count to the weight denominator, reflecting the extra plausible
    reading of the tweet. tallies come from majority_labels, so level 1 has
    at least one vote.
    """
    levels = []  # (top count, voter count) per level
    total_top = 0
    for counts in tallies.values():
        top = max(counts.values())
        levels.append((top, sum(counts.values())))
        tied = sum(1 for c in counts.values() if c == top) > 1
        total_top += top + tied
    # float sums run left to right: sum() compensates them from Python 3.12
    # on, which would make the outputs depend on the Python version
    return reduce(operator.add, ((top / voters) * (top / total_top) for top, voters in levels), 0.0)


def knn_label_certainty(count: int, k: int, smoothing: float) -> float:
    """Smoothed certainty of a candidate label that count of k neighbors hold.

    certainty = (count + smoothing) / (k + c), where c = 2 is the number of
    candidate labels of a level. With smoothing 1 the certainties of a
    level's two labels sum to 1.
    """
    return (count + smoothing) / (k + 2)


class CertaintyResult(NamedTuple):
    values: dict[str, float]
    imputed: list[str]


def predictor_certainties(dataset: Dataset, config: RunConfig) -> CertaintyResult:
    """Predictor certainty for every tweet of the dataset.

    Each worker's labeled tweets are split once into a training and a test
    partition (config.split_ratio of them train, seeded per worker). A
    config.k_certainty-nearest-neighbor predictor per hierarchy level, over
    substring similarity (the one measure of C) and trained on the training
    tweets labeled at that level, gives each test tweet smoothed certainties
    of the level's two labels. A worker's test tweets get their similarity
    rows to its training tweets, over the dataset's word sequences, from one
    similarity_rows stream; each row is sorted once, and each level ranks
    that order filtered to its pool, read only to rank config.k_certainty.
    So memory grows with the training pool, not with training x test. A
    tweet's certainty is the mean over levels of the larger of the two
    labels' means over the workers that tested it, summed in worker order.

    Labeled tweets that land in no worker's test partition get the population
    mean certainty; their ids are reported in the result.
    """
    words = dataset.word_sequences()
    # tweet -> one flat list, three slots per level in level order: first
    # label's sum, second label's sum, workers
    sums: dict[str, list] = {}
    for wid in dataset.worker_ids():
        by_tweet = {a.tweet_id: a for a in dataset.workers[wid].annotations}
        ids = sorted(by_tweet)
        rng = random.Random(stable_seed(config.seed, "certainty-split", wid))
        rng.shuffle(ids)
        train_size = max(1, math.floor(config.split_ratio * len(ids)))
        train_ids, test_ids = ids[:train_size], ids[train_size:]

        # per level that some training tweet is labeled at: whether each
        # training position holds the level's first label, None where the
        # level is blank, and whether any is (never at level 1)
        paths = [by_tweet[tid].labels for tid in train_ids]
        levels = []
        for level, (first, _) in LEVEL_LABELS.items():
            firsts = [None if path[level - 1] == NO_LABEL else path[level - 1] == first for path in paths]
            blank = firsts.count(None)
            if blank < len(firsts):
                levels.append((level, firsts, blank))

        # one similarity row per test tweet, sorted once for the three levels;
        # strict, so a short row stream raises instead of leaving test
        # tweets to the imputed mean
        sim_rows = similarity_rows((words[tid] for tid in test_ids), [words[tid] for tid in train_ids])
        for tid, sim_row in zip(test_ids, sim_rows, strict=True):
            order = descending(sim_row)
            tweet_sums = sums.setdefault(tid, [0.0, 0.0, 0] * len(LEVELS))
            for level, firsts, blank in levels:
                candidates = (p for p in order if firsts[p] is not None) if blank else order
                order_rng = random.Random(stable_seed(config.seed, "certainty-order", wid, tid, level))
                neighbors = rank_by_similarity(sim_row, candidates, order_rng, config.k_certainty)
                k = len(neighbors)
                count = sum(firsts[p] for p in neighbors)
                slot = 3 * (level - 1)
                tweet_sums[slot] += knn_label_certainty(count, k, config.smoothing)
                tweet_sums[slot + 1] += knn_label_certainty(k - count, k, config.smoothing)
                tweet_sums[slot + 2] += 1

    values = {
        tid: mean([max(first / n, second / n) for first, second, n in zip(s[::3], s[1::3], s[2::3]) if n])
        for tid, s in sorted(sums.items())
    }
    # labeled tweets without a value, read from the workers' annotations:
    # no per-tweet groups are built here
    missing = sorted(
        {a.tweet_id for worker in dataset.workers.values() for a in worker.annotations if a.tweet_id not in values}
    )
    imputed: list[str] = []
    if missing and values:
        population_mean = mean(values.values())
        for tid in missing:
            values[tid] = population_mean
        imputed = missing
    return CertaintyResult(values=values, imputed=imputed)


def labeling_costs(dataset: Dataset) -> dict[str, float]:
    """Normalized labeling-cost component per tweet.

    A tweet's raw cost is the median over its annotators of the summed
    per-level durations. Costs are rescaled so the cheapest tweet of the
    population scores 1 and the most expensive scores 0. When every tweet
    costs the same the component carries no signal and everything scores 1.

    Annotations with an incomplete duration record contribute nothing to the
    median; tweets where no annotation has complete durations are absent from
    the result.
    """
    medians: dict[str, float] = {}
    for tid, annotations in sorted(dataset.annotations_by_tweet().items()):
        durations = [a.duration for a in annotations if a.duration is not None]
        if durations:
            medians[tid] = median(durations)
            if not math.isfinite(medians[tid]):
                raise AnnodiffError(f"tweet {tid}: the median labeling duration overflows a float")
    if not medians:
        return {}
    lo = min(medians.values())
    hi = max(medians.values())
    if hi == lo:
        return {tid: 1.0 for tid in medians}
    return {tid: 1.0 - (cost - lo) / (hi - lo) for tid, cost in medians.items()}


def difficulty_scores(dataset: Dataset, config: RunConfig) -> ScoringResult:
    """Score every labeled tweet of the dataset and class it easy or difficult.

    Reads the certainty settings and the seed from config; its input paths
    and grid settings play no part.

    The easy class is the 2-means cluster with the higher mean score. Tweets
    lacking a component (no recorded durations, or no certainty when nothing
    could be imputed) are excluded and listed in ScoringResult.excluded,
    never silently dropped. A dataset where no tweet has all three
    components, an empty one included, raises AnnodiffError.
    """
    certainty = predictor_certainties(dataset, config)
    costs = labeling_costs(dataset)
    # grouped after the certainty kNN, so the groups are not alive during it
    by_tweet = dataset.annotations_by_tweet()

    rows: list[tuple[str, float, float, float, float]] = []
    excluded: dict[str, str] = {}
    for tid in sorted(by_tweet):
        agreement = agreement_score(majority_labels(by_tweet[tid]))
        cert = certainty.values.get(tid)
        cost = costs.get(tid)
        if cert is None:
            excluded[tid] = "no predictor certainty"
            continue
        if cost is None:
            excluded[tid] = "no labeling durations"
            continue
        rows.append((tid, agreement, cert, cost, agreement + cert + cost))
    if not rows:
        raise AnnodiffError("no tweet has all three score components")

    clustering = kmeans_1d([r[4] for r in rows])
    # a row is a DifficultyScore's fields up to its class
    scores = [DifficultyScore(*row, EASY if cluster == 1 else DIFFICULT) for row, cluster in zip(rows, clustering.labels)]
    return ScoringResult(scores=scores, imputed_certainty=certainty.imputed, excluded=excluded)
