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
from annodiff.knn import rank_by_similarity
from annodiff.labels import LEVELS, LEVEL_LABELS, path_labels
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
    """The label counts per level over all annotations of one tweet, in level
    order; a level nobody labeled is absent."""
    if not annotations:
        raise ValueError("majority_labels needs at least one annotation")
    tweet_ids = {a.tweet_id for a in annotations}
    if len(tweet_ids) != 1:
        raise ValueError(f"annotations span multiple tweets: {sorted(tweet_ids)}")
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
    reading of the tweet.
    """
    if not tallies:
        raise ValueError("agreement is undefined without any votes")
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


def knn_label_certainty(
    counts: Mapping[str, int], smoothing: float, labels: Sequence[str]
) -> dict[str, float]:
    """Smoothed per-label certainty from the label counts of k neighbors.

    certainty(j) = (n_j + smoothing) / (k + c) where n_j = counts[j], k is
    the sum of the counts and c is the number of candidate labels. With
    smoothing 1 the certainties over all candidate labels sum to exactly 1.
    """
    k = sum(counts.values())
    if k < 1:
        raise ValueError("need at least one neighbor")
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    c = len(labels)
    if c < 2:
        raise ValueError("need at least two candidate labels")
    unknown = set(counts) - set(labels)
    if unknown:
        raise ValueError(f"neighbor labels outside the candidate set: {sorted(unknown)}")
    return {lab: (counts.get(lab, 0) + smoothing) / (k + c) for lab in labels}


def aggregate_certainties(worker_rows: Sequence[Mapping[int, Mapping[str, float]]]) -> float:
    """Combine per-worker certainty rows for one tweet into a single value.

    A row holds both labels of its level, as knn_label_certainty gives them.
    Per level, the rows of all contributing workers are averaged label-wise,
    and the larger average is kept. The level maxima are then averaged.
    """
    if not worker_rows:
        raise ValueError("need at least one worker row")
    level_maxima = []
    for level in LEVELS:
        rows = [r[level] for r in worker_rows if level in r]
        if not rows:
            continue
        # left to right, as in agreement_score
        averages = [reduce(operator.add, (r[lab] for r in rows), 0.0) / len(rows) for lab in LEVEL_LABELS[level]]
        level_maxima.append(max(averages))
    if not level_maxima:
        raise ValueError("no level carries a certainty row")
    return mean(level_maxima)


class CertaintyResult(NamedTuple):
    values: dict[str, float]
    imputed: list[str]


def predictor_certainties(dataset: Dataset, config: RunConfig) -> CertaintyResult:
    """Predictor certainty for every tweet of the dataset.

    Each worker's labeled tweets are split once into a training and a test
    partition (config.split_ratio of them train, seeded per worker). A
    config.k_certainty-nearest-neighbor predictor per hierarchy level, over
    substring similarity (the one measure of C) and trained on the training
    partition, emits a certainty row smoothed by config.smoothing for every
    test tweet. A worker's test tweets get their similarities to its
    training tweets, over the dataset's word sequences, from one
    similarity_rows stream, and each row is ranked as it arrives, stopping
    at rank config.k_certainty. So a worker's certainty holds its training
    pool's index and one row at a time: memory grows with the training pool,
    not with training x test. Rows are aggregated across workers per tweet.

    Labeled tweets that land in no worker's test partition get the population
    mean certainty; their ids are reported in the result.
    """
    words = dataset.word_sequences()
    rows_by_tweet: dict[str, list[dict[int, dict[str, float]]]] = {}
    for wid in dataset.worker_ids():
        annotations = dataset.workers[wid].annotations
        if not annotations:
            continue
        by_tweet = {a.tweet_id: a for a in annotations}
        ids = sorted(by_tweet)
        rng = random.Random(stable_seed(config.seed, "certainty-split", wid))
        rng.shuffle(ids)
        train_size = max(1, math.floor(config.split_ratio * len(ids)))
        train_ids, test_ids = ids[:train_size], ids[train_size:]

        # per level, the positions in train_ids of the training tweets labeled
        # at that level, and their labels; every tweet has a level-1 label, so
        # train_ids is the level-1 pool and the deeper pools are subsequences
        # of it in the same order
        pools: dict[int, list[int]] = {level: [] for level in LEVELS}
        pool_labels: dict[int, list[str]] = {level: [] for level in LEVELS}
        for position, tid in enumerate(train_ids):
            for level, label in path_labels(by_tweet[tid].labels).items():
                pools[level].append(position)
                pool_labels[level].append(label)

        # one similarity row per test tweet, shared by the three levels and
        # ranked as it arrives; strict, so a short row stream raises instead
        # of leaving test tweets to the imputed mean
        sim_rows = similarity_rows((words[tid] for tid in test_ids), [words[tid] for tid in train_ids])
        for tid, sim_row in zip(test_ids, sim_rows, strict=True):
            row: dict[int, dict[str, float]] = {}
            for level, pool in pools.items():
                if not pool:
                    continue
                # the level-1 pool holds every training position in order
                sim_values = sim_row if len(pool) == len(sim_row) else [sim_row[position] for position in pool]
                order_rng = random.Random(stable_seed(config.seed, "certainty-order", wid, tid, level))
                order = rank_by_similarity(sim_values, order_rng, config.k_certainty)
                counts = Counter(pool_labels[level][i] for i in order)
                row[level] = knn_label_certainty(counts, config.smoothing, LEVEL_LABELS[level])
            rows_by_tweet.setdefault(tid, []).append(row)

    values = {tid: aggregate_certainties(rows_by_tweet[tid]) for tid in sorted(rows_by_tweet)}
    labeled = sorted(dataset.annotations_by_tweet())
    missing = [tid for tid in labeled if tid not in values]
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
    never silently dropped.
    """
    by_tweet = dataset.annotations_by_tweet()
    if not by_tweet:
        raise AnnodiffError("cannot score an empty dataset")
    certainty = predictor_certainties(dataset, config)
    costs = labeling_costs(dataset)

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
