"""Label-reliability simulation over worker phases and difficulty classes.

Each qualifying worker contributes two phase windows: their first 25
annotations (early phase) and annotations 26 to 50 (late phase). A window's
stratum for a difficulty class is its tweets of that class, in window order.
For a train size n, one predictor is trained on the first n easy tweets of
the window and one on the first n difficult ones; both are evaluated on the
rest of the window. Each worker's predictions sum to one F1 triple per
neighbor count k, the workers' triples are summed into one pooled F1 per
k, and each configuration is encoded by which predictor dominated on
average.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple, Sequence

from annodiff.config import RunConfig, stable_seed
from annodiff.dataset import Dataset
from annodiff.difficulty import DIFFICULT, EASY
from annodiff.knn import hierarchical_f1, path_triple, rank_by_similarity, vote
from annodiff.labels import LEVELS, NO_LABEL, NONFACTUAL, RELEVANT, LabelPath
from annodiff.stats import mean
from annodiff.textsim import PairSimilarity

EARLY = "early"
LATE = "late"
PHASES = (EARLY, LATE)
PHASE_LENGTH = 25
MIN_WORKER_TWEETS = 50
TRAIN_SIZES = tuple(range(2, 11))

CODE_TIE = "T"
CODE_EASY = "E"
CODE_DIFFICULT = "D"
OUTCOME_CODES = (CODE_TIE, CODE_EASY, CODE_DIFFICULT)


Window = tuple[tuple[str, LabelPath], ...]  # (tweet id, label path) in annotation order


def phase_windows(dataset: Dataset) -> tuple[dict[tuple[str, str], Window], list[str]]:
    """Slice each worker's first 50 annotations into their two phase windows.

    Returns ((worker, phase) -> window, the workers excluded for having
    fewer than 50 annotations). Annotations beyond the 50th are discarded.
    Each tweet keeps its annotation's label path, the form the grid votes
    and scores.
    """
    windows: dict[tuple[str, str], Window] = {}
    excluded: list[str] = []
    for wid in dataset.worker_ids():
        annotations = dataset.workers[wid].annotations
        if len(annotations) < MIN_WORKER_TWEETS:
            excluded.append(wid)
            continue
        for phase, start in ((EARLY, 0), (LATE, PHASE_LENGTH)):
            windows[(wid, phase)] = tuple((a.tweet_id, a.labels) for a in annotations[start : start + PHASE_LENGTH])
    return windows, excluded


class SimulationContext(NamedTuple):
    """One institution's workers, phase windows, difficulty classes and word
    sequences, the inputs run_grid reads, precomputed once."""

    institution: str
    worker_ids: list[str]
    windows: dict[tuple[str, str], Window]  # (worker, phase) -> window
    classes: Mapping[str, str]  # tweet id -> easy or difficult; a tweet without one is in no stratum
    words: dict[str, tuple[str, ...]]


def make_context(dataset: Dataset, institution: str, class_by_tweet: Mapping[str, str]) -> SimulationContext:
    windows, _ = phase_windows(dataset.filter_institution(institution))
    return SimulationContext(
        institution=institution,
        worker_ids=sorted({wid for wid, _ in windows}),
        windows=windows,
        classes=class_by_tweet,
        words=dataset.word_sequences(),
    )


class ConfigResult(NamedTuple):
    institution: str
    metric: str
    phase: str
    train_size: int
    # {k: micro-averaged hierarchical F1 pooled over the workers that fit},
    # None when no worker's stratum holds train_size tweets
    curve_easy: dict[int, float] | None
    curve_difficult: dict[int, float] | None
    code: str | None  # None when the comparison is undefined
    mean_delta: float | None


def vote_path(counts: Sequence[Mapping[str, int]], parts: tuple) -> tuple[LabelPath, bool]:
    """Top-down plurality vote of a label path over per-level neighbor
    counts, and whether any voted level tied.

    Level 2 is voted only under Relevant and level 3 only under NonFactual,
    so the path is coherent without repair; a level not voted is NoLabel. A
    tie at a voted level is settled by a draw among the tied labels, in
    LABEL_ORDER, from a Random seeded on stable_seed(*parts, level); a
    decided level derives no seed.
    """
    path = [NO_LABEL, NO_LABEL, NO_LABEL]
    tied = False
    for level in LEVELS:
        # through the module-level names, so a wrapper installed on
        # simulation.vote or simulation.stable_seed sees every grid call
        labels = vote(counts[level - 1])
        if len(labels) > 1:
            tied = True
            labels = [random.Random(stable_seed(*parts, level)).choice(labels)]
        label = path[level - 1] = labels[0]
        if label != RELEVANT and label != NONFACTUAL:  # the only labels with a level below
            break
    return tuple(path), tied


def worker_triples(
    ctx: SimulationContext,
    wid: str,
    sims: PairSimilarity,
    metric: str,
    phase: str,
    arm: str,
    ks: Sequence[int],
    seed: int,
) -> dict[int, dict[int, list[int]]]:
    """One worker's predictions for one arm at every train size its stratum
    holds, with pair similarities from sims and the neighbor counts ks
    (ascending, distinct). Returns {n: {k: [overlap, predicted size, truth
    size]}}, the path_triple sums of the (truth, predicted) pairs scored at
    (n, k); a train size past the stratum has no key.

    The training set of size n is the first n tweets of the arm's stratum,
    the window's tweets of class arm, so the sizes nest: a window tweet is a
    query for every n up to the number of the arm's tweets before it in the
    window (every n, for a tweet of another class or none), and it gets one
    similarity row over that prefix, of which size n reads the first n
    values. Where the first n training paths are one path, every k predicts
    it: the query is neither ranked nor voted, and its triple joins every
    k's sum. Its ranking is seeded on its own parts, so skipping it changes
    no other draw. Otherwise the query is ranked once per n, its per-level
    label counts grow over the ranking as k rises, and one path is voted per
    distinct prefix min(k, n): a larger k on the same prefix reuses it
    unless that vote tied, since a level's tie draw is seeded on its own
    (tweet, k, level) parts.
    """
    window = ctx.windows[(wid, phase)]
    stratum = [t for t in window if ctx.classes.get(t[0]) == arm][: TRAIN_SIZES[-1]]
    triples = {n: {k: [0, 0, 0] for k in ks} for n in TRAIN_SIZES if n <= len(stratum)}
    paths = [path for _, path in stratum]
    agreeing = 1  # the first `agreeing` training paths are one path
    while agreeing < len(paths) and paths[agreeing] == paths[0]:
        agreeing += 1
    seen = 0  # the arm's tweets before this one in the window
    for tid, truth in window:
        limit = len(stratum)
        if ctx.classes.get(tid) == arm:
            limit = min(seen, limit)
            seen += 1
        if limit < TRAIN_SIZES[0]:
            continue
        row = [sims.sim(tid, train_tid) for train_tid, _ in stratum[:limit]]
        for n in TRAIN_SIZES:
            if n > limit:
                break
            if n <= agreeing:
                overlap, predicted, size = path_triple(truth, paths[0])
                for total in triples[n].values():
                    total[0] += overlap
                    total[1] += predicted
                    total[2] += size
                continue
            parts = (seed, ctx.institution, metric, phase, n, wid, arm)
            order = rank_by_similarity(row[:n], random.Random(stable_seed(*parts, "order", tid)), ks[-1])
            depth = len(order)
            counts = ({}, {}, {})
            counts1, counts2, counts3 = counts
            counted, drew = 0, True
            for k in ks:
                end = k if k < depth else depth
                # a vote on the same prefix as the last one is reused unless it tied
                if end > counted or drew:
                    for i in order[counted:end]:
                        label1, label2, label3 = paths[i]
                        counts1[label1] = counts1.get(label1, 0) + 1
                        counts2[label2] = counts2.get(label2, 0) + 1
                        counts3[label3] = counts3.get(label3, 0) + 1
                    counted = end
                    path, drew = vote_path(counts, (*parts, "vote", tid, k))
                    overlap, predicted, size = path_triple(truth, path)
                total = triples[n][k]
                total[0] += overlap
                total[1] += predicted
                total[2] += size
    return triples


def pooled_curve(triples: Sequence[Mapping[int, Sequence[int]]]) -> dict[int, float] | None:
    """{k: hierarchical F1 of the k triples summed over the given workers, in
    order}, or None when no worker is given."""
    if not triples:
        return None
    return {k: hierarchical_f1([sum(column) for column in zip(*(t[k] for t in triples))]) for k in triples[0]}


def mean_curve_delta(curve_easy: dict[int, float], curve_difficult: dict[int, float]) -> float:
    """Mean over the k grid of (easy F1 - difficult F1)."""
    return mean(curve_easy[k] - curve_difficult[k] for k in sorted(curve_easy))


def encode_outcome(delta: float, epsilon: float) -> str:
    """Encode which arm dominated from the mean curve delta (easy minus
    difficult): E, D, or T when neither leads by more than epsilon."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if delta > epsilon:
        return CODE_EASY
    if delta < -epsilon:
        return CODE_DIFFICULT
    return CODE_TIE


def run_grid(ctx: SimulationContext, config: RunConfig) -> list[ConfigResult]:
    """All (metric, phase, train size) configurations for one institution,
    over config's metrics, k grid, seed and epsilon, in that order.

    Each metric gets one pair cache, which both phases and both arms share;
    each (metric, phase, arm) runs one worker_triples pass per worker, and a
    curve scores the workers' triples summed in ctx.worker_ids order.
    """
    ks = sorted(set(config.k_grid))
    results = []
    for metric in config.metrics:
        sims = PairSimilarity(ctx.words, metric)
        for phase in PHASES:
            easy, difficult = [
                [worker_triples(ctx, wid, sims, metric, phase, arm, ks, config.seed) for wid in ctx.worker_ids]
                for arm in (EASY, DIFFICULT)
            ]
            for n in TRAIN_SIZES:
                curve_easy = pooled_curve([t[n] for t in easy if n in t])
                curve_difficult = pooled_curve([t[n] for t in difficult if n in t])
                delta = code = None
                if curve_easy is not None and curve_difficult is not None:
                    delta = mean_curve_delta(curve_easy, curve_difficult)
                    code = encode_outcome(delta, config.epsilon)
                results.append(
                    ConfigResult(
                        institution=ctx.institution,
                        metric=metric,
                        phase=phase,
                        train_size=n,
                        curve_easy=curve_easy,
                        curve_difficult=curve_difficult,
                        code=code,
                        mean_delta=delta,
                    )
                )
    return results


# pairwise comparisons reported, with their row order
TABLE_PAIRS = (
    ("E_vs_T", (CODE_TIE, CODE_EASY)),
    ("E_vs_D", (CODE_EASY, CODE_DIFFICULT)),
    ("T_vs_D", (CODE_TIE, CODE_DIFFICULT)),
)


def aggregate(outcomes: Iterable[tuple[str, str]]) -> tuple[dict[str, dict[str, int]], dict[str, dict]]:
    """Count outcome codes per phase and build the pairwise 2x2 tables.

    outcomes is an iterable of (phase, code) pairs; the result does not
    depend on their order. Returns (phase -> code -> count, name -> table),
    each table in its stats.json form: its two codes as rows, (early, late)
    as columns, the cell counts and the two-tailed exact p-value.
    """
    # imported at call time, so a wrapper installed on stats.fisher_exact_two_tailed sees every call
    from annodiff.stats import fisher_exact_two_tailed

    counts: dict[str, dict[str, int]] = {
        phase: {code: 0 for code in OUTCOME_CODES} for phase in PHASES
    }
    for phase, code in outcomes:
        if phase not in counts:
            raise ValueError(f"unknown phase {phase!r}")
        if code not in OUTCOME_CODES:
            raise ValueError(f"unknown outcome code {code!r}")
        counts[phase][code] += 1
    tables = {}
    for name, rows in TABLE_PAIRS:
        cells = [[counts[phase][code] for phase in PHASES] for code in rows]
        tables[name] = {
            "rows": list(rows),
            "columns": list(PHASES),
            "counts": cells,
            "p_value": fisher_exact_two_tailed(*cells[0], *cells[1]),
        }
    return counts, tables
