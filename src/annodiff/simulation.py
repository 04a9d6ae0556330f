"""Label-reliability simulation over worker phases and difficulty classes.

Each qualifying worker contributes four strata: the easy and the difficult
tweets among their first 25 annotations (early phase) and among annotations
26 to 50 (late phase). For a train size n, one predictor is trained on the
first n easy tweets of the phase and one on the first n difficult ones; both
are evaluated on the rest of the worker's 25-tweet phase window. F1 scores
are pooled across workers per neighbor count k, and each configuration is
encoded by which predictor dominated on average.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from annodiff.config import RunConfig, stable_seed
from annodiff.dataset import Dataset
from annodiff.difficulty import DIFFICULT, EASY
from annodiff.errors import GridMismatchError
from annodiff.knn import hierarchical_f1, prefix_counts, rank_by_similarity, vote
from annodiff.labels import LEVELS, NO_LABEL, NONFACTUAL, RELEVANT
from annodiff.textsim import PairSimilarity, SimilarityMetric

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


LabelTuple = tuple[str, str, str]  # (level1, level2, level3), NoLabel where blank
Window = tuple[tuple[str, LabelTuple], ...]  # (tweet id, labels) in annotation order


@dataclass
class StrataResult:
    strata: dict[tuple[str, str, str], Window]  # (worker, phase, klass) -> that class's window tweets
    windows: dict[tuple[str, str], Window]  # (worker, phase) -> window
    excluded_workers: list[str]  # workers with fewer than 50 annotations


def build_strata(dataset: Dataset, class_by_tweet: Mapping[str, str]) -> StrataResult:
    """Slice each worker's first 50 annotations into the four strata.

    Workers with fewer than 50 annotations are excluded and reported;
    annotations beyond the 50th are discarded. Window tweets without a
    difficulty class belong to no stratum but stay in the phase window.
    Each tweet's labels become a (level1, level2, level3) tuple with NoLabel
    blanks, the form the grid votes and scores.
    """
    strata: dict[tuple[str, str, str], Window] = {}
    windows: dict[tuple[str, str], Window] = {}
    excluded: list[str] = []
    for wid in dataset.worker_ids():
        annotations = dataset.workers[wid].annotations
        if len(annotations) < MIN_WORKER_TWEETS:
            excluded.append(wid)
            continue
        for phase, start in ((EARLY, 0), (LATE, PHASE_LENGTH)):
            window = tuple(
                (a.tweet_id, tuple(a.labels.label(level) or NO_LABEL for level in LEVELS))
                for a in annotations[start : start + PHASE_LENGTH]
            )
            windows[(wid, phase)] = window
            for klass in (EASY, DIFFICULT):
                strata[(wid, phase, klass)] = tuple(t for t in window if class_by_tweet.get(t[0]) == klass)
    return StrataResult(strata=strata, windows=windows, excluded_workers=excluded)


@dataclass
class SimulationContext:
    """Everything run_config needs for one institution, precomputed once."""

    institution: str
    worker_ids: list[str]
    strata: dict[tuple[str, str, str], Window]  # (worker, phase, klass)
    windows: dict[tuple[str, str], Window]
    words: dict[str, tuple[str, ...]]
    excluded_workers: list[str]
    _sims: dict[SimilarityMetric, PairSimilarity] = field(default_factory=dict)

    def sims(self, metric: SimilarityMetric) -> PairSimilarity:
        if metric not in self._sims:
            self._sims[metric] = PairSimilarity(self.words, metric)
        return self._sims[metric]


def make_context(dataset: Dataset, institution: str, class_by_tweet: Mapping[str, str]) -> SimulationContext:
    subset = dataset.filter_institution(institution)
    built = build_strata(subset, class_by_tweet)
    return SimulationContext(
        institution=institution,
        worker_ids=sorted({wid for wid, _ in built.windows}),
        strata=built.strata,
        windows=built.windows,
        words=dataset.word_sequences(),
        excluded_workers=built.excluded_workers,
    )


@dataclass(frozen=True)
class F1Curve:
    """Micro-averaged hierarchical F1 per neighbor count for one arm of one
    configuration, pooled over the workers it used."""

    points: dict[int, float]
    workers_used: int


@dataclass(frozen=True)
class ConfigResult:
    institution: str
    metric: str
    phase: str
    train_size: int
    curve_easy: F1Curve | None
    curve_difficult: F1Curve | None
    skipped_easy: int
    skipped_difficult: int
    code: str | None  # None when the comparison is undefined
    mean_delta: float | None


def vote_path(
    counts: Sequence[Mapping[str, int]], make_rng: Callable[[int], random.Random]
) -> LabelTuple:
    """Top-down plurality vote of a label path over per-level neighbor counts.

    Level 2 is voted only under Relevant and level 3 only under NonFactual,
    so the path is coherent without repair; a level not voted is NoLabel.
    make_rng(level) is called only on a tie at a voted level.
    """
    # through the module-level name, so a wrapper installed on simulation.vote sees every grid vote
    level1 = vote(counts[0], lambda: make_rng(1))
    if level1 != RELEVANT:
        return level1, NO_LABEL, NO_LABEL
    level2 = vote(counts[1], lambda: make_rng(2))
    if level2 != NONFACTUAL:
        return level1, level2, NO_LABEL
    return level1, level2, vote(counts[2], lambda: make_rng(3))


def _arm_curves(
    ctx: SimulationContext,
    metric: SimilarityMetric,
    phase: str,
    arm: str,
    sizes: Sequence[int],
    k_grid: Sequence[int],
    seed: int,
) -> dict[int, tuple[F1Curve | None, int]]:
    """Pool predictions for one arm across workers at every train size of
    sizes (ascending). Returns {n: (curve, skipped)}.

    The training set of size n is the first n tweets of the arm's stratum,
    so the sizes nest: a window tweet is a query for every n up to its
    position in the stratum, and it gets one similarity row over that
    prefix, of which size n reads the first n values. Where the first n
    training paths are one path, every k predicts it and the query is
    neither ranked nor voted; its order rng is seeded on its own parts, so
    skipping it changes no other draw. Otherwise the query is ranked once
    per n, and one path is voted per distinct prefix min(k, n): a larger k
    on the same prefix reuses it unless that vote drew on a tie, since a
    level's tie rng is seeded on its own (tweet, k, level) parts and derived
    only on a tie. Predictions are tallied as (truth, predicted) counts per
    (n, k).
    """
    sims = ctx.sims(metric)
    ks = sorted(set(k_grid))
    tables = {n: {k: Counter() for k in ks} for n in sizes}
    used = dict.fromkeys(sizes, 0)
    for wid in ctx.worker_ids:
        stratum = ctx.strata[(wid, phase, arm)][: sizes[-1]]
        fitting = [n for n in sizes if n <= len(stratum)]
        for n in fitting:
            used[n] += 1
        if not fitting:
            continue
        paths = [path for _, path in stratum]
        level_rows = tuple(zip(*paths))
        agreeing = 1  # the first `agreeing` training paths are one path
        while agreeing < len(paths) and paths[agreeing] == paths[0]:
            agreeing += 1
        position: dict[str, int] = {}
        for i, (tid, _) in enumerate(stratum):
            position.setdefault(tid, i)
        for tid, truth in ctx.windows[(wid, phase)]:
            limit = position.get(tid, len(stratum))
            if limit < fitting[0]:
                continue
            row = [sims.sim(tid, train_tid) for train_tid, _ in stratum[:limit]]
            for n in fitting:
                if n > limit:
                    break
                by_k = tables[n]
                if n <= agreeing:
                    pair = (truth, paths[0])
                    for k in ks:
                        by_k[k][pair] += 1
                    continue
                parts = (seed, ctx.institution, metric.value, phase, n, wid, arm)
                order = rank_by_similarity(row[:n], random.Random(stable_seed(*parts, "order", tid)), ks[-1])
                voted_end = -1
                drew: list[int] = []  # the levels whose vote drew on a tie
                for k, counts in prefix_counts(order, level_rows, ks):
                    end = min(k, len(order))
                    if end != voted_end or drew:
                        voted_end = end
                        drew = []
                        predicted = vote_path(counts, lambda level: _tie_rng(drew, parts, tid, k, level))
                    by_k[k][(truth, predicted)] += 1
    return {
        n: (
            F1Curve(points={k: hierarchical_f1(tables[n][k]) for k in ks}, workers_used=used[n]) if used[n] else None,
            len(ctx.worker_ids) - used[n],
        )
        for n in sizes
    }


def _tie_rng(drew: list[int], parts: tuple, tid: str, k: int, level: int) -> random.Random:
    """The tie rng of one (query, k, level) vote, noted in drew."""
    drew.append(level)
    return random.Random(stable_seed(*parts, "vote", tid, k, level))


def _phase_results(
    ctx: SimulationContext,
    metric: SimilarityMetric,
    phase: str,
    sizes: Sequence[int],
    k_grid: Sequence[int],
    seed: int,
    epsilon: float,
) -> list[ConfigResult]:
    """The configurations of one (metric, phase) at the given train sizes,
    from one pass per arm."""
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    if min(k_grid) < 1:
        raise ValueError(f"k_grid must hold positive neighbor counts, got {tuple(k_grid)}")
    easy = _arm_curves(ctx, metric, phase, EASY, sizes, k_grid, seed)
    difficult = _arm_curves(ctx, metric, phase, DIFFICULT, sizes, k_grid, seed)
    results = []
    for n in sizes:
        (curve_easy, skipped_easy), (curve_difficult, skipped_difficult) = easy[n], difficult[n]
        if curve_easy is None or curve_difficult is None:
            code = None
            delta = None
        else:
            delta = mean_curve_delta(curve_easy, curve_difficult)
            code = encode_outcome(delta, epsilon)
        results.append(
            ConfigResult(
                institution=ctx.institution,
                metric=metric.value,
                phase=phase,
                train_size=n,
                curve_easy=curve_easy,
                curve_difficult=curve_difficult,
                skipped_easy=skipped_easy,
                skipped_difficult=skipped_difficult,
                code=code,
                mean_delta=delta,
            )
        )
    return results


def run_config(
    ctx: SimulationContext,
    metric: SimilarityMetric,
    phase: str,
    n: int,
    k_grid: Sequence[int],
    seed: int,
    epsilon: float,
) -> ConfigResult:
    """Run one (institution, metric, phase, train size) configuration."""
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    if not TRAIN_SIZES[0] <= n <= TRAIN_SIZES[-1]:
        raise ValueError(f"train size must lie in [{TRAIN_SIZES[0]}, {TRAIN_SIZES[-1]}], got {n}")
    (result,) = _phase_results(ctx, metric, phase, (n,), k_grid, seed, epsilon)
    return result


def mean_curve_delta(curve_easy: F1Curve, curve_difficult: F1Curve) -> float:
    """Mean over the k grid of (easy F1 - difficult F1)."""
    if sorted(curve_easy.points) != sorted(curve_difficult.points):
        raise GridMismatchError(
            f"curves cover different k grids: {sorted(curve_easy.points)} vs {sorted(curve_difficult.points)}"
        )
    return statistics.fmean(curve_easy.points[k] - curve_difficult.points[k] for k in sorted(curve_easy.points))


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
    over config's metrics, k grid, seed and epsilon."""
    return [
        result
        for metric in config.metrics
        for phase in PHASES
        for result in _phase_results(
            ctx, SimilarityMetric(metric), phase, TRAIN_SIZES, config.k_grid, config.seed, config.epsilon
        )
    ]


@dataclass(frozen=True)
class ContingencyTable2x2:
    row_labels: tuple[str, str]
    col_labels: tuple[str, str]
    counts: tuple[tuple[int, int], tuple[int, int]]

    def flat(self) -> tuple[int, int, int, int]:
        return (self.counts[0][0], self.counts[0][1], self.counts[1][0], self.counts[1][1])


# pairwise comparisons reported, with their row order
TABLE_PAIRS = (
    ("E_vs_T", (CODE_TIE, CODE_EASY)),
    ("E_vs_D", (CODE_EASY, CODE_DIFFICULT)),
    ("T_vs_D", (CODE_TIE, CODE_DIFFICULT)),
)


@dataclass
class Aggregate:
    counts: dict[str, dict[str, int]]  # phase -> code -> count
    tables: dict[str, ContingencyTable2x2]


def aggregate(outcomes: Iterable[tuple[str, str]]) -> Aggregate:
    """Count outcome codes per phase and build the pairwise 2x2 tables.

    outcomes is an iterable of (phase, code) pairs; the result does not
    depend on their order. Columns of every table are (early, late).
    """
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
    for name, (row_a, row_b) in TABLE_PAIRS:
        tables[name] = ContingencyTable2x2(
            row_labels=(row_a, row_b),
            col_labels=PHASES,
            counts=(
                (counts[EARLY][row_a], counts[LATE][row_a]),
                (counts[EARLY][row_b], counts[LATE][row_b]),
            ),
        )
    return Aggregate(counts=counts, tables=tables)


def test_proportions(table: ContingencyTable2x2) -> float:
    """Two-tailed exact p-value for one pairwise outcome table.

    A table with no outcomes at all (neither code ever occurred) carries no
    evidence and gets p = 1.0, as a table with a zero margin does.
    """
    from annodiff.stats import fisher_exact_two_tailed

    if not any(table.flat()):
        return 1.0
    return fisher_exact_two_tailed(*table.flat())
