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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from annodiff.config import RunConfig, stable_seed
from annodiff.dataset import Dataset
from annodiff.difficulty import DIFFICULT, EASY
from annodiff.errors import GridMismatchError
from annodiff.knn import coerce_structure, hierarchical_f1, prefix_counts, rank_by_similarity, vote
from annodiff.labels import LEVELS, NO_LABEL, LabelPath
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


@dataclass(frozen=True)
class Stratum:
    """One worker's tweets of one difficulty class within one phase window,
    in annotation order."""

    worker_id: str
    phase: str
    klass: str
    tweets: tuple[tuple[str, LabelPath], ...]


@dataclass
class StrataResult:
    strata: list[Stratum]
    windows: dict[tuple[str, str], tuple[tuple[str, LabelPath], ...]]  # (worker, phase) -> window
    excluded_workers: list[str]  # workers with fewer than 50 annotations


def build_strata(dataset: Dataset, class_by_tweet: Mapping[str, str]) -> StrataResult:
    """Slice each worker's first 50 annotations into the four strata.

    Workers with fewer than 50 annotations are excluded and reported;
    annotations beyond the 50th are discarded. Window tweets without a
    difficulty class belong to no stratum but stay in the phase window.
    """
    strata: list[Stratum] = []
    windows: dict[tuple[str, str], tuple[tuple[str, LabelPath], ...]] = {}
    excluded: list[str] = []
    for wid in dataset.worker_ids():
        annotations = dataset.workers[wid].annotations
        if len(annotations) < MIN_WORKER_TWEETS:
            excluded.append(wid)
            continue
        for phase, start in ((EARLY, 0), (LATE, PHASE_LENGTH)):
            window = tuple(
                (a.tweet_id, a.labels) for a in annotations[start : start + PHASE_LENGTH]
            )
            windows[(wid, phase)] = window
            for klass in (EASY, DIFFICULT):
                members = tuple(t for t in window if class_by_tweet.get(t[0]) == klass)
                strata.append(Stratum(worker_id=wid, phase=phase, klass=klass, tweets=members))
    return StrataResult(strata=strata, windows=windows, excluded_workers=excluded)


@dataclass
class SimulationContext:
    """Everything run_config needs for one institution, precomputed once."""

    institution: str
    worker_ids: list[str]
    strata: dict[tuple[str, str, str], Stratum]  # (worker, phase, klass)
    windows: dict[tuple[str, str], tuple[tuple[str, LabelPath], ...]]
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
    worker_ids = sorted({s.worker_id for s in built.strata})
    return SimulationContext(
        institution=institution,
        worker_ids=worker_ids,
        strata={(s.worker_id, s.phase, s.klass): s for s in built.strata},
        windows=built.windows,
        words=dataset.word_sequences(),
        excluded_workers=built.excluded_workers,
    )


@dataclass(frozen=True)
class F1Curve:
    """Micro-averaged hierarchical F1 per neighbor count for one arm of one
    configuration."""

    institution: str
    metric: str
    phase: str
    train_size: int
    arm: str  # EASY or DIFFICULT
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


def _arm_curve(
    ctx: SimulationContext,
    metric: SimilarityMetric,
    phase: str,
    n: int,
    arm: str,
    k_grid: Sequence[int],
    seed: int,
) -> tuple[F1Curve | None, int]:
    """Pool predictions for one arm across workers. Returns (curve, skipped).

    Each query's neighbors are ranked once; every distinct k votes per level
    on the prefix counts of that ranking. A vote derives its seeded rng only
    when its top count is tied.
    """
    sims = ctx.sims(metric)
    ks = sorted(set(k_grid))
    pairs_per_k: dict[int, list[tuple[LabelPath, object]]] = {k: [] for k in ks}
    used = 0
    skipped = 0
    for wid in ctx.worker_ids:
        stratum = ctx.strata[(wid, phase, arm)]
        if len(stratum.tweets) < n:
            skipped += 1
            continue
        used += 1
        training = stratum.tweets[:n]
        train_ids = {tid for tid, _ in training}
        level_rows = [[path.label(level) or NO_LABEL for _, path in training] for level in LEVELS]
        window = ctx.windows[(wid, phase)]
        for tid, truth in window:
            if tid in train_ids:
                continue
            sim_values = [sims.sim(tid, train_tid) for train_tid, _ in training]
            order_rng = random.Random(
                stable_seed(seed, ctx.institution, metric.value, phase, n, wid, arm, "order", tid)
            )
            order = rank_by_similarity(sim_values, order_rng)
            for k, counts in prefix_counts(order, level_rows, ks):
                raw = [
                    vote(
                        level_counts,
                        lambda: random.Random(
                            stable_seed(seed, ctx.institution, metric.value, phase, n, wid, arm, "vote", tid, k, level)
                        ),
                    )
                    for level, level_counts in zip(LEVELS, counts)
                ]
                pairs_per_k[k].append((truth, coerce_structure(*raw)))
    if used == 0:
        return None, skipped
    points = {k: hierarchical_f1(pairs_per_k[k]) for k in ks}
    curve = F1Curve(
        institution=ctx.institution,
        metric=metric.value,
        phase=phase,
        train_size=n,
        arm=arm,
        points=points,
        workers_used=used,
    )
    return curve, skipped


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
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    curve_easy, skipped_easy = _arm_curve(ctx, metric, phase, n, EASY, k_grid, seed)
    curve_difficult, skipped_difficult = _arm_curve(ctx, metric, phase, n, DIFFICULT, k_grid, seed)
    if curve_easy is None or curve_difficult is None:
        code = None
        delta = None
    else:
        delta = mean_curve_delta(curve_easy, curve_difficult)
        code = encode_outcome(delta, epsilon)
    return ConfigResult(
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
        run_config(ctx, SimilarityMetric(metric), phase, n, config.k_grid, config.seed, config.epsilon)
        for metric in config.metrics
        for phase in PHASES
        for n in TRAIN_SIZES
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
