"""Strata construction, predictor comparison, outcome coding, aggregation."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from annodiff import simulation
from annodiff.config import RunConfig
from annodiff.dataset import Annotation, Dataset, Worker
from annodiff.errors import GridMismatchError
from annodiff.labels import LabelPath
from annodiff.simulation import (
    PHASES,
    TRAIN_SIZES,
    F1Curve,
    aggregate,
    build_strata,
    encode_outcome,
    make_context,
    mean_curve_delta,
    run_config,
    run_grid,
)
from annodiff.synth import SynthConfig, generate_dataset
from annodiff.textsim import PairSimilarity, SimilarityMetric

EASY_PATH = LabelPath("Relevant", "NonFactual", "Positive")
DIFFICULT_PATH = LabelPath("Irrelevant")


def _alternating_dataset(n_tweets=50, wid="w1", institution="MD"):
    """One worker; even-indexed tweets are one textual family, odd the other."""
    annotations = []
    texts = {}
    classes = {}
    for i in range(n_tweets):
        tid = f"{wid}_t{i:02d}"
        if i % 2 == 0:
            texts[tid] = "sunny pleasant day outside"
            annotations.append(Annotation(wid, tid, EASY_PATH, {1: 1.0, 2: 1.0, 3: 1.0}, i + 1))
            classes[tid] = "easy"
        else:
            texts[tid] = "gloomy dreadful night indoors"
            annotations.append(Annotation(wid, tid, DIFFICULT_PATH, {1: 1.0}, i + 1))
            classes[tid] = "difficult"
    ds = Dataset(workers={wid: Worker(wid, institution, "M", annotations)}, texts=texts)
    return ds, classes


def test_build_strata_windows_and_exclusion():
    ds, classes = _alternating_dataset(60)
    short = Worker("w2", "MD", "M", [Annotation("w2", "w1_t00", LabelPath("Irrelevant"), {1: 1.0}, i + 1) for i in range(1)])
    # a second worker with 49 annotations of existing tweets would need 49
    # distinct tweets; one annotation is enough to trip the threshold
    ds.workers["w2"] = short
    built = build_strata(ds, classes)
    assert built.excluded_workers == ["w2"]
    assert set(built.windows) == {("w1", "early"), ("w1", "late")}
    early = built.windows[("w1", "early")]
    late = built.windows[("w1", "late")]
    assert [tid for tid, _ in early] == [f"w1_t{i:02d}" for i in range(25)]
    assert [tid for tid, _ in late] == [f"w1_t{i:02d}" for i in range(25, 50)]
    # annotations 51..60 appear in no window
    assert len(built.strata) == 4
    assert len(built.strata[("w1", "early", "easy")]) == 13
    assert len(built.strata[("w1", "early", "difficult")]) == 12
    assert len(built.strata[("w1", "late", "easy")]) == 12
    assert len(built.strata[("w1", "late", "difficult")]) == 13
    # each tweet's labels are held as a path tuple with NoLabel blanks
    assert early[:2] == (
        ("w1_t00", ("Relevant", "NonFactual", "Positive")),
        ("w1_t01", ("Irrelevant", "NoLabel", "NoLabel")),
    )


def test_build_strata_unclassed_tweets_stay_in_window():
    ds, classes = _alternating_dataset(50)
    del classes["w1_t00"]
    built = build_strata(ds, classes)
    early_easy = built.strata[("w1", "early", "easy")]
    assert all(tid != "w1_t00" for tid, _ in early_easy)
    assert any(tid == "w1_t00" for tid, _ in built.windows[("w1", "early")])


def test_stratum_tweets_keep_annotation_order():
    ds, classes = _alternating_dataset(50)
    built = build_strata(ds, classes)
    for stratum in built.strata.values():
        ids = [tid for tid, _ in stratum]
        assert ids == sorted(ids)  # tweet ids were minted in annotation order


def test_make_context_filters_institution():
    ds, classes = _alternating_dataset(50)
    other, other_classes = _alternating_dataset(50, wid="s1", institution="SU")
    ds.workers.update(other.workers)
    ds.texts.update(other.texts)
    classes.update(other_classes)
    ctx = make_context(ds, "SU", classes)
    assert ctx.institution == "SU"
    assert ctx.worker_ids == ["s1"]


def test_run_config_hand_computed_f1():
    # within each class all texts are identical and across classes they are
    # disjoint, so every prediction copies the training class's label path,
    # for any k and any metric. The resulting pooled F1 values are exact.
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    result = run_config(ctx, SimilarityMetric.SUBSTRING, "early", 2, k_grid=(1, 3, 5), seed=0, epsilon=0.01)
    # easy arm: 23 test tweets, 11 easy truths fully matched (3 labels each),
    # 12 difficult truths missed: F1 = 2*33/(69+45)
    for value in result.curve_easy.points.values():
        assert value == pytest.approx(66 / 114, abs=1e-12)
    # difficult arm: 13 easy truths missed, 10 difficult matched: F1 = 2*10/(23+49)
    for value in result.curve_difficult.points.values():
        assert value == pytest.approx(20 / 72, abs=1e-12)
    assert result.mean_delta == pytest.approx(66 / 114 - 20 / 72, abs=1e-12)
    assert result.code == "E"
    assert result.skipped_easy == 0
    assert result.curve_easy.workers_used == 1


def test_run_config_skips_thin_strata():
    ds, classes = _alternating_dataset(50)
    # leave only 3 easy tweets in the late window
    late_easy = [f"w1_t{i:02d}" for i in range(25, 50) if i % 2 == 0]
    for tid in late_easy[3:]:
        classes[tid] = "difficult"
    ctx = make_context(ds, "MD", classes)
    result = run_config(ctx, SimilarityMetric.EDIT, "late", 5, k_grid=(1,), seed=0, epsilon=0.01)
    assert result.curve_easy is None
    assert result.skipped_easy == 1
    assert result.code is None
    assert result.mean_delta is None
    assert result.curve_difficult is not None


def test_run_config_validation():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    grid = {"k_grid": (1, 3), "seed": 0, "epsilon": 0.01}
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "middle", 5, **grid)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 1, **grid)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 11, **grid)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 5, **{**grid, "k_grid": ()})


def test_run_config_deterministic():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    args = (ctx, SimilarityMetric.SUBSEQUENCE, "late", 3, (1, 3, 5, 7, 9, 11, 13, 15))
    assert run_config(*args, seed=5, epsilon=0.01) == run_config(*args, seed=5, epsilon=0.01)


def test_run_grid_covers_all_configurations():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    config = RunConfig("annotations.jsonl", "tweets.jsonl", metrics=("substring", "edit"), k_grid=(1, 3))
    results = run_grid(ctx, config)
    assert len(results) == 2 * len(PHASES) * len(TRAIN_SIZES) == 36
    combos = [(r.metric, r.phase, r.train_size) for r in results]
    assert combos[0] == ("substring", "early", 2)
    assert combos[-1] == ("edit", "late", 10)
    assert len(set(combos)) == 36


# --- one pass per arm against the per-size oracle ---

ORACLE_PATHS = (
    LabelPath("Irrelevant"),
    LabelPath("Relevant", "Factual"),
    LabelPath("Relevant", "NonFactual", "Positive"),
    LabelPath("Relevant", "NonFactual", "Negative"),
)
ORACLE_WORDS = ("rain", "vote", "poll")
N_POOL_TWEETS = 60


@st.composite
def small_contexts(draw):
    """One institution of 1 to 3 workers over a shared pool of tweets.

    Texts of up to 3 words from a 3-word vocabulary make similarity ties
    common (an empty text too). Each worker labels from a palette of one
    path (constant strata) to four (mixed), and a third of the tweets have
    no class, so strata are often shorter than the train size.
    """
    texts = {
        f"t{i:02d}": " ".join(draw(st.lists(st.sampled_from(ORACLE_WORDS), max_size=3)))
        for i in range(N_POOL_TWEETS)
    }
    classes = {}
    for tid in texts:
        klass = draw(st.sampled_from(("easy", "difficult", None)))
        if klass is not None:
            classes[tid] = klass
    workers = {}
    for w in range(draw(st.integers(1, 3))):
        wid = f"w{w}"
        palette = draw(st.lists(st.sampled_from(ORACLE_PATHS), min_size=1, max_size=4, unique=True))
        order = draw(st.permutations(sorted(texts)))[: draw(st.integers(50, 52))]
        annotations = [
            Annotation(wid, tid, draw(st.sampled_from(palette)), {1: 1.0}, i + 1) for i, tid in enumerate(order)
        ]
        workers[wid] = Worker(wid, "MD", "M", annotations)
    return make_context(Dataset(workers=workers, texts=texts), "MD", classes)


k_grids = st.lists(st.sampled_from((1, 2, 3, 5, 9, 10, 11, 15)), min_size=1, max_size=5)


@settings(max_examples=25)
@given(
    ctx=small_contexts(),
    metric=st.sampled_from(list(SimilarityMetric)),
    k_grid=k_grids,
    seed=st.integers(0, 3),
    phase=st.sampled_from(PHASES),
    n=st.sampled_from(TRAIN_SIZES),
)
def test_grid_matches_per_size_oracle(ctx, metric, k_grid, seed, phase, n):
    config = RunConfig("a.jsonl", "t.jsonl", metrics=(metric.value,), k_grid=tuple(k_grid), seed=seed)
    expected = [
        oracles.config_result(ctx, metric, ph, size, config.k_grid, seed, config.epsilon)
        for ph in PHASES
        for size in TRAIN_SIZES
    ]
    assert run_grid(ctx, config) == expected
    single = run_config(ctx, metric, phase, n, config.k_grid, seed, config.epsilon)
    assert single == expected[PHASES.index(phase) * len(TRAIN_SIZES) + TRAIN_SIZES.index(n)]


def test_run_config_refuses_non_positive_k():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 5, k_grid=(0, 3), seed=0, epsilon=0.01)


# --- the grid's work counts ---


def _planted_context():
    """A planted set, split into classes by tweet id; its label noise makes
    training paths disagree and votes tie."""
    config = SynthConfig(n_workers=3, n_easy=30, n_difficult=30, difficult_label_noise=0.6, seed=3)
    dataset = generate_dataset(config)
    return make_context(dataset, "MD", {tid: "easy" if tid < "t030" else "difficult" for tid in dataset.texts})


def test_grid_looks_each_pair_up_once_per_worker_and_arm(monkeypatch):
    ctx = _planted_context()
    assert len(ctx.worker_ids) == 3
    lookups = Counter()
    real_sim = PairSimilarity.sim

    def counting_sim(self, id_a, id_b):
        lookups[(id_a, id_b)] += 1
        return real_sim(self, id_a, id_b)

    monkeypatch.setattr(PairSimilarity, "sim", counting_sim)
    config = RunConfig("a.jsonl", "t.jsonl", metrics=("edit",), k_grid=(1, 3, 15))
    for wid in ctx.worker_ids:
        # one worker at a time, so a pair that two workers share is seen once per run
        lookups.clear()
        run_grid(dataclasses.replace(ctx, worker_ids=[wid]), config)
        expected = set()
        for phase in PHASES:
            window_ids = [tid for tid, _ in ctx.windows[(wid, phase)]]
            for arm in ("easy", "difficult"):
                train_ids = [tid for tid, _ in ctx.strata[(wid, phase, arm)][: TRAIN_SIZES[-1]]]
                for tid in window_ids:
                    # a query for every n up to its own position in the stratum
                    limit = train_ids.index(tid) if tid in train_ids else len(train_ids)
                    if limit >= TRAIN_SIZES[0]:
                        expected.update((tid, train_tid) for train_tid in train_ids[:limit])
        assert set(lookups) == expected
        assert set(lookups.values()) == {1}


def test_agreeing_training_paths_are_not_ranked(monkeypatch):
    # the easy stratum of the early window is w1_t00, w1_t02, ...: relabel
    # its fourth tweet so that exactly the first three training paths agree
    ds, classes = _alternating_dataset(50)
    annotations = ds.workers["w1"].annotations
    annotations[6] = Annotation("w1", "w1_t06", DIFFICULT_PATH, {1: 1.0}, 7)
    ctx = make_context(ds, "MD", classes)
    ranked = []
    real_rank = simulation.rank_by_similarity

    def counting_rank(sims, rng, depth):
        ranked.append(len(sims))
        return real_rank(sims, rng, depth)

    monkeypatch.setattr(simulation, "rank_by_similarity", counting_rank)
    for n in TRAIN_SIZES:
        ranked.clear()
        run_config(ctx, SimilarityMetric.EDIT, "early", n, k_grid=(1, 3), seed=0, epsilon=0.01)
        # the difficult stratum is one path throughout
        assert ranked == ([] if n <= 3 else [n] * (25 - n)), n


def test_vote_repeats_a_prefix_only_after_a_tie(monkeypatch):
    ctx = _planted_context()
    events = []
    real_prefix_counts = simulation.prefix_counts
    real_vote = simulation.vote

    def recording_prefix_counts(order, rows, ks):
        events.append(("query", None))
        for k, counts in real_prefix_counts(order, rows, ks):
            events.append(("prefix", min(k, len(order))))
            yield k, counts

    def recording_vote(counts, make_rng):
        top = max(counts.values())
        events.append(("vote", sum(1 for c in counts.values() if c == top) > 1))
        return real_vote(counts, make_rng)

    monkeypatch.setattr(simulation, "prefix_counts", recording_prefix_counts)
    monkeypatch.setattr(simulation, "vote", recording_vote)
    config = RunConfig("a.jsonl", "t.jsonl", metrics=("edit", "substring"), k_grid=(1, 3, 5, 7, 9, 11, 13, 15))
    run_grid(ctx, config)

    # per query, one [prefix, tied flags of the votes at that k] per k
    queries = []
    for kind, value in events:
        if kind == "query":
            queries.append([])
        elif kind == "prefix":
            queries[-1].append([value, []])
        else:
            queries[-1][-1][1].append(value)
    revotes = reuses = 0
    for steps in queries:
        assert steps[0][1], "the first k always votes"
        for (end_before, tied_before), (end, tied) in zip(steps, steps[1:]):
            voted = bool(tied)
            if end != end_before:
                assert voted
            elif any(tied_before):
                assert voted
                revotes += 1
            else:
                assert not voted
                reuses += 1
    # both branches happen on this set
    assert revotes > 0 and reuses > 0


# --- outcome coding ---


def _curve(points):
    return F1Curve(points=dict(points), workers_used=3)


def test_mean_curve_delta():
    easy = _curve({1: 0.6, 3: 0.7, 5: 0.8})
    difficult = _curve({1: 0.5, 3: 0.7, 5: 0.6})
    assert mean_curve_delta(easy, difficult) == pytest.approx(0.1, abs=1e-12)


def test_mean_curve_delta_grid_mismatch():
    with pytest.raises(GridMismatchError):
        mean_curve_delta(_curve({1: 0.5}), _curve({1: 0.5, 3: 0.5}))


def _code(curve_easy, curve_difficult, epsilon=0.01):
    return encode_outcome(mean_curve_delta(curve_easy, curve_difficult), epsilon)


def test_encode_outcome_codes():
    flat = _curve({1: 0.5, 3: 0.5})
    assert _code(flat, _curve({1: 0.5, 3: 0.5})) == "T"
    assert _code(_curve({1: 0.55, 3: 0.55}), flat) == "E"
    assert _code(flat, _curve({1: 0.55, 3: 0.55})) == "D"
    # a crossing pair whose mean difference stays inside the tolerance
    assert _code(_curve({1: 0.504, 3: 0.5}), flat) == "T"


def test_encode_outcome_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        encode_outcome(0.0, epsilon=-0.1)


grid_values = st.tuples(*(st.floats(0, 1) for _ in range(3)))


@given(values_e=grid_values, values_d=grid_values, epsilon=st.floats(0, 0.2))
def test_encode_outcome_antisymmetric(values_e, values_d, epsilon):
    easy = _curve(dict(zip((1, 3, 5), values_e)))
    difficult = _curve(dict(zip((1, 3, 5), values_d)))
    forward = _code(easy, difficult, epsilon)
    backward = _code(difficult, easy, epsilon)
    assert backward == {"E": "D", "D": "E", "T": "T"}[forward]


# --- aggregation ---


def test_aggregate_counts_and_table_layout():
    outcomes = (
        [("early", "T")] * 31
        + [("early", "E")] * 13
        + [("early", "D")] * 10
        + [("late", "T")] * 12
        + [("late", "E")] * 36
        + [("late", "D")] * 6
    )
    counts, tables = aggregate(outcomes)
    assert counts == {
        "early": {"T": 31, "E": 13, "D": 10},
        "late": {"T": 12, "E": 36, "D": 6},
    }
    assert list(tables) == ["E_vs_T", "E_vs_D", "T_vs_D"]
    assert {name: table["rows"] for name, table in tables.items()} == {
        "E_vs_T": ["T", "E"],
        "E_vs_D": ["E", "D"],
        "T_vs_D": ["T", "D"],
    }
    assert all(table["columns"] == ["early", "late"] for table in tables.values())
    assert tables["E_vs_T"]["counts"] == [[31, 12], [13, 36]]
    assert tables["E_vs_D"]["counts"] == [[13, 36], [10, 6]]
    assert tables["T_vs_D"]["counts"] == [[31, 12], [10, 6]]
    assert tables["E_vs_T"]["p_value"] < 1e-4
    assert tables["E_vs_D"]["p_value"] < 0.02
    assert tables["T_vs_D"]["p_value"] > 0.5

    # each table is already in its stats.json form
    counts, tables = aggregate([("early", "E"), ("late", "T"), ("late", "D")])
    assert counts["late"] == {"T": 1, "E": 0, "D": 1}
    assert tables["E_vs_D"] == {
        "rows": ["E", "D"],
        "columns": ["early", "late"],
        "counts": [[1, 0], [0, 1]],
        "p_value": 1.0,
    }


def test_proportions_of_an_all_zero_table_is_one():
    # neither E nor T ever occurred: the table carries no evidence
    _, tables = aggregate([("early", "D"), ("late", "D")])
    assert tables["E_vs_T"]["counts"] == [[0, 0], [0, 0]]
    assert tables["E_vs_T"]["p_value"] == 1.0


def test_aggregate_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        aggregate([("middle", "T")])
    with pytest.raises(ValueError):
        aggregate([("early", "X")])


outcome_lists = st.lists(
    st.tuples(st.sampled_from(["early", "late"]), st.sampled_from(["T", "E", "D"])),
    max_size=40,
)


@given(outcomes=outcome_lists, data=st.data())
def test_aggregate_order_invariant(outcomes, data):
    shuffled = data.draw(st.permutations(outcomes))
    assert aggregate(outcomes) == aggregate(shuffled)
