"""Phase windows and strata, predictor comparison, outcome coding, aggregation."""

from collections import Counter

import pytest
from hypothesis import Phase, given, settings, strategies as st

import oracles
from annodiff import simulation, textsim
from annodiff.config import RunConfig
from annodiff.dataset import Annotation, Dataset, Worker
from annodiff.errors import AnnodiffError
from annodiff.knn import hierarchical_f1
from annodiff.labels import LEVEL_LABELS, label_path
from annodiff.simulation import (
    PHASES,
    TRAIN_SIZES,
    aggregate,
    encode_outcome,
    make_context,
    mean_curve_delta,
    phase_windows,
    run_grid,
    worker_triples,
)
from annodiff.synth import SynthConfig, generate_dataset
from annodiff.textsim import METRICS, PairSimilarity

EASY_PATH = label_path("Relevant", "NonFactual", "Positive")
DIFFICULT_PATH = label_path("Irrelevant")


def _alternating_dataset(n_tweets=50, wid="w1", institution="MD"):
    """One worker; even-indexed tweets are one textual family, odd the other."""
    annotations = []
    texts = {}
    classes = {}
    for i in range(n_tweets):
        tid = f"{wid}_t{i:02d}"
        if i % 2 == 0:
            texts[tid] = "sunny pleasant day outside"
            annotations.append(Annotation(tid, EASY_PATH, 3.0))
            classes[tid] = "easy"
        else:
            texts[tid] = "gloomy dreadful night indoors"
            annotations.append(Annotation(tid, DIFFICULT_PATH, 1.0))
            classes[tid] = "difficult"
    ds = Dataset(workers={wid: Worker(institution, "M", annotations)}, texts=texts)
    return ds, classes


def _training_rows(ctx):
    """{(query, arm): the training tweets of the query's similarity row in
    that arm, in row order}, over an edit-only run_grid of ctx. A worker's
    windows hold each tweet once, so with one worker (query, arm) names one
    row."""
    rows = {}
    real_sim = PairSimilarity.sim

    def recording_sim(self, id_a, id_b):
        rows.setdefault((id_a, ctx.classes[id_b]), []).append(id_b)
        return real_sim(self, id_a, id_b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairSimilarity, "sim", recording_sim)
        run_grid(ctx, RunConfig("a.jsonl", "t.jsonl", metrics=("edit",), k_grid=(1,)))
    return rows


def test_phase_windows_and_exclusion():
    ds, classes = _alternating_dataset(60)
    short = Worker("MD", "M", [Annotation("w1_t00", DIFFICULT_PATH, 1.0)])
    # a second worker with 49 annotations of existing tweets would need 49
    # distinct tweets; one annotation is enough to trip the threshold
    ds.workers["w2"] = short
    windows, excluded = phase_windows(ds)
    assert excluded == ["w2"]
    assert set(windows) == {("w1", "early"), ("w1", "late")}
    early = windows[("w1", "early")]
    late = windows[("w1", "late")]
    # annotations 51..60 appear in no window
    assert [tid for tid, _ in early] == [f"w1_t{i:02d}" for i in range(25)]
    assert [tid for tid, _ in late] == [f"w1_t{i:02d}" for i in range(25, 50)]
    # each tweet's labels are held as a path tuple with NoLabel blanks
    assert early[:2] == (
        ("w1_t00", ("Relevant", "NonFactual", "Positive")),
        ("w1_t01", ("Irrelevant", "NoLabel", "NoLabel")),
    )
    # the windows split 13 easy / 12 difficult early and 12 / 13 late, and
    # the grid reads those strata: each arm's tweets past its first two are
    # queries of that arm
    rows = _training_rows(make_context(ds, "MD", classes))
    for window, split in ((early, {"easy": 13, "difficult": 12}), (late, {"easy": 12, "difficult": 13})):
        assert Counter(classes[tid] for tid, _ in window) == split
        own = Counter(classes[tid] for tid, _ in window if (tid, classes[tid]) in rows)
        assert own == {arm: count - TRAIN_SIZES[0] for arm, count in split.items()}


def test_unclassed_tweets_stay_in_window_as_queries():
    ds, classes = _alternating_dataset(50)
    del classes["w1_t00"]
    windows, _ = phase_windows(ds)
    assert any(tid == "w1_t00" for tid, _ in windows[("w1", "early")])
    rows = _training_rows(make_context(ds, "MD", classes))
    # a query of both arms over their first ten tweets, and in no row itself
    assert rows[("w1_t00", "easy")] == [f"w1_t{i:02d}" for i in range(2, 22, 2)]
    assert rows[("w1_t00", "difficult")] == [f"w1_t{i:02d}" for i in range(1, 21, 2)]
    assert all("w1_t00" not in row for row in rows.values())


def test_strata_keep_window_order():
    # the window lists the tweets in annotation order, which here is not the
    # order of their ids, and each arm trains on its first tweets in that order
    ds, classes = _alternating_dataset(50)
    annotations = ds.workers["w1"].annotations
    annotations[:25] = annotations[24::-1]
    windows, _ = phase_windows(ds)
    rows = _training_rows(make_context(ds, "MD", classes))
    for phase in PHASES:
        window_ids = [tid for tid, _ in windows[("w1", phase)]]
        if phase == "early":
            assert window_ids == [f"w1_t{i:02d}" for i in range(24, -1, -1)]
        for arm in ("easy", "difficult"):
            stratum = [tid for tid in window_ids if classes[tid] == arm]
            for tid in window_ids:
                row = rows.get((tid, arm), [])
                if classes[tid] != arm:
                    assert row == stratum[: TRAIN_SIZES[-1]]
                else:
                    # the arm's tweets before it, or no row below two of them
                    before = stratum[: stratum.index(tid)][: TRAIN_SIZES[-1]]
                    assert row == (before if len(before) >= TRAIN_SIZES[0] else [])


def test_make_context_filters_institution():
    ds, classes = _alternating_dataset(50)
    other, other_classes = _alternating_dataset(50, wid="s1", institution="SU")
    ds.workers.update(other.workers)
    ds.texts.update(other.texts)
    classes.update(other_classes)
    ctx = make_context(ds, "SU", classes)
    assert ctx.institution == "SU"
    assert ctx.worker_ids == ["s1"]


def _grid_row(ctx, metric, phase, n, k_grid, seed=0):
    """The (phase, n) configuration of a one-metric run_grid."""
    config = RunConfig("a.jsonl", "t.jsonl", metrics=(metric,), k_grid=k_grid, seed=seed)
    return next(r for r in run_grid(ctx, config) if (r.phase, r.train_size) == (phase, n))


def test_grid_hand_computed_f1():
    # within each class all texts are identical and across classes they are
    # disjoint, so every prediction copies the training class's label path,
    # for any k and any metric. The resulting pooled F1 values are exact.
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    result = _grid_row(ctx, "substring", "early", 2, k_grid=(1, 3, 5))
    # easy arm: 23 test tweets, 11 easy truths fully matched (3 labels each),
    # 12 difficult truths missed: F1 = 2*33/(69+45)
    assert sorted(result.curve_easy) == [1, 3, 5]
    for value in result.curve_easy.values():
        assert value == pytest.approx(66 / 114, abs=1e-12)
    # difficult arm: 13 easy truths missed, 10 difficult matched: F1 = 2*10/(23+49)
    for value in result.curve_difficult.values():
        assert value == pytest.approx(20 / 72, abs=1e-12)
    assert result.mean_delta == pytest.approx(66 / 114 - 20 / 72, abs=1e-12)
    assert result.code == "E"
    # the one worker holds size 2 in both arms, so both curves are its own
    sims = PairSimilarity(ctx.words, "substring")
    for arm in ("easy", "difficult"):
        assert 2 in worker_triples(ctx, "w1", sims, "substring", "early", arm, (1, 3, 5), seed=0)


def test_grid_skips_thin_strata():
    ds, classes = _alternating_dataset(50)
    # leave only 3 easy tweets in the late window
    late_easy = [f"w1_t{i:02d}" for i in range(25, 50) if i % 2 == 0]
    for tid in late_easy[3:]:
        classes[tid] = "difficult"
    ctx = make_context(ds, "MD", classes)
    result = _grid_row(ctx, "edit", "late", 5, k_grid=(1,))
    sims = PairSimilarity(ctx.words, "edit")
    triples = worker_triples(ctx, "w1", sims, "edit", "late", "easy", (1,), seed=0)
    # the worker's 3 late easy tweets hold sizes 2 and 3 only
    assert sorted(triples) == [2, 3]
    assert result.curve_easy is None
    assert result.code is None
    assert result.mean_delta is None
    assert result.curve_difficult is not None


def test_grid_refuses_empty_k_grid():
    # the grid's settings are refused when they are built, before any run
    with pytest.raises(AnnodiffError, match="--k-grid"):
        RunConfig("a.jsonl", "t.jsonl", metrics=("edit",), k_grid=())


def test_grid_deterministic():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    args = (ctx, "subsequence", "late", 3, (1, 3, 5, 7, 9, 11, 13, 15))
    assert _grid_row(*args, seed=5) == _grid_row(*args, seed=5)


def test_grid_refuses_repeated_metric():
    with pytest.raises(AnnodiffError, match="--metrics names 'substring' more than once"):
        RunConfig("a.jsonl", "t.jsonl", metrics=("edit", "substring", "substring"))


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
    label_path("Irrelevant"),
    label_path("Relevant", "Factual"),
    label_path("Relevant", "NonFactual", "Positive"),
    label_path("Relevant", "NonFactual", "Negative"),
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
        annotations = [Annotation(tid, draw(st.sampled_from(palette)), 1.0) for tid in order]
        workers[wid] = Worker("MD", "M", annotations)
    return make_context(Dataset(workers=workers, texts=texts), "MD", classes)


k_grids = st.lists(st.sampled_from((1, 2, 3, 5, 9, 10, 11, 15)), min_size=1, max_size=5)


# no shrink phase: shrinking a failing grid of up to 3 workers over 60 tweets
# re-runs run_grid and the oracle for minutes, and the unshrunk falsifying
# example is still printed
@settings(max_examples=25, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    ctx=small_contexts(),
    metric=st.sampled_from(METRICS),
    k_grid=k_grids,
    seed=st.integers(0, 3),
)
def test_grid_matches_per_size_oracle(ctx, metric, k_grid, seed):
    config = RunConfig("a.jsonl", "t.jsonl", metrics=(metric,), k_grid=tuple(k_grid), seed=seed)
    expected = [
        oracles.config_result(ctx, metric, ph, size, config.k_grid, seed, config.epsilon)
        for ph in PHASES
        for size in TRAIN_SIZES
    ]
    assert run_grid(ctx, config) == expected


# each example runs the per-size oracle once per (worker, phase, arm, size)
@settings(max_examples=10, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    ctx=small_contexts(),
    metric=st.sampled_from(METRICS),
    phase=st.sampled_from(PHASES),
    k_grid=k_grids,
    seed=st.integers(0, 3),
)
def test_worker_triples_match_one_worker_oracle(ctx, metric, phase, k_grid, seed):
    ks = sorted(set(k_grid))
    sims = PairSimilarity(ctx.words, metric)
    for wid in ctx.worker_ids:
        alone = ctx._replace(worker_ids=[wid])
        for arm in ("easy", "difficult"):
            triples = worker_triples(ctx, wid, sims, metric, phase, arm, ks, seed)
            for n in TRAIN_SIZES:
                expected = oracles.arm_curve_per_size(alone, metric, phase, n, arm, ks, seed)
                if n not in triples:
                    assert expected is None, (wid, arm, n)
                else:
                    assert list(triples[n]) == ks
                    assert {k: hierarchical_f1(triple) for k, triple in triples[n].items()} == expected, (wid, arm, n)


def test_grid_refuses_non_positive_k():
    with pytest.raises(AnnodiffError, match="--k-grid"):
        RunConfig("a.jsonl", "t.jsonl", metrics=("edit",), k_grid=(0, 3))


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
        run_grid(ctx._replace(worker_ids=[wid]), config)
        expected = set()
        for phase in PHASES:
            window_ids = [tid for tid, _ in ctx.windows[(wid, phase)]]
            for arm in ("easy", "difficult"):
                train_ids = [tid for tid in window_ids if ctx.classes.get(tid) == arm][: TRAIN_SIZES[-1]]
                for tid in window_ids:
                    # a query for every n up to its own position in the stratum
                    limit = train_ids.index(tid) if tid in train_ids else len(train_ids)
                    if limit >= TRAIN_SIZES[0]:
                        expected.update((tid, train_tid) for train_tid in train_ids[:limit])
        assert set(lookups) == expected
        assert set(lookups.values()) == {1}


def test_grid_computes_each_pair_once_per_metric(monkeypatch):
    # one pair cache per metric serves both phases and both arms: a pair of
    # an easy and a difficult tweet is a query pair in each arm, and workers
    # meet the same pairs in different phases
    ctx = _planted_context()
    words = [ctx.words[tid] for window in ctx.windows.values() for tid, _ in window]
    assert len(set(words)) == len(ctx.words)  # a word sequence names its tweet
    computed = Counter()
    real_nsim = textsim.nsim

    def counting_nsim(a, b, metric):
        computed[(metric, min(a, b), max(a, b))] += 1
        return real_nsim(a, b, metric)

    monkeypatch.setattr(textsim, "nsim", counting_nsim)
    run_grid(ctx, RunConfig("a.jsonl", "t.jsonl", metrics=("edit", "substring"), k_grid=(1, 3)))
    assert {metric for metric, _, _ in computed} == {"edit", "substring"}
    assert set(computed.values()) == {1}


def test_agreeing_training_paths_are_not_ranked(monkeypatch):
    # the easy stratum of the early window is w1_t00, w1_t02, ...: relabel
    # its fourth tweet so that exactly the first three training paths agree
    ds, classes = _alternating_dataset(50)
    annotations = ds.workers["w1"].annotations
    annotations[6] = Annotation("w1_t06", DIFFICULT_PATH, 1.0)
    ctx = make_context(ds, "MD", classes)
    ranked = []
    real_rank = simulation.rank_by_similarity

    def counting_rank(sims, rng, depth):
        ranked.append(len(sims))
        return real_rank(sims, rng, depth)

    monkeypatch.setattr(simulation, "rank_by_similarity", counting_rank)
    sims = PairSimilarity(ctx.words, "edit")
    worker_triples(ctx, "w1", sims, "edit", "early", "easy", (1, 3), seed=0)
    # a query of size n is ranked over its first n similarities; the 25 - n
    # window tweets outside the training set are queries of size n
    assert Counter(ranked) == {n: 25 - n for n in TRAIN_SIZES if n > 3}
    ranked.clear()
    # the difficult stratum is one path throughout
    worker_triples(ctx, "w1", sims, "edit", "early", "difficult", (1, 3), seed=0)
    assert ranked == []


def test_vote_repeats_a_prefix_only_after_a_tie(monkeypatch):
    ctx = _planted_context()
    ks = (1, 3, 5, 7, 9, 11, 13, 15)
    # per ranked query: its ranking depth, and per path vote [prefix, whether a level tied]
    queries = []
    real_rank = simulation.rank_by_similarity
    real_vote = simulation.vote

    def recording_rank(sims, rng, depth):
        order = real_rank(sims, rng, depth)
        queries.append((len(order), []))
        return order

    def recording_vote(counts):
        top = max(counts.values())
        tied = sum(1 for c in counts.values() if c == top) > 1
        votes = queries[-1][1]
        if set(counts) <= set(LEVEL_LABELS[1]):
            # a path vote starts at level 1, over the whole neighbor prefix
            votes.append([sum(counts.values()), tied])
        else:
            # a lower level counts the same prefix, blanks as NoLabel
            assert sum(counts.values()) == votes[-1][0]
            votes[-1][1] |= tied
        return real_vote(counts)

    monkeypatch.setattr(simulation, "rank_by_similarity", recording_rank)
    monkeypatch.setattr(simulation, "vote", recording_vote)
    run_grid(ctx, RunConfig("a.jsonl", "t.jsonl", metrics=("edit", "substring"), k_grid=ks))

    revotes = reuses = 0
    for depth, votes in queries:
        votes = iter(votes)
        end_before = tied_before = None
        for k in ks:
            end = min(k, depth)
            if end != end_before or tied_before:
                prefix, tied_before = next(votes)
                assert prefix == end
                revotes += end == end_before
            else:
                reuses += 1
            end_before = end
        assert next(votes, None) is None, "a query voted more paths than its distinct or tied prefixes"
    # both branches happen on this set
    assert revotes > 0 and reuses > 0


# --- outcome coding ---


def test_mean_curve_delta():
    easy = {1: 0.6, 3: 0.7, 5: 0.8}
    difficult = {1: 0.5, 3: 0.7, 5: 0.6}
    assert mean_curve_delta(easy, difficult) == pytest.approx(0.1, abs=1e-12)


def _code(curve_easy, curve_difficult, epsilon=0.01):
    return encode_outcome(mean_curve_delta(curve_easy, curve_difficult), epsilon)


def test_encode_outcome_codes():
    flat = {1: 0.5, 3: 0.5}
    assert _code(flat, {1: 0.5, 3: 0.5}) == "T"
    assert _code({1: 0.55, 3: 0.55}, flat) == "E"
    assert _code(flat, {1: 0.55, 3: 0.55}) == "D"
    # a crossing pair whose mean difference stays inside the tolerance
    assert _code({1: 0.504, 3: 0.5}, flat) == "T"


def test_encode_outcome_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        encode_outcome(0.0, epsilon=-0.1)


grid_values = st.tuples(*(st.floats(0, 1) for _ in range(3)))


@given(values_e=grid_values, values_d=grid_values, epsilon=st.floats(0, 0.2))
def test_encode_outcome_antisymmetric(values_e, values_d, epsilon):
    easy = dict(zip((1, 3, 5), values_e))
    difficult = dict(zip((1, 3, 5), values_d))
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
