"""Agreement, certainty, and cost components plus end-to-end scoring."""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from annodiff import difficulty, textsim
from annodiff.config import RunConfig
from annodiff.dataset import Annotation, Dataset, Worker
from annodiff.difficulty import (
    DIFFICULT,
    EASY,
    agreement_score,
    aggregate_certainties,
    difficulty_scores,
    knn_label_certainty,
    labeling_costs,
    majority_labels,
    predictor_certainties,
)
from annodiff.errors import AnnodiffError
from annodiff.labels import LEVEL_LABELS, LEVELS, NO_LABEL, label_path, path_labels
from annodiff.synth import SynthConfig, generate_dataset
from oracles import agreement_direct, certainty_direct


def _config(**settings):
    """A RunConfig with placeholder input paths, which scoring never reads."""
    return RunConfig("annotations.jsonl", "tweets.jsonl", **settings)


def level(*counts):
    """One level's label counts; agreement reads only the counts."""
    return Counter({f"label {i}": count for i, count in enumerate(counts)})


def _tallies(votes):
    """Per-level label counts of per-level vote lists, without empty levels."""
    return {lvl: Counter(cast) for lvl, cast in votes.items() if cast}


def test_agreement_three_levels():
    tallies = {
        1: level(4),
        2: level(3, 1),
        3: level(2),
    }
    assert agreement_score(tallies) == pytest.approx(11 / 12, abs=1e-12)


def test_agreement_with_tie():
    # a tied level adds one to the weight denominator
    tallies = {
        1: level(4),
        2: level(2, 2),
        3: level(2),
    }
    assert agreement_score(tallies) == pytest.approx(7 / 9, abs=1e-12)


def test_agreement_single_annotator():
    tallies = {1: level(1), 2: level(1)}
    assert agreement_score(tallies) == pytest.approx(1.0, abs=1e-12)


def test_agreement_needs_votes():
    with pytest.raises(ValueError):
        agreement_score({})


level_votes = {
    1: st.lists(st.sampled_from(["Relevant", "Irrelevant"]), min_size=1, max_size=7),
    2: st.lists(st.sampled_from(["Factual", "NonFactual"]), max_size=7),
    3: st.lists(st.sampled_from(["Positive", "Negative"]), max_size=7),
}
binary_votes = st.fixed_dictionaries(level_votes)


@given(votes=binary_votes)
def test_agreement_matches_direct_evaluation(votes):
    produced = agreement_score(_tallies(votes))
    assert produced == pytest.approx(agreement_direct(votes), abs=1e-12)
    assert 0.0 <= produced <= 1.0


@given(votes=binary_votes, data=st.data())
def test_agreement_never_drops_when_vote_joins_majority(votes, data):
    # per voted level, a label with the top count, drawn among tied ones
    top_label = {}
    for lvl, counts in _tallies(votes).items():
        top = max(counts.values())
        top_label[lvl] = data.draw(st.sampled_from(sorted(lab for lab, c in counts.items() if c == top)))
    flippable = [(lvl, i) for lvl, cast in votes.items() for i, vote in enumerate(cast) if vote != top_label[lvl]]
    if not flippable:
        return
    lvl, i = data.draw(st.sampled_from(flippable))
    flipped = {l: list(c) for l, c in votes.items()}
    flipped[lvl][i] = top_label[lvl]
    before = agreement_score(_tallies(votes))
    after = agreement_score(_tallies(flipped))
    assert after >= before - 1e-12


# --- per-level label counts ---


def _annotation(tweet, l1, l2=None, l3=None):
    return Annotation(tweet, label_path(l1, l2, l3), None)


# the four root-to-leaf paths of the label tree
PATHS = [
    label_path("Irrelevant"),
    label_path("Relevant", "Factual"),
    label_path("Relevant", "NonFactual", "Positive"),
    label_path("Relevant", "NonFactual", "Negative"),
]


def test_majority_counts():
    annotations = [
        _annotation("t1", "Relevant", "NonFactual", "Negative"),
        _annotation("t1", "Relevant", "Factual"),
        _annotation("t1", "Relevant", "NonFactual", "Positive"),
        _annotation("t1", "Relevant", "NonFactual", "Negative"),
    ]
    assert majority_labels(annotations) == {
        1: Counter({"Relevant": 4}),
        2: Counter({"NonFactual": 3, "Factual": 1}),
        3: Counter({"Negative": 2, "Positive": 1}),
    }


def test_majority_tie_flag():
    # the tie shows as two labels with the top count, and agreement pays for it
    annotations = [_annotation("t1", "Relevant", "Factual"), _annotation("t1", "Irrelevant")] * 2
    result = majority_labels(annotations)
    assert result[1] == Counter({"Relevant": 2, "Irrelevant": 2})
    assert agreement_score(result) == pytest.approx(0.5 * 2 / 5 + 1.0 * 2 / 5, abs=1e-12)


def test_majority_skips_empty_levels():
    result = majority_labels([_annotation("t1", "Irrelevant")] * 3)
    assert result == {1: Counter({"Irrelevant": 3})}


@given(paths=st.lists(st.sampled_from(PATHS), min_size=1, max_size=7), data=st.data())
def test_majority_permutation_invariant(paths, data):
    shuffled = data.draw(st.permutations(paths))
    result = majority_labels([Annotation("t1", path, None) for path in paths])
    reordered = majority_labels([Annotation("t1", path, None) for path in shuffled])
    # agreement sums the levels in mapping order, so that order is pinned too
    assert list(result.items()) == list(reordered.items())
    assert list(result) == sorted(result)


def test_majority_labels_single_annotator():
    result = majority_labels([_annotation("t1", "Relevant", "Factual")])
    assert result == {1: Counter({"Relevant": 1}), 2: Counter({"Factual": 1})}


def test_majority_labels_rejects_bad_input():
    with pytest.raises(ValueError):
        majority_labels([])
    mixed = [_annotation("t1", "Irrelevant"), _annotation("t2", "Irrelevant")]
    with pytest.raises(ValueError):
        majority_labels(mixed)


@given(paths=st.lists(st.sampled_from(PATHS), min_size=1, max_size=6))
def test_agreement_through_annotations_matches_direct_evaluation(paths):
    votes = {lvl: [] for lvl in LEVELS}
    for path in paths:
        for lvl, label in path_labels(path).items():
            votes[lvl].append(label)
    produced = agreement_score(majority_labels([Annotation("t1", path, None) for path in paths]))
    assert produced == pytest.approx(agreement_direct(votes), abs=1e-12)


# --- certainty ---


def test_certainty_row_values():
    row = knn_label_certainty({"NonFactual": 2, "Factual": 1}, 1.0, ("Factual", "NonFactual"))
    assert row == {"Factual": 2 / 5, "NonFactual": 3 / 5}


def test_certainty_row_never_zero():
    row = knn_label_certainty({"Relevant": 3}, 1.0, ("Relevant", "Irrelevant"))
    assert row["Irrelevant"] == pytest.approx(0.2)
    assert row["Relevant"] == pytest.approx(0.8)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(counts={}, smoothing=1.0, labels=("Relevant", "Irrelevant")),
        dict(counts={"Relevant": 0}, smoothing=1.0, labels=("Relevant", "Irrelevant")),
        dict(counts={"Relevant": 1}, smoothing=-0.5, labels=("Relevant", "Irrelevant")),
        dict(counts={"Relevant": 1}, smoothing=1.0, labels=("Relevant",)),
        dict(counts={"Spam": 1}, smoothing=1.0, labels=("Relevant", "Irrelevant")),
    ],
)
def test_certainty_row_validation(kwargs):
    with pytest.raises(ValueError):
        knn_label_certainty(**kwargs)


@given(
    k=st.integers(1, 9),
    split=st.integers(0, 9),
    labels=st.sampled_from([("Relevant", "Irrelevant"), ("Factual", "NonFactual"), ("Positive", "Negative")]),
)
def test_certainty_rows_sum_to_one(k, split, labels):
    first = min(split, k)
    row = knn_label_certainty({labels[0]: first, labels[1]: k - first}, 1.0, labels)
    assert abs(sum(row.values()) - 1.0) <= 1e-12
    assert all(v > 0 for v in row.values())


def test_aggregate_two_workers():
    w1 = {
        1: {"Relevant": 0.8, "Irrelevant": 0.2},
        2: {"Factual": 0.4, "NonFactual": 0.6},
        3: {"Positive": 0.3, "Negative": 0.7},
    }
    w2 = {
        1: {"Relevant": 0.7, "Irrelevant": 0.3},
        2: {"Factual": 0.2, "NonFactual": 0.8},
        3: {"Positive": 0.5, "Negative": 0.5},
    }
    # level averages (.75, .7) and (.3, .7) and (.4, .6); the level-3 tie in
    # w2 widens the predicted set to both polarities, so the .6 average wins
    assert aggregate_certainties([w1, w2]) == pytest.approx(41 / 60, abs=1e-12)


def test_aggregate_fully_certain_worker():
    rows = [
        {
            1: {"Relevant": 1.0, "Irrelevant": 0.0},
            2: {"Factual": 0.0, "NonFactual": 1.0},
            3: {"Positive": 1.0, "Negative": 0.0},
        }
    ]
    assert aggregate_certainties(rows) == 1.0


def test_aggregate_partial_level_coverage():
    # only one worker saw level 2; its row alone sets that level's maximum
    w1 = {1: {"Relevant": 0.6, "Irrelevant": 0.4}}
    w2 = {1: {"Relevant": 0.8, "Irrelevant": 0.2}, 2: {"Factual": 0.75, "NonFactual": 0.25}}
    assert aggregate_certainties([w1, w2]) == pytest.approx((0.7 + 0.75) / 2, abs=1e-12)


certainty_values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # a coarse grid, so rows tie often
worker_rows = st.lists(
    st.sets(st.sampled_from(LEVELS), min_size=1).flatmap(
        lambda levels: st.fixed_dictionaries(
            {lvl: st.fixed_dictionaries({lab: certainty_values for lab in LEVEL_LABELS[lvl]}) for lvl in sorted(levels)}
        )
    ),
    min_size=1,
    max_size=4,
)


@given(rows=worker_rows)
def test_aggregate_matches_direct_evaluation(rows):
    assert aggregate_certainties(rows) == pytest.approx(certainty_direct(rows), abs=1e-12)


def test_float_sums_run_left_to_right():
    # sum() of floats is compensated from Python 3.12 on, and rounds both of
    # these sums the other way; the outputs must not depend on the version
    tallies = {1: Counter({"Relevant": 1}), 2: Counter({"NonFactual": 4}), 3: Counter({"Positive": 1})}
    assert agreement_score(tallies) == 0.9999999999999999
    assert aggregate_certainties([{1: {"Relevant": 0.9, "Irrelevant": 0.1}}] * 10) == 0.9000000000000001


def test_aggregate_needs_rows():
    with pytest.raises(ValueError):
        aggregate_certainties([])


def _worker_dataset(workers, texts=None):
    ids = {a.tweet_id for w in workers.values() for a in w.annotations}
    return Dataset(workers=workers, texts=texts or {tid: f"text of {tid}" for tid in sorted(ids)})


def _full_path_annotation(tweet, duration=3.0):
    return Annotation(
        tweet_id=tweet,
        labels=label_path("Relevant", "NonFactual", "Positive"),
        duration=duration,
    )


@pytest.mark.parametrize("k, expected", [(1, 2 / 3), (9, 5 / 6)])
def test_predictor_certainties_single_worker(k, expected):
    # 5 identically labeled tweets, train 4 / test 1: each level's row is
    # (min(k, 4) + 1, 1) / (min(k, 4) + 2), so k=1 gives level maxima 2/3
    # and k=9, capped at the 4 pool tweets, gives 5/6. The four training
    # tweets are imputed the one test tweet's value.
    annotations = [_full_path_annotation(f"t{i}") for i in range(5)]
    ds = _worker_dataset({"w1": Worker("MD", "M", annotations)})
    result = predictor_certainties(ds, _config(split_ratio=0.8, k_certainty=k))
    assert len(result.imputed) == 4
    assert sorted(result.values) == [f"t{i}" for i in range(5)]
    for value in result.values.values():
        assert value == pytest.approx(expected, abs=1e-12)


CERTAINTY_PATHS = (
    label_path("Irrelevant"),
    label_path("Relevant", "Factual"),
    label_path("Relevant", "NonFactual", "Positive"),
    label_path("Relevant", "NonFactual", "Negative"),
)


@given(
    paths=st.lists(st.sampled_from(CERTAINTY_PATHS), min_size=2, max_size=12),
    words=st.lists(st.lists(st.sampled_from(("rain", "vote", "poll")), max_size=3), min_size=12, max_size=12),
    k=st.integers(0, 6),
    seed=st.integers(0, 3),
)
def test_certainty_counts_the_first_k_ranked_neighbors(paths, words, k, seed):
    # each text opens with its own tweet id, which names the tweet at a pool
    # position; the shared words make similarity ties common
    ids = [f"t{i:02d}" for i in range(len(paths))]
    labels = dict(zip(ids, paths))
    annotations = [Annotation(tid, path, 1.0) for tid, path in labels.items()]
    ds = _worker_dataset({"w1": Worker("MD", "M", annotations)}, {tid: " ".join([tid, *w]) for tid, w in zip(ids, words)})
    if k < 1:
        with pytest.raises(AnnodiffError, match="--k-certainty"):
            _config(k_certainty=k, seed=seed)
        return
    pools, ranked, counted = [], [], []
    real_rank = difficulty.rank_by_similarity

    def recording_rows(queries, pool, metric):
        pools.append([sequence[0] for sequence in pool])
        return textsim.similarity_rows(queries, pool, metric)

    def recording_rank(sims, rng, depth):
        ranked.append(real_rank(sims, rng, depth))
        return ranked[-1]

    def recording_certainty(counts, smoothing, candidates):
        counted.append((dict(counts), candidates))
        return knn_label_certainty(counts, smoothing, candidates)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(difficulty, "similarity_rows", recording_rows)
        patch.setattr(difficulty, "rank_by_similarity", recording_rank)
        patch.setattr(difficulty, "knn_label_certainty", recording_certainty)
        predictor_certainties(ds, _config(k_certainty=k, seed=seed))
    [train] = pools
    assert len(ranked) == len(counted) > 0
    for order, (counts, candidates) in zip(ranked, counted):
        level = next(level for level, level_labels in LEVEL_LABELS.items() if level_labels == candidates)
        # a level's pool: the training tweets labeled at that level, in training order
        pool_labels = [labels[tid][level - 1] for tid in train if labels[tid][level - 1] != NO_LABEL]
        assert len(order) == min(k, len(pool_labels))
        assert counts == Counter(pool_labels[i] for i in order)


def test_predictor_certainties_imputes_training_only_tweets():
    annotations = [_full_path_annotation(f"t{i}") for i in range(2)]
    ds = _worker_dataset({"w1": Worker("MD", "M", annotations)})
    result = predictor_certainties(ds, _config())
    assert len(result.imputed) == 1
    assert set(result.values) == {"t0", "t1"}
    # the imputed tweet carries the population mean, here the other's value
    values = list(result.values.values())
    assert values[0] == pytest.approx(values[1])


def test_predictor_certainties_rejects_bad_split():
    # the certainty split is refused when the config is built, before scoring
    with pytest.raises(AnnodiffError, match="--split"):
        _config(split_ratio=1.0)


# --- labeling cost ---


def _priced_dataset(costs):
    workers = {}
    for i, (tid, seconds) in enumerate(sorted(costs.items())):
        annotation = Annotation(tweet_id=tid, labels=label_path("Irrelevant"), duration=seconds)
        workers[f"w{i}"] = Worker("MD", "M", [annotation])
    return _worker_dataset(workers)


def test_cost_normalization():
    ds = _priced_dataset({"ta": 2.0, "tb": 4.0, "tc": 10.0})
    costs = labeling_costs(ds)
    assert costs["ta"] == 1.0
    assert costs["tb"] == pytest.approx(0.75)
    assert costs["tc"] == 0.0


def test_cost_degenerate_population():
    ds = _priced_dataset({"ta": 3.0, "tb": 3.0})
    assert labeling_costs(ds) == {"ta": 1.0, "tb": 1.0}


def test_cost_median_skips_incomplete_annotations():
    complete = _full_path_annotation("t0", duration=6.0)
    incomplete = _full_path_annotation("t0", duration=None)
    cheap = Annotation("t1", label_path("Irrelevant"), 1.0)
    ds = _worker_dataset(
        {"w1": Worker("MD", "M", [complete]), "w2": Worker("MD", "M", [incomplete]), "w3": Worker("MD", "M", [cheap])}
    )
    costs = labeling_costs(ds)
    # t0's median uses only the complete annotation: 6 seconds against 1
    assert costs == {"t0": 0.0, "t1": 1.0}


def test_cost_missing_tweet_is_absent():
    ds = _priced_dataset({"ta": 2.0, "tb": 4.0})
    undurated = Annotation("tc", label_path("Irrelevant"), None)
    ds.workers["w9"] = Worker("MD", "M", [undurated])
    ds.texts["tc"] = "text of tc"
    assert labeling_costs(ds) == {"ta": 1.0, "tb": 0.0}


def test_cost_median_overflow_names_the_tweet():
    # two finite totals whose mean overflows: median (a + b) / 2 is infinite
    big = [Annotation("tb", label_path("Irrelevant"), 1.7e308) for _ in range(2)]
    cheap = Annotation("ta", label_path("Irrelevant"), 1.0)
    ds = _worker_dataset({f"w{i}": Worker("MD", "M", [a]) for i, a in enumerate((*big, cheap))})
    with pytest.raises(AnnodiffError, match="tweet tb: the median labeling duration overflows"):
        labeling_costs(ds)


@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=2, max_size=12, unique=True))
def test_cost_is_antitone_in_raw_seconds(seconds):
    ds = _priced_dataset({f"t{i:02d}": s for i, s in enumerate(seconds)})
    costs = labeling_costs(ds)
    ranked = sorted(costs.items(), key=lambda item: seconds[int(item[0][1:])])
    values = [v for _, v in ranked]
    assert values[0] == 1.0
    assert values[-1] == 0.0
    assert all(a >= b for a, b in zip(values, values[1:]))


# --- end-to-end scoring ---


@pytest.fixture(scope="module")
def small_synthetic():
    return generate_dataset(SynthConfig(n_workers=4, n_easy=8, n_difficult=8, seed=3))


def test_scores_are_component_sums_in_range(small_synthetic):
    result = difficulty_scores(small_synthetic, _config())
    assert len(result.scores) == 16
    assert not result.excluded
    for s in result.scores:
        assert s.ds == s.agreement + s.certainty + s.cost
        assert 0.0 <= s.agreement <= 1.0
        assert 0.0 <= s.certainty <= 1.0
        assert 0.0 <= s.cost <= 1.0
        assert s.klass in (EASY, DIFFICULT)


def test_easy_class_has_higher_mean_score(small_synthetic):
    scores = difficulty_scores(small_synthetic, _config()).scores
    easy = [s.ds for s in scores if s.klass == EASY]
    difficult = [s.ds for s in scores if s.klass == DIFFICULT]
    assert easy and difficult
    assert sum(easy) / len(easy) > sum(difficult) / len(difficult)


def test_scoring_is_deterministic(small_synthetic):
    config = _config(seed=21)
    first = difficulty_scores(small_synthetic, config)
    second = difficulty_scores(small_synthetic, config)
    assert first.scores == second.scores
    assert first.imputed_certainty == second.imputed_certainty


def test_agreement_derives_no_seed(small_synthetic, monkeypatch):
    # agreement reads only per-level label counts, so it draws nothing
    purposes = []
    stable_seed = difficulty.stable_seed

    def recording_seed(*parts):
        purposes.append(parts)
        return stable_seed(*parts)

    monkeypatch.setattr(difficulty, "stable_seed", recording_seed)
    difficulty_scores(small_synthetic, _config())
    assert purposes, "the certainty split and order seeds are derived here"
    assert not [parts for parts in purposes if "majority" in parts]


def test_certainty_computes_one_row_per_test_tweet_and_each_pair_once(small_synthetic, monkeypatch):
    calls = []
    similarity_rows = difficulty.similarity_rows

    def recording_rows(queries, pool, metric):
        rows = similarity_rows(queries, pool, metric)
        calls.append((len(queries), len(pool), [len(row) for row in rows]))
        return rows

    def no_pair_lookups(*args, **kwargs):
        raise AssertionError("certainty must read similarity rows, not single pairs")

    monkeypatch.setattr(difficulty, "similarity_rows", recording_rows)
    monkeypatch.setattr(textsim.PairSimilarity, "sim", no_pair_lookups)
    monkeypatch.setattr(textsim, "nsim", no_pair_lookups)
    config = _config()
    predictor_certainties(small_synthetic, config)
    # one call per worker; each of its test tweets gets one row against all
    # of its training tweets, whatever the levels they are labeled at
    expected = []
    for wid in small_synthetic.worker_ids():
        n = len(small_synthetic.workers[wid].annotations)
        train = max(1, math.floor(config.split_ratio * n))
        expected.append((n - train, train, [train] * (n - train)))
    assert calls == expected


def test_scoring_reports_cost_exclusions():
    config = SynthConfig(n_workers=3, n_easy=6, n_difficult=6, seed=5)
    ds = generate_dataset(config)
    bare = Annotation("tx", label_path("Irrelevant"), None)
    ds.workers["md_w00"].annotations.append(bare)
    ds.texts["tx"] = "a tweet nobody timed"
    result = difficulty_scores(ds, _config())
    assert result.excluded == {"tx": "no labeling durations"}
    assert all(s.tweet_id != "tx" for s in result.scores)


def test_scoring_single_tweet_fails():
    ds = _worker_dataset({"w1": Worker("MD", "M", [_full_path_annotation("t0")])})
    with pytest.raises(AnnodiffError):
        difficulty_scores(ds, _config())
