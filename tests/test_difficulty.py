"""Agreement, certainty, and cost components plus end-to-end scoring."""

import math
import tracemalloc
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
    difficulty_scores,
    knn_label_certainty,
    labeling_costs,
    majority_labels,
    predictor_certainties,
)
from annodiff.errors import AnnodiffError
from annodiff.labels import LEVEL_LABELS, LEVELS, NO_LABEL, label_path, path_labels
from annodiff.synth import SynthConfig, generate_dataset
from oracles import (
    SHARED_SPLIT,
    agreement_direct,
    certainty_direct,
    certainty_rows_direct,
    shared_test_tweet_dataset,
)


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
    # 1 of 3 neighbors say Factual, 2 NonFactual
    assert knn_label_certainty(1, 3, 1.0) == 2 / 5
    assert knn_label_certainty(2, 3, 1.0) == 3 / 5


def test_certainty_row_never_zero():
    assert knn_label_certainty(0, 3, 1.0) == pytest.approx(0.2)
    assert knn_label_certainty(3, 3, 1.0) == pytest.approx(0.8)


def _ungrouped_certainties(ds, config):
    """predictor_certainties with Dataset.annotations_by_tweet refused: it
    reads the labeled ids from the workers' annotations, so no per-tweet
    groups are alive during its kNN."""

    def refused(self):
        raise AssertionError("predictor_certainties built the per-tweet groups")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dataset, "annotations_by_tweet", refused)
        return predictor_certainties(ds, config)


def _shared_certainty(training_paths, **settings):
    """Certainty of the tweet "t" that every worker tests alone, against
    training pools with the given label paths."""
    ds = shared_test_tweet_dataset(training_paths)
    result = _ungrouped_certainties(ds, _config(split_ratio=SHARED_SPLIT, **settings))
    assert result.imputed == sorted(set(result.values) - {"t"})
    return result.values["t"]


IRR = label_path("Irrelevant")
FAC = label_path("Relevant", "Factual")
POS = label_path("Relevant", "NonFactual", "Positive")
NEG = label_path("Relevant", "NonFactual", "Negative")


@pytest.mark.parametrize(
    "training_paths, settings",
    [
        # a level no training tweet is labeled at gives no value
        ({"w1": [IRR, IRR]}, {}),
        # a pool smaller than k: every pool tweet is a neighbor
        ({"w1": [FAC, POS, IRR]}, {"k_certainty": 9}),
        # one neighbor, no smoothing: certainties 1/3 and 0
        ({"w1": [POS]}, {"smoothing": 0.0}),
        # workers whose pools cover different levels
        ({"w1": [IRR], "w2": [NEG, NEG], "w3": [FAC, POS, IRR]}, {"k_certainty": 2, "smoothing": 0.5}),
    ],
)
def test_certainty_row_validation(training_paths, settings):
    # the rows that predictor_certainties sums are always well formed: k >= 1
    # is refused below 1 by RunConfig, a level's labels are its two candidates
    # by label_path, and a level with an empty pool gives no row; so the
    # value is the README rule over the direct rows
    ds = shared_test_tweet_dataset(training_paths)
    config = _config(split_ratio=SHARED_SPLIT, **settings)
    [rows] = certainty_rows_direct(ds, config).values()
    assert len(rows) == len(training_paths)
    assert predictor_certainties(ds, config).values["t"] == pytest.approx(certainty_direct(rows), abs=1e-12)


@given(
    k=st.integers(1, 9),
    split=st.integers(0, 9),
)
def test_certainty_rows_sum_to_one(k, split):
    first = min(split, k)
    row = [knn_label_certainty(first, k, 1.0), knn_label_certainty(k - first, k, 1.0)]
    assert abs(sum(row) - 1.0) <= 1e-12
    assert all(v > 0 for v in row)


def test_aggregate_two_workers():
    # w1's rows are (4/5, 1/5), (2/5, 3/5), (2/4, 2/4) and w2's (3/5, 2/5),
    # (2/4, 2/4), (2/3, 1/3); the level averages' maxima are 7/10, 11/20 and
    # 7/12, whose mean is 11/18
    value = _shared_certainty({"w1": [POS, NEG, FAC], "w2": [IRR, FAC, POS]}, k_certainty=3)
    assert value == pytest.approx(11 / 18, abs=1e-12)


def test_aggregate_unanimous_worker():
    # without smoothing, a unanimous pool of k is as certain as k neighbors
    # among two labels allow, k / (k + 2), at every level
    assert _shared_certainty({"w1": [POS] * 8}, k_certainty=8, smoothing=0.0) == pytest.approx(0.8, abs=1e-12)


def test_aggregate_partial_level_coverage():
    # only w2's pool is labeled at level 2; its row alone sets that level's
    # maximum: (5/8 + 2/3) / 2
    value = _shared_certainty({"w1": [IRR, IRR], "w2": [FAC, IRR]})
    assert value == pytest.approx(31 / 48, abs=1e-12)


workers_paths = st.lists(
    st.lists(st.tuples(st.sampled_from([IRR, FAC, POS, NEG]), st.lists(st.sampled_from("abc"), max_size=3)), min_size=2, max_size=8),
    min_size=1,
    max_size=3,
)


@given(workers=workers_paths, shared=st.integers(0, 8), k=st.integers(1, 4), seed=st.integers(0, 3))
def test_aggregate_matches_direct_evaluation(workers, shared, k, seed):
    # tweet ids come from one small range, so workers share some of them, and
    # the texts draw from three words, so similarities tie often
    by_worker, texts = {}, {}
    for w, labeled in enumerate(workers):
        ids = [f"t{(i + w * shared) % 12:02d}" for i in range(len(labeled))]
        by_worker[f"w{w}"] = Worker("MD", "M", [Annotation(tid, path, 1.0) for tid, (path, _) in zip(ids, labeled)])
        texts.update({tid: " ".join(words) for tid, (_, words) in zip(ids, labeled)})
    ds = Dataset(workers=by_worker, texts=texts)
    config = _config(k_certainty=k, seed=seed)
    result = _ungrouped_certainties(ds, config)
    rows = certainty_rows_direct(ds, config)
    for tid, tweet_rows in rows.items():
        assert result.values[tid] == pytest.approx(certainty_direct(tweet_rows), abs=1e-12)
    assert result.imputed == (sorted(set(texts) - set(rows)) if rows else [])


def test_float_sums_run_left_to_right():
    # sum() of floats is compensated from Python 3.12 on, and rounds both of
    # these sums the other way; the outputs must not depend on the version
    tallies = {1: Counter({"Relevant": 1}), 2: Counter({"NonFactual": 4}), 3: Counter({"Positive": 1})}
    assert agreement_score(tallies) == 0.9999999999999999
    # ten workers whose levels 1 and 2 each certify 9/10, summed in order
    pools = {f"w{i}": [FAC] * 8 for i in range(10)}
    assert _shared_certainty(pools, k_certainty=8) == 0.9000000000000001


def test_aggregate_needs_rows():
    # workers of one tweet train on it and test nothing: no tweet gets a
    # certainty, and there is no population mean to impute
    ds = _worker_dataset({f"w{i}": Worker("MD", "M", [_full_path_annotation(f"t{i}")]) for i in range(3)})
    assert predictor_certainties(ds, _config()) == ({}, [])


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
    pools, queries, seeds, ranked, counted = [], [], [], [], []
    real_rank, real_seed = difficulty.rank_by_similarity, difficulty.stable_seed

    def recorded(sequences):
        for sequence in sequences:
            queries.append(sequence[0])
            yield sequence

    def recording_rows(test, pool):
        pools.append([sequence[0] for sequence in pool])
        return textsim.similarity_rows(recorded(test), pool)

    def recording_seed(*parts):
        seeds.append(parts)
        return real_seed(*parts)

    def recording_rank(sims, candidates, rng, depth):
        # the (tweet, level) of the order seed derived just before
        _, purpose, _, tid, level = seeds[-1]
        assert purpose == "certainty-order"
        ranked.append((tid, level, real_rank(sims, candidates, rng, depth)))
        return ranked[-1][2]

    def recording_certainty(count, k, smoothing):
        counted.append((count, k))
        return knn_label_certainty(count, k, smoothing)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(difficulty, "similarity_rows", recording_rows)
        patch.setattr(difficulty, "stable_seed", recording_seed)
        patch.setattr(difficulty, "rank_by_similarity", recording_rank)
        patch.setattr(difficulty, "knn_label_certainty", recording_certainty)
        predictor_certainties(ds, _config(k_certainty=k, seed=seed))
    [train] = pools
    # a level's pool: the training positions labeled at that level
    level_pools = {level: [p for p, tid in enumerate(train) if labels[tid][level - 1] != NO_LABEL] for level in LEVELS}
    # one ranking per (test tweet, level with a pool), and a certainty for each of the level's two labels
    assert [(tid, level) for tid, level, _ in ranked] == [(tid, level) for tid in queries for level in LEVELS if level_pools[level]]
    assert len(counted) == 2 * len(ranked) > 0
    for (tid, level, order), first, second in zip(ranked, counted[::2], counted[1::2]):
        assert len(order) == min(k, len(level_pools[level]))
        assert set(order) <= set(level_pools[level])
        counts = Counter(labels[train[p]][level - 1] for p in order)
        candidates = LEVEL_LABELS[level]
        assert [first, second] == [(counts[candidates[0]], len(order)), (counts[candidates[1]], len(order))]


def test_predictor_certainties_imputes_training_only_tweets():
    annotations = [_full_path_annotation(f"t{i}") for i in range(2)]
    ds = _worker_dataset({"w1": Worker("MD", "M", annotations)})
    result = _ungrouped_certainties(ds, _config())
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


def test_scoring_groups_tweets_after_the_certainty_knn(small_synthetic, monkeypatch):
    # the per-tweet groups are built once certainty has returned, by the
    # cost component and then for agreement, so they are not alive during
    # the certainty kNN
    calls = []
    certainties, groups = difficulty.predictor_certainties, Dataset.annotations_by_tweet

    def recording_certainties(dataset, config):
        calls.append("certainty starts")
        result = certainties(dataset, config)
        calls.append("certainty returns")
        return result

    def recording_groups(self):
        calls.append("groups")
        return groups(self)

    monkeypatch.setattr(difficulty, "predictor_certainties", recording_certainties)
    monkeypatch.setattr(Dataset, "annotations_by_tweet", recording_groups)
    difficulty_scores(small_synthetic, _config())
    assert calls == ["certainty starts", "certainty returns", "groups", "groups"]


def test_certainty_computes_one_row_per_test_tweet_and_each_pair_once(small_synthetic, monkeypatch):
    calls = []
    similarity_rows = difficulty.similarity_rows

    def recording_rows(queries, pool):
        # passes on every row it records, as certainty pulls them
        queries = list(queries)
        lengths = []
        calls.append((len(queries), len(pool), lengths))
        for row in similarity_rows(queries, pool):
            lengths.append(len(row))
            yield row

    def no_pair_lookups(*args, **kwargs):
        raise AssertionError("certainty must read similarity rows, not single pairs")

    config = _config()
    unwrapped = predictor_certainties(small_synthetic, config)
    monkeypatch.setattr(difficulty, "similarity_rows", recording_rows)
    monkeypatch.setattr(textsim.PairSimilarity, "sim", no_pair_lookups)
    monkeypatch.setattr(textsim, "nsim", no_pair_lookups)
    result = predictor_certainties(small_synthetic, config)
    # every tweet here lands in some worker's test partition, so a row that
    # went missing would show up as an imputed tweet
    assert result == unwrapped
    assert not result.imputed
    # one call per worker; each of its test tweets gets one row against all
    # of its training tweets, whatever the levels they are labeled at
    expected = []
    for wid in small_synthetic.worker_ids():
        n = len(small_synthetic.workers[wid].annotations)
        train = max(1, math.floor(config.split_ratio * n))
        expected.append((n - train, train, [train] * (n - train)))
    assert calls == expected


def test_certainty_refuses_a_short_row_stream(small_synthetic, monkeypatch):
    # a stream that ends before the test tweets do raises, where a plain zip
    # would leave the tweets without a row to the imputed mean
    similarity_rows = difficulty.similarity_rows

    def short_rows(queries, pool):
        rows = similarity_rows(queries, pool)
        next(rows)
        return rows

    monkeypatch.setattr(difficulty, "similarity_rows", short_rows)
    with pytest.raises(ValueError, match="shorter"):
        predictor_certainties(small_synthetic, _config())


def _certainty_peak_bytes(n: int) -> int:
    ds = generate_dataset(SynthConfig(n_workers=1, n_easy=n // 2, n_difficult=n // 2, seed=5))
    tracemalloc.start()
    try:
        predictor_certainties(ds, _config())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certainty_memory_grows_with_the_pool_not_pool_times_test():
    # one worker labels every tweet, so its training pool and its test
    # tweets both double with n; rows held all at once would grow about 4x
    # (3.1x measured with the matrix of all rows, 1.8x with streamed rows)
    small, large = _certainty_peak_bytes(500), _certainty_peak_bytes(1000)
    assert large < 2.5 * small, (small, large)


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


def test_scoring_an_empty_dataset_fails_for_want_of_a_scored_tweet():
    # scoring does not refuse an empty dataset by itself: no tweet has all
    # three components, and that refusal exits 1 like any bad input
    with pytest.raises(AnnodiffError, match="^no tweet has all three score components$"):
        difficulty_scores(Dataset(workers={}, texts={}), _config())
