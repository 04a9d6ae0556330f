"""Hierarchical kNN prediction and the hierarchical F1 metric."""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from annodiff.knn import (
    PredictedPath,
    coerce_structure,
    hierarchical_f1,
    predict,
    rank_by_similarity,
    train,
    vote,
)
from annodiff.labels import LabelPath, NO_LABEL, label_set
from annodiff.textsim import SimilarityMetric, nsim
from oracles import hier_f1_direct, path_label_set

PATHS = [
    LabelPath("Irrelevant"),
    LabelPath("Relevant", "Factual"),
    LabelPath("Relevant", "NonFactual", "Positive"),
    LabelPath("Relevant", "NonFactual", "Negative"),
]


def test_label_set_closure():
    assert label_set(("Relevant", "NonFactual", "Negative")) == {"Relevant", "NonFactual", "Negative"}
    assert label_set(("Irrelevant", NO_LABEL, None)) == {"Irrelevant"}


def test_train_builds_three_predictors():
    examples = [(("w",) * (i + 1), PATHS[i % 4]) for i in range(5)]
    predictors = train(examples, SimilarityMetric.EDIT, k=3)
    assert [p.level for p in predictors] == [1, 2, 3]
    assert all(len(p.examples) == 5 for p in predictors)
    # blank levels become an explicit class
    assert predictors[2].examples[0][1] == NO_LABEL
    assert predictors[1].examples[1][1] == "Factual"


def test_train_effective_k_caps_at_pool_size():
    examples = [(("x",), LabelPath("Irrelevant"))] * 5
    predictors = train(examples, SimilarityMetric.EDIT, k=9)
    assert predictors[0].effective_k == 5


def test_train_validation():
    with pytest.raises(ValueError):
        train([], SimilarityMetric.EDIT, k=3)
    with pytest.raises(ValueError):
        train([(("x",), PATHS[0])], SimilarityMetric.EDIT, k=0)


def test_predict_exact_match_k1():
    examples = [
        (("budget", "plan", "works"), LabelPath("Relevant", "NonFactual", "Positive")),
        (("boring", "rerun", "tonight"), LabelPath("Irrelevant")),
    ]
    predictors = train(examples, SimilarityMetric.SUBSTRING, k=1)
    path = predict(predictors, ("budget", "plan", "works"), seed=0)
    assert path == PredictedPath("Relevant", "NonFactual", "Positive")
    path = predict(predictors, ("boring", "rerun", "tonight"), seed=0)
    assert path == PredictedPath("Irrelevant", NO_LABEL, NO_LABEL)


def test_predict_only_irrelevant_training():
    predictors = train([(("zzz",), LabelPath("Irrelevant"))], SimilarityMetric.EDIT, k=3)
    path = predict(predictors, ("anything", "else"), seed=7)
    assert path == PredictedPath("Irrelevant", NO_LABEL, NO_LABEL)


def test_predict_deterministic_under_seed():
    examples = [(tuple(f"w{i}{j}" for j in range(3)), PATHS[i % 4]) for i in range(6)]
    predictors = train(examples, SimilarityMetric.SUBSEQUENCE, k=3)
    queries = [tuple(f"w{i}{j}" for j in range(2)) for i in range(6)]
    first = [predict(predictors, q, seed=11) for q in queries]
    second = [predict(predictors, q, seed=11) for q in queries]
    assert first == second


@pytest.mark.parametrize(
    "raw,expected",
    [
        (("Irrelevant", "NonFactual", "Positive"), ("Irrelevant", NO_LABEL, NO_LABEL)),
        (("Relevant", "Factual", "Positive"), ("Relevant", "Factual", NO_LABEL)),
        (("Relevant", NO_LABEL, "Negative"), ("Relevant", NO_LABEL, NO_LABEL)),
        (("Relevant", "NonFactual", "Negative"), ("Relevant", "NonFactual", "Negative")),
    ],
)
def test_coerce_structure(raw, expected):
    assert coerce_structure(*raw) == PredictedPath(*expected)


def test_rank_by_similarity_orders_descending():
    sims = [0.2, 0.9, 0.4, 0.9, 0.1]
    order = rank_by_similarity(sims, random.Random(3))
    assert [sims[i] for i in order] == [0.9, 0.9, 0.4, 0.2, 0.1]
    assert set(order[:2]) == {1, 3}


def test_rank_by_similarity_deterministic():
    sims = [0.5] * 6
    assert rank_by_similarity(sims, random.Random(9)) == rank_by_similarity(sims, random.Random(9))


def _rng(seed):
    return lambda: random.Random(seed)


def test_vote_plurality():
    assert vote({"Positive": 2, "Negative": 1}, _rng(0)) == "Positive"


def test_vote_unique_winner_derives_no_rng():
    def make_rng():
        raise AssertionError("make_rng called without a tie")

    assert vote(Counter(["Positive", "Positive", "Negative"]), make_rng) == "Positive"
    assert vote({"Irrelevant": 3}, make_rng) == "Irrelevant"


def test_vote_tie_breaks_within_tied_set():
    winners = {vote({"Positive": 1, "Negative": 1}, _rng(seed)) for seed in range(20)}
    assert winners == {"Positive", "Negative"}


def test_vote_tie_draws_in_label_order():
    # the draw sees the tied labels in LABEL_ORDER, whatever order the counts
    # mapping holds them in, so it matches a seeded choice over that order
    for seed in range(20):
        expected = random.Random(seed).choice(["Factual", "NonFactual", NO_LABEL])
        counts = {NO_LABEL: 2, "NonFactual": 2, "Positive": 1, "Factual": 2}
        assert vote(counts, _rng(seed)) == expected


def test_vote_rejects_empty():
    with pytest.raises(ValueError):
        vote({}, _rng(0))
    with pytest.raises(ValueError):
        vote({"Positive": 0}, _rng(0))


words = st.lists(st.sampled_from([f"w{i}" for i in range(8)]), min_size=1, max_size=5).map(tuple)
examples_strategy = st.lists(
    st.tuples(words, st.sampled_from(PATHS)), min_size=1, max_size=8
)


@given(examples=examples_strategy, query=words, k=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_duplicating_training_set_with_doubled_k_is_noop(examples, query, k, seed):
    sims = sorted((nsim(query, ex_words, SimilarityMetric.EDIT) for ex_words, _ in examples), reverse=True)
    k_eff = min(k, len(examples))
    # a similarity tie spanning the cut makes the neighbor set genuinely
    # ambiguous, which doubling resolves differently; skip those draws
    assume(k_eff == len(examples) or sims[k_eff - 1] > sims[k_eff])
    single = predict(train(examples, SimilarityMetric.EDIT, k), query, seed)
    doubled = predict(train(examples + examples, SimilarityMetric.EDIT, 2 * k), query, seed)
    assert single == doubled


# --- hierarchical F1 ---


def as_predicted(path):
    return PredictedPath(path.level1, path.level2 or NO_LABEL, path.level3 or NO_LABEL)


def test_f1_perfect_predictions():
    pairs = [(p, as_predicted(p)) for p in PATHS]
    assert hierarchical_f1(pairs) == 1.0


def test_f1_partial_overlap():
    truth = LabelPath("Relevant", "NonFactual", "Negative")
    predicted = PredictedPath("Relevant", "Factual", NO_LABEL)
    # one of two predicted labels is right, one of three truth labels found
    assert hierarchical_f1([(truth, predicted)]) == pytest.approx(0.4, abs=1e-12)


def test_f1_no_overlap_is_zero():
    truth = LabelPath("Irrelevant")
    predicted = PredictedPath("Relevant", "Factual", NO_LABEL)
    assert hierarchical_f1([(truth, predicted)]) == 0.0


def test_f1_rejects_empty():
    with pytest.raises(ValueError):
        hierarchical_f1([])


def test_f1_flat_case_equals_micro_f1():
    # single-level paths on both sides collapse to plain micro-averaged F1,
    # which for one label per item is accuracy
    truth = [LabelPath("Irrelevant")] * 10
    predicted = [PredictedPath("Irrelevant", NO_LABEL, NO_LABEL)] * 7 + [
        PredictedPath("Relevant", NO_LABEL, NO_LABEL)
    ] * 3
    pairs = list(zip(truth, predicted))
    assert hierarchical_f1(pairs) == pytest.approx(0.7, abs=1e-12)


predicted_paths = st.sampled_from(
    [
        PredictedPath("Irrelevant", NO_LABEL, NO_LABEL),
        PredictedPath("Relevant", "Factual", NO_LABEL),
        PredictedPath("Relevant", "NonFactual", NO_LABEL),
        PredictedPath("Relevant", "NonFactual", "Positive"),
        PredictedPath("Relevant", "NonFactual", "Negative"),
    ]
)
pair_lists = st.lists(st.tuples(st.sampled_from(PATHS), predicted_paths), min_size=1, max_size=20)


@given(pairs=pair_lists)
def test_f1_matches_direct_formula(pairs):
    expected = hier_f1_direct(
        [
            (path_label_set(t.level1, t.level2, t.level3), path_label_set(p.level1, p.level2, p.level3))
            for t, p in pairs
        ]
    )
    value = hierarchical_f1(pairs)
    assert value == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= value <= 1.0


@given(pairs=pair_lists, data=st.data())
def test_f1_permutation_invariant(pairs, data):
    shuffled = data.draw(st.permutations(pairs))
    assert hierarchical_f1(shuffled) == pytest.approx(hierarchical_f1(pairs), abs=1e-12)


@given(pairs=pair_lists, extra=st.sampled_from(PATHS))
def test_f1_never_drops_when_perfect_pair_added(pairs, extra):
    base = hierarchical_f1(pairs)
    extended = hierarchical_f1(pairs + [(extra, as_predicted(extra))])
    assert extended >= base - 1e-12
