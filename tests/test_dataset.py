"""JSONL ingestion, validation diagnostics, and majority counts."""

import json

import pytest
from hypothesis import given, strategies as st

from annodiff.dataset import (
    Annotation,
    majority_from_votes,
    majority_labels,
    parse_dataset,
    prune_labels,
)
from annodiff.errors import DatasetError
from annodiff.labels import LabelPath


def ann(worker, tweet, order, labels, durations=None, institution="MD", group="M"):
    record = {
        "worker_id": worker,
        "institution": institution,
        "group": group,
        "tweet_id": tweet,
        "order_index": order,
        "labels": labels,
    }
    if durations is not None:
        record["durations_s"] = durations
    return json.dumps(record)


def tw(tid, text="some sample words"):
    return json.dumps({"tweet_id": tid, "text": text})


FULL = {"l1": "Relevant", "l2": "NonFactual", "l3": "Negative"}
FULL_D = {"l1": 1.0, "l2": 2.0, "l3": 3.0}


def test_roundtrip_and_ordering():
    # annotation lines deliberately out of session order
    lines = [
        ann("w1", "t2", 2, {"l1": "Irrelevant"}, {"l1": 0.5}),
        ann("w1", "t1", 1, FULL, FULL_D),
        ann("w2", "t1", 1, {"l1": "Relevant", "l2": "Factual"}, {"l1": 1.5, "l2": 2.5}, group="S"),
    ]
    ds = parse_dataset(lines, [tw("t1"), tw("t2")])
    assert ds.worker_ids() == ["w1", "w2"]
    assert [a.tweet_id for a in ds.workers["w1"].annotations] == ["t1", "t2"]
    assert ds.workers["w2"].group == "S"
    assert ds.texts["t1"] == "some sample words"
    assert ds.institutions() == ["MD"]
    by_tweet = ds.annotations_by_tweet()
    assert sorted(by_tweet) == ["t1", "t2"]
    assert len(by_tweet["t1"]) == 2
    assert ds.workers["w1"].annotations[0].total_duration() == 6.0


def test_blank_lines_ignored():
    ds = parse_dataset(["", ann("w1", "t1", 1, FULL, FULL_D), "   "], [tw("t1"), ""])
    assert len(ds.workers["w1"].annotations) == 1


def test_filter_institution():
    lines = [
        ann("md1", "t1", 1, FULL, FULL_D),
        ann("su1", "t1", 1, FULL, FULL_D, institution="SU"),
    ]
    ds = parse_dataset(lines, [tw("t1")])
    md = ds.filter_institution("MD")
    assert md.worker_ids() == ["md1"]
    assert md.texts == ds.texts


def test_pruning_below_irrelevant():
    lines = [ann("w1", "t1", 1, {"l1": "Irrelevant", "l2": "Factual", "l3": "Positive"}, {"l1": 1.0, "l2": 2.0})]
    ds = parse_dataset(lines, [tw("t1")])
    a = ds.workers["w1"].annotations[0]
    assert a.labels == LabelPath("Irrelevant")
    assert a.durations == {1: 1.0}
    assert ds.pruned_label_count == 2


def test_prune_is_idempotent():
    labels = {"l1": "Irrelevant", "l2": "NonFactual", "l3": "Negative"}
    durations = {"l1": 1.0, "l3": 0.5}
    once = prune_labels(labels, durations)
    assert once[:2] == ({"l1": "Irrelevant"}, {"l1": 1.0})
    assert once[2] == 2
    again = prune_labels(once[0], once[1])
    assert again == (once[0], once[1], 0)
    untouched = prune_labels({"l1": "Relevant", "l2": "Factual"}, {"l1": 1.0})
    assert untouched == ({"l1": "Relevant", "l2": "Factual"}, {"l1": 1.0}, 0)


def test_incomplete_durations_flagged():
    lines = [ann("w1", "t1", 1, FULL, {"l1": 1.0})]
    ds = parse_dataset(lines, [tw("t1")])
    assert ds.missing_duration_count == 1
    assert ds.workers["w1"].annotations[0].total_duration() is None


def test_no_durations_at_all():
    ds = parse_dataset([ann("w1", "t1", 1, {"l1": "Irrelevant"})], [tw("t1")])
    assert ds.missing_duration_count == 1


ERROR_CASES = [
    ("{not json", [tw("t1")], "line 1"),
    (ann("w1", "t1", 1, FULL, FULL_D) + "\n[1, 2]", [tw("t1")], "line 2"),
    ('{"tweet_id": "t1"}', [tw("t1")], "missing field"),
    (ann("", "t1", 1, FULL), [tw("t1")], "worker_id"),
    (ann("w1", "", 1, FULL), [tw("t1")], "tweet_id"),
    (ann("w1", "t1", 1, FULL, institution="XX"), [tw("t1")], "institution"),
    (ann("w1", "t1", 1, FULL, group="XL"), [tw("t1")], "group"),
    (ann("w1", "t1", 0, FULL), [tw("t1")], "order_index"),
    (ann("w1", "t1", True, FULL), [tw("t1")], "order_index"),
    (json.dumps({"worker_id": "w1", "institution": "MD", "group": "M", "tweet_id": "t1", "order_index": 1, "labels": {"l2": "Factual"}}), [tw("t1")], "l1"),
    (ann("w1", "t1", 1, {"l1": "Relevant", "l4": "Extra"}), [tw("t1")], "unknown label level"),
    (ann("w1", "t1", 1, {"l1": "Spam"}), [tw("t1")], "Spam"),
    (ann("w1", "t1", 1, {"l1": "Relevant", "l3": "Positive"}), [tw("t1")], "line 1"),
    (ann("w1", "t1", 1, {"l1": "Relevant", "l2": "Factual", "l3": "Positive"}), [tw("t1")], "line 1"),
    (ann("w1", "t1", 1, {"l1": "Relevant", "l2": "Factual"}, {"l1": 1.0, "l3": 2.0}), [tw("t1")], "no label is present"),
    (ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l1": -1.0}), [tw("t1")], "non-negative"),
    (ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l1": float("nan")}), [tw("t1")], "non-negative"),
    (ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l1": float("inf")}), [tw("t1")], "finite non-negative"),
    (ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l1": 10**400}), [tw("t1")], "finite non-negative"),
    (ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l1": True}), [tw("t1")], "non-negative"),
    (
        ann("w1", "t1", 1, FULL, FULL_D) + "\n" + ann("w1", "t2", 2, FULL, {"l1": 1.5e308, "l2": 1.5e308, "l3": 1.5e308}),
        [tw("t1"), tw("t2")],
        "line 2: the summed per-level durations overflow a float",
    ),
    (ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l9": 1.0}), [tw("t1")], "unknown duration level"),
    (ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t1", 2, FULL), [tw("t1")], "twice"),
    (ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t2", 1, FULL), [tw("t1"), tw("t2")], "order_index 1"),
    (ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t2", 3, FULL), [tw("t1"), tw("t2")], "gaps"),
    (ann("w1", "missing", 1, FULL), [tw("t1")], "no text record"),
    (
        ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t2", 2, FULL, institution="SU"),
        [tw("t1"), tw("t2")],
        "different institution",
    ),
]


@pytest.mark.parametrize("annotation_text,tweet_lines,fragment", ERROR_CASES)
def test_annotation_validation_errors(annotation_text, tweet_lines, fragment):
    with pytest.raises(DatasetError) as exc:
        parse_dataset(annotation_text.split("\n"), tweet_lines)
    assert fragment in str(exc.value)


TWEET_ERROR_CASES = [
    (["{oops"], "line 1"),
    (['{"tweet_id": "t1"}'], "text"),
    (['{"tweet_id": 5, "text": "x"}'], "tweet_id"),
    ([tw("t1"), tw("t1")], "duplicate tweet_id"),
    (["[]"], "expected an object"),
]


@pytest.mark.parametrize("tweet_lines,fragment", TWEET_ERROR_CASES)
def test_tweet_validation_errors(tweet_lines, fragment):
    with pytest.raises(DatasetError) as exc:
        parse_dataset([], tweet_lines)
    assert fragment in str(exc.value)


def test_error_message_carries_path():
    with pytest.raises(DatasetError) as exc:
        parse_dataset(["{bad"], [], annotations_path="custom.jsonl")
    assert "custom.jsonl" in str(exc.value)


# --- majority counts ---


def test_majority_counts():
    votes = {
        1: ["Relevant"] * 4,
        2: ["Factual", "NonFactual", "NonFactual", "NonFactual"],
        3: ["Negative", "Negative", "Positive"],
    }
    result = majority_from_votes(votes)
    assert (result.levels[1].majority_count, result.levels[1].voter_count) == (4, 4)
    assert (result.levels[2].majority_count, result.levels[2].voter_count) == (3, 4)
    assert (result.levels[3].majority_count, result.levels[3].voter_count) == (2, 3)
    assert not any(lv.tie for lv in result.levels.values())


def test_majority_tie_flag():
    votes = {1: ["Relevant", "Irrelevant", "Relevant", "Irrelevant"]}
    result = majority_from_votes(votes)
    assert result.levels[1].tie
    assert (result.levels[1].majority_count, result.levels[1].voter_count) == (2, 4)


def test_majority_skips_empty_levels():
    result = majority_from_votes({1: ["Relevant"], 2: [], 3: []})
    assert sorted(result.levels) == [1]


LABELS = ["Relevant", "Irrelevant", "Factual", "NonFactual", "Positive", "Negative"]


@given(
    votes=st.dictionaries(
        st.sampled_from([1, 2, 3]),
        st.lists(st.sampled_from(LABELS), min_size=1, max_size=7),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_majority_permutation_invariant(votes, data):
    shuffled = {lvl: data.draw(st.permutations(cast)) for lvl, cast in votes.items()}
    assert majority_from_votes(votes) == majority_from_votes(shuffled)


def _annotation(worker, tweet, order, l1, l2=None, l3=None):
    return Annotation(worker, tweet, LabelPath(l1, l2, l3), {}, order)


def test_majority_labels_single_annotator():
    result = majority_labels([_annotation("w1", "t1", 1, "Relevant", "Factual")])
    assert sorted(result.levels) == [1, 2]
    assert (result.levels[2].majority_count, result.levels[2].voter_count) == (1, 1)


def test_majority_labels_rejects_bad_input():
    with pytest.raises(ValueError):
        majority_labels([])
    mixed = [_annotation("w1", "t1", 1, "Irrelevant"), _annotation("w2", "t2", 1, "Irrelevant")]
    with pytest.raises(ValueError):
        majority_labels(mixed)
