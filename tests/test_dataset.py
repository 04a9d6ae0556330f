"""JSONL ingestion and validation diagnostics."""

import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from annodiff import labels
from annodiff.dataset import INSTITUTIONS, Annotation, parse_dataset
from annodiff.errors import DatasetError
from annodiff.labels import label_path
from annodiff.synth import SynthConfig, generate_records
from annodiff.textsim import tokenize


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
    by_tweet = ds.annotations_by_tweet()
    assert sorted(by_tweet) == ["t1", "t2"]
    assert len(by_tweet["t1"]) == 2
    assert ds.workers["w1"].annotations[0].duration == 6.0


def test_blank_lines_ignored():
    ds = parse_dataset(["", ann("w1", "t1", 1, FULL, FULL_D), "   "], [tw("t1"), ""])
    assert len(ds.workers["w1"].annotations) == 1


def test_filter_institution():
    # MD's record prunes one label and has no durations; SU's is complete,
    # and each subset counts only its own
    lines = [
        ann("md1", "t1", 1, {"l1": "Irrelevant", "l2": "Factual"}),
        ann("su1", "t1", 1, FULL, FULL_D, institution="SU"),
    ]
    ds = parse_dataset(lines, [tw("t1")])
    md = ds.filter_institution("MD")
    assert md.worker_ids() == ["md1"]
    assert md.texts == ds.texts
    for institution, expected in (("MD", (1, 1)), ("SU", (0, 0))):
        workers = ds.filter_institution(institution).workers.values()
        pruned = sum(w.pruned_labels for w in workers)
        incomplete = sum(a.duration is None for w in workers for a in w.annotations)
        assert (pruned, incomplete) == expected, institution


def test_pruning_below_irrelevant():
    lines = [ann("w1", "t1", 1, {"l1": "Irrelevant", "l2": "Factual", "l3": "Positive"}, {"l1": 1.0, "l2": 2.0})]
    ds = parse_dataset(lines, [tw("t1")])
    a = ds.workers["w1"].annotations[0]
    assert a.labels == label_path("Irrelevant")
    assert a.duration == 1.0
    assert ds.workers["w1"].pruned_labels == 2


def test_explicit_nulls_are_not_pruned_labels():
    # a null label is an absent one: below Irrelevant, only Factual is pruned
    lines = [
        ann("w1", "t1", 1, {"l1": "Irrelevant", "l2": None, "l3": None}, {"l1": 1.0}),
        ann("w1", "t2", 2, {"l1": "Irrelevant", "l2": "Factual", "l3": None}, {"l1": 1.0}),
    ]
    ds = parse_dataset(lines, [tw("t1"), tw("t2")])
    assert ds.workers["w1"].pruned_labels == 1
    assert [a.labels for a in ds.workers["w1"].annotations] == [label_path("Irrelevant")] * 2


def test_prune_is_idempotent():
    # the l2 duration goes with its pruned label rather than being refused,
    # and the already-pruned record parses the same with nothing to prune
    raw = ann("w1", "t1", 1, {"l1": "Irrelevant", "l2": "NonFactual", "l3": "Negative"}, {"l1": 1.0, "l2": 0.5})
    pruned = ann("w1", "t1", 1, {"l1": "Irrelevant"}, {"l1": 1.0})
    once, again = (parse_dataset([line], [tw("t1")]).workers["w1"] for line in (raw, pruned))
    assert once.annotations == again.annotations == [Annotation("t1", label_path("Irrelevant"), 1.0)]
    assert (once.pruned_labels, again.pruned_labels) == (2, 0)


def test_incomplete_durations_flagged():
    lines = [ann("w1", "t1", 1, FULL, {"l1": 1.0})]
    ds = parse_dataset(lines, [tw("t1")])
    assert ds.workers["w1"].annotations[0].duration is None


def test_no_durations_at_all():
    ds = parse_dataset([ann("w1", "t1", 1, {"l1": "Irrelevant"})], [tw("t1")])
    assert ds.workers["w1"].annotations[0].duration is None


# (labels, durations, labels pruned): complete, pruned with and without a
# duration, and incomplete
RECORDS = [
    (FULL, FULL_D, 0),
    ({"l1": "Irrelevant", "l2": "Factual", "l3": "Positive"}, {"l1": 1.0}, 2),
    ({"l1": "Irrelevant", "l2": "Factual"}, None, 1),
    ({"l1": "Relevant", "l2": "Factual"}, {"l1": 1.5}, 0),
]
TWEETS = [f"t{i}" for i in range(5)]


@given(data=st.data())
def test_annotation_line_order_does_not_change_the_dataset(data):
    lines, sessions, pruned = [], {}, {}
    for w in range(data.draw(st.integers(1, 3))):
        wid = f"w{w}"
        picks = data.draw(st.lists(st.sampled_from(RECORDS), min_size=1, max_size=len(TWEETS)))
        sessions[wid] = data.draw(st.permutations(TWEETS))[: len(picks)]
        pruned[wid] = sum(count for _, _, count in picks)
        for order, (tid, (labels, durations, _)) in enumerate(zip(sessions[wid], picks), start=1):
            lines.append(ann(wid, tid, order, labels, durations, institution=INSTITUTIONS[w % 2]))
    tweets = [tw(tid) for tid in TWEETS]
    ds = parse_dataset(data.draw(st.permutations(lines)), tweets)
    assert ds == parse_dataset(lines, tweets)
    # the parser builds a worker only from an annotation, and each group of
    # annotations_by_tweet is one tweet's, which scoring relies on unchecked
    assert all(w.annotations for w in ds.workers.values())
    for tid, group in ds.annotations_by_tweet().items():
        assert group and {a.tweet_id for a in group} == {tid}
    assert {wid: [a.tweet_id for a in w.annotations] for wid, w in ds.workers.items()} == sessions
    assert {wid: w.pruned_labels for wid, w in ds.workers.items()} == pruned


ERROR_CASES = [
    ("{not json", [tw("t1")], "line 1"),
    ("[" * 200000 + "]" * 200000, [tw("t1")], "line 1: invalid JSON: nested too deeply"),
    (ann("w1", "t1", 1, FULL, FULL_D) + "\n[1, 2]", [tw("t1")], "line 2"),
    ('{"tweet_id": "t1"}', [tw("t1")], "missing field"),
    (ann("", "t1", 1, FULL), [tw("t1")], "worker_id"),
    (ann("w1", "", 1, FULL), [tw("t1")], "tweet_id"),
    # valid JSON escapes of lone surrogates, which no UTF-8 text can hold
    (ann("md_w\udc0000", "t1", 1, FULL), [tw("t1")], "line 1: worker_id holds a lone surrogate"),
    (ann("w1", "t\ud800", 1, FULL), [tw("t1")], "line 1: tweet_id holds a lone surrogate"),
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
    # a line that breaks two cross-line rules reports the one checked first
    (ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t1", 1, FULL), [tw("t1")], "line 2: worker 'w1' labeled tweet 't1' twice (first on line 1)"),
    (ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t2", 2, FULL, institution="SU"), [tw("t1")], "line 2: tweet 't2' has no text record"),
    (
        ann("w1", "t1", 1, FULL) + "\n" + ann("w1", "t2", 1, FULL, institution="SU"),
        [tw("t1"), tw("t2")],
        "line 2: worker 'w1' has two annotations at order_index 1",
    ),
]


@pytest.mark.parametrize("annotation_text,tweet_lines,fragment", ERROR_CASES)
def test_annotation_validation_errors(annotation_text, tweet_lines, fragment):
    with pytest.raises(DatasetError) as exc:
        parse_dataset(annotation_text.split("\n"), tweet_lines)
    assert fragment in str(exc.value)
    assert exc.value.path == "annotations.jsonl" and exc.value.line >= 1
    assert str(exc.value).startswith(f"{exc.value.path}, line {exc.value.line}: ")


# values a field may take in bad input: every JSON type, out-of-range and
# non-finite numbers, an unknown label and a lone surrogate
FUZZ_VALUES = (None, True, 0, -1, 10**30, 1.5, float("nan"), 1e308, "", "Spam", [], {}, "\ud800")
FUZZ_RECORDS = generate_records(SynthConfig(n_workers=2, n_easy=2, n_difficult=2, seed=1))


def _field_paths(record, prefix=()):
    """The key path of every field of record, nested ones included."""
    for key, value in record.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _field_paths(value, (*prefix, key))


@settings(max_examples=300)
@given(data=st.data())
def test_bad_annotation_input_raises_only_dataset_errors(data):
    # one field replaced or deleted, or one key added, on one line: the
    # parser accepts the set or refuses it with a DatasetError naming a line,
    # and any other exception is an internal error, which exits 2
    annotations, tweets = copy.deepcopy(FUZZ_RECORDS)
    record = data.draw(st.sampled_from(annotations))
    *parents, key = data.draw(st.sampled_from(list(_field_paths(record))))
    owner = record
    for parent in parents:
        owner = owner[parent]
    change = data.draw(st.sampled_from(("replace", "delete", "add")))
    if change == "replace":
        owner[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    elif change == "delete":
        del owner[key]
    else:
        owner[data.draw(st.sampled_from(("extra", "l2", "l3")))] = data.draw(st.sampled_from(FUZZ_VALUES))
    try:
        parse_dataset([json.dumps(r) for r in annotations], [json.dumps(r) for r in tweets])
    except DatasetError as exc:
        assert re.match(r"annotations\.jsonl, line [1-9][0-9]*: ", str(exc)), str(exc)


TWEET_ERROR_CASES = [
    (["{oops"], "line 1"),
    (['{"tweet_id": "t1"}'], "text"),
    (['{"tweet_id": 5, "text": "x"}'], "tweet_id"),
    ([tw("t1"), tw("t1")], "duplicate tweet_id"),
    (["[]"], "expected an object"),
    (["[" * 200000 + "]" * 200000], "line 1: invalid JSON: nested too deeply"),
    ([tw("t1"), tw("t\ud800")], "line 2: tweet_id holds a lone surrogate"),
]


@pytest.mark.parametrize("tweet_lines,fragment", TWEET_ERROR_CASES)
def test_tweet_validation_errors(tweet_lines, fragment):
    with pytest.raises(DatasetError) as exc:
        parse_dataset([], tweet_lines)
    assert fragment in str(exc.value)
    assert exc.value.path == "tweets.jsonl" and exc.value.line >= 1
    assert str(exc.value).startswith(f"{exc.value.path}, line {exc.value.line}: ")


def test_ids_may_hold_characters_beyond_the_basic_plane():
    # an escaped surrogate pair decodes to one character, which is valid Unicode
    tid, wid = "t\U0001F600", "w\U0001F600"
    ds = parse_dataset([ann(wid, tid, 1, FULL)], [tw(tid)])
    assert [a.tweet_id for a in ds.workers[wid].annotations] == [tid]


def test_parsing_holds_each_id_and_label_path_once():
    # the records go through JSON text, so every id and label is a fresh str
    # as the parser reads it; sharing must come from the parser itself
    annotations, tweets = generate_records(SynthConfig(n_workers=4, n_easy=10, n_difficult=10, seed=3))
    ds = parse_dataset([json.dumps(r) for r in annotations], [json.dumps(r) for r in tweets])
    keys = {tid: tid for tid in ds.texts}
    constants = (*labels.LEVEL_LABELS[1], *labels.LEVEL_LABELS[2], *labels.LEVEL_LABELS[3], labels.NO_LABEL)
    paths = {}
    parsed = [a for worker in ds.workers.values() for a in worker.annotations]
    assert len(parsed) == len(annotations)
    for a in parsed:
        assert a.tweet_id is keys[a.tweet_id]
        assert all(any(label is constant for constant in constants) for label in a.labels)
        assert a.labels is paths.setdefault(a.labels, a.labels)
    assert len(paths) == 4  # the set uses every path the tree holds


def test_error_message_carries_path():
    with pytest.raises(DatasetError) as exc:
        parse_dataset(["{bad"], [], annotations_path="custom.jsonl")
    assert "custom.jsonl" in str(exc.value)



@given(
    texts=st.lists(
        st.lists(st.sampled_from(["rain", "Rain,", "#Vote", "#vote!", "poll", "“poll”", "..."]), max_size=8),
        min_size=1,
        max_size=6,
    )
)
def test_word_sequences_share_one_str_per_distinct_token(texts):
    texts = {f"t{i}": " ".join(words) for i, words in enumerate(texts)}
    ds = parse_dataset([ann("w1", "t0", 1, FULL)], [tw(tid, text) for tid, text in texts.items()])
    words = ds.word_sequences()
    assert words == {tid: tuple(tokenize(text)) for tid, text in texts.items()}
    tokens = [token for sequence in words.values() for token in sequence]
    assert len({id(token) for token in tokens}) == len(set(tokens))
