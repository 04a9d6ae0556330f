"""Dataset model and JSONL ingestion.

Two files describe a dataset. annotations.jsonl holds one labeling event per
line with the worker, the tweet, the assigned label path, per-level labeling
durations in seconds, and the 1-based position of the tweet in the worker's
session. tweets.jsonl maps tweet ids to their raw text. The parser keeps
each annotation's label path and summed duration; the session position only
orders a worker's annotations. This module only parses: the score
components, agreement's label counts among them, are in difficulty.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Iterable, Iterator, NamedTuple, Sequence

# stable_seed is unused here, but perfbench/tracer.py wraps this name; it
# goes with the tracer (ROADMAP item 5, Step B)
from annodiff.config import INSTITUTIONS, stable_seed  # noqa: F401
from annodiff.errors import DatasetError
from annodiff.labels import IRRELEVANT, LabelPath, label_path, path_labels
from annodiff.textsim import tokenize

GROUPS = ("S", "M", "L")

_LEVEL_KEYS = {"l1": 1, "l2": 2, "l3": 3}

# a JSON escape such as "\ud800" decodes to a lone surrogate, which does not encode as UTF-8 (stable_seed encodes ids)
_SURROGATE = re.compile("[\ud800-\udfff]")


class Annotation(NamedTuple):
    """One labeling of one tweet: its label path, and its per-level labeling
    seconds summed in level order, or None when a labeled level has no
    recorded duration. The worker is the one whose session holds it."""

    tweet_id: str
    labels: LabelPath
    duration: float | None


class Worker(NamedTuple):
    """One worker's session: its annotations in session order, and how many
    labels the parser pruned from them below an Irrelevant level 1. The
    worker's id is its key in Dataset.workers."""

    institution: str
    group: str
    annotations: Sequence[Annotation] = ()
    pruned_labels: int = 0


class Dataset(NamedTuple):
    """Workers by id and tweet texts by id, as parsed. Every count over the
    dataset is derived from the workers it holds, so a subset's counts are
    its own."""

    workers: dict[str, Worker]
    texts: dict[str, str]

    def worker_ids(self) -> list[str]:
        return sorted(self.workers)

    def annotations_by_tweet(self) -> dict[str, list[Annotation]]:
        out: dict[str, list[Annotation]] = {}
        for wid in self.worker_ids():
            for ann in self.workers[wid].annotations:
                out.setdefault(ann.tweet_id, []).append(ann)
        return out

    def filter_institution(self, institution: str) -> "Dataset":
        kept = {wid: w for wid, w in self.workers.items() if w.institution == institution}
        return Dataset(workers=kept, texts=self.texts)

    def word_sequences(self) -> dict[str, tuple[str, ...]]:
        """Tokenized text per tweet id, computed once per call. Equal tokens
        are one shared str, so the table holds each distinct word once."""
        shared: dict[str, str] = {}
        return {
            tid: tuple([shared.setdefault(token, token) for token in tokenize(text)])
            for tid, text in self.texts.items()
        }


def prune_labels(labels: dict[str, str], durations: dict[str, float]) -> tuple[dict[str, str], dict[str, float], int]:
    """Drop labels recorded below an Irrelevant level-1 decision.

    Workers sometimes keep filling lower levels after marking a tweet
    Irrelevant; those labels and their durations carry no information and are
    removed. An explicit null is an absent label, so it is not counted as
    pruned. Idempotent: pruning a pruned record changes nothing.
    """
    if labels.get("l1") != IRRELEVANT:
        return labels, durations, 0
    pruned = sum(1 for key in ("l2", "l3") if labels.get(key) is not None)
    labels = {k: v for k, v in labels.items() if k == "l1"}
    durations = {k: v for k, v in durations.items() if k == "l1"}
    return labels, durations, pruned


def _parse_annotation_record(
    record: dict, path: str, line: int, tweet_ids: dict[str, str]
) -> tuple[str, Annotation, int, str, str, int]:
    """(worker id, annotation, order_index, institution, group, pruned label
    count) of one validated annotation record. The annotation's tweet id is
    the tweet_ids value equal to it, when there is one."""
    def fail(msg: str):
        raise DatasetError(msg, path=path, line=line)

    for key in ("worker_id", "institution", "group", "tweet_id", "order_index", "labels"):
        if key not in record:
            fail(f"missing field {key!r}")
    worker_id = record["worker_id"]
    tweet_id = record["tweet_id"]
    institution = record["institution"]
    group = record["group"]
    for key in ("worker_id", "tweet_id"):
        if not isinstance(record[key], str) or not record[key]:
            fail(f"{key} must be a non-empty string")
        if _SURROGATE.search(record[key]):
            fail(f"{key} holds a lone surrogate, which is not valid Unicode")
    if institution not in INSTITUTIONS:
        fail(f"institution must be one of {INSTITUTIONS}, got {institution!r}")
    if group not in GROUPS:
        fail(f"group must be one of {GROUPS}, got {group!r}")
    order_index = record["order_index"]
    if not isinstance(order_index, int) or isinstance(order_index, bool) or order_index < 1:
        fail(f"order_index must be a positive integer, got {order_index!r}")

    labels = record["labels"]
    durations = record.get("durations_s", {})
    if not isinstance(labels, dict) or "l1" not in labels:
        fail("labels must be an object with at least an 'l1' key")
    if not isinstance(durations, dict):
        fail("durations_s must be an object")
    for key in labels:
        if key not in _LEVEL_KEYS:
            fail(f"unknown label level key {key!r}")
    for key in durations:
        if key not in _LEVEL_KEYS:
            fail(f"unknown duration level key {key!r}")

    labels, durations, pruned = prune_labels(labels, durations)

    try:
        labeled_path = label_path(labels.get("l1"), labels.get("l2"), labels.get("l3"))
    except ValueError as exc:
        fail(str(exc))

    seconds: dict[int, float] = {}
    present_levels = path_labels(labeled_path)
    for key, value in durations.items():
        level = _LEVEL_KEYS[key]
        if level not in present_levels:
            fail(f"duration given for level {level} but no label is present there")
        # the range test also rejects NaN, infinity and integers too large for a float
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= sys.float_info.max:
            fail(f"duration for level {level} must be a finite non-negative number, got {value!r}")
        seconds[level] = float(value)
    duration = None
    if len(seconds) == len(present_levels):
        duration = 0.0
        for level in present_levels:
            duration += seconds[level]
        if not math.isfinite(duration):
            fail("the summed per-level durations overflow a float")
    annotation = Annotation(tweet_ids.get(tweet_id, tweet_id), labeled_path, duration)
    return worker_id, annotation, order_index, institution, group, pruned


def _records(lines: Iterable[str], path: str) -> Iterator[tuple[int, object]]:
    """(line number, decoded JSON value) for each non-blank line, or a
    DatasetError naming the line. A file opened with errors="surrogateescape"
    turns bytes that are not UTF-8 into lone surrogates, which do not encode
    back, so such a line is refused before it is decoded."""
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DatasetError(f"bytes that are not UTF-8 at character {exc.start + 1}", path=path, line=line_no) from None
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc.msg}", path=path, line=line_no)
        except RecursionError:
            raise DatasetError("invalid JSON: nested too deeply", path=path, line=line_no) from None
        yield line_no, value


def parse_dataset(
    annotation_lines: Iterable[str],
    tweet_lines: Iterable[str],
    *,
    annotations_path: str = "annotations.jsonl",
    tweets_path: str = "tweets.jsonl",
) -> Dataset:
    """Parse and validate the two JSONL inputs into a Dataset, each worker
    holding its annotations in order_index order and the number of labels
    pruned from them.

    Validation is strict: malformed JSON, unknown labels, structural label
    violations, duplicate (worker, tweet) pairs, duplicate or gapped
    order_index values, and annotations referencing unknown tweets all raise
    DatasetError with the offending file and line.

    Each fact is held once: an annotation's tweet_id is the very str that
    keys its text in Dataset.texts, and its label path is label_path's one
    tuple for that path, so the records add no copy of either per
    annotation.
    """
    texts: dict[str, str] = {}
    text_lines: dict[str, int] = {}
    for line_no, record in _records(tweet_lines, tweets_path):
        if not isinstance(record, dict) or not isinstance(record.get("tweet_id"), str) or not isinstance(record.get("text"), str):
            raise DatasetError("expected an object with string 'tweet_id' and 'text'", path=tweets_path, line=line_no)
        tid = record["tweet_id"]
        if _SURROGATE.search(tid):
            raise DatasetError("tweet_id holds a lone surrogate, which is not valid Unicode", path=tweets_path, line=line_no)
        if tid in texts:
            raise DatasetError(f"duplicate tweet_id {tid!r} (first seen on line {text_lines[tid]})", path=tweets_path, line=line_no)
        texts[tid] = record["text"]
        text_lines[tid] = line_no
    del text_lines
    tweet_ids = dict(zip(texts, texts))  # each id to the str object that keys its text

    profiles: dict[str, tuple[str, str]] = {}  # worker -> (institution, group)
    pruned_labels: dict[str, int] = {}
    sessions: dict[str, dict[int, tuple[int, Annotation]]] = {}  # worker -> order_index -> (line, annotation)
    seen_pairs: dict[tuple[str, str], int] = {}
    for line_no, record in _records(annotation_lines, annotations_path):
        if not isinstance(record, dict):
            raise DatasetError("expected a JSON object", path=annotations_path, line=line_no)
        wid, ann, order_index, institution, group, pruned = _parse_annotation_record(
            record, annotations_path, line_no, tweet_ids
        )

        pair = (wid, ann.tweet_id)
        if pair in seen_pairs:
            raise DatasetError(
                f"worker {wid!r} labeled tweet {ann.tweet_id!r} twice (first on line {seen_pairs[pair]})",
                path=annotations_path,
                line=line_no,
            )
        seen_pairs[pair] = line_no
        session = sessions.setdefault(wid, {})
        if order_index in session:
            raise DatasetError(
                f"worker {wid!r} has two annotations at order_index {order_index}",
                path=annotations_path,
                line=line_no,
            )
        if ann.tweet_id not in texts:
            raise DatasetError(f"tweet {ann.tweet_id!r} has no text record", path=annotations_path, line=line_no)

        if profiles.setdefault(wid, (institution, group)) != (institution, group):
            raise DatasetError(
                f"worker {wid!r} reappears with a different institution or group",
                path=annotations_path,
                line=line_no,
            )
        pruned_labels[wid] = pruned_labels.get(wid, 0) + pruned
        session[order_index] = (line_no, ann)

    workers: dict[str, Worker] = {}
    for wid, session in sessions.items():
        for expected, order_index in enumerate(sorted(session), start=1):
            if order_index != expected:
                raise DatasetError(
                    f"worker {wid!r} has gaps in order_index: {order_index} where {expected} was expected",
                    path=annotations_path,
                    line=session[order_index][0],
                )
        annotations = [session[order_index][1] for order_index in range(1, len(session) + 1)]
        workers[wid] = Worker(*profiles[wid], annotations, pruned_labels[wid])

    return Dataset(workers=workers, texts=texts)


def load_dataset(annotations_path: str, tweets_path: str) -> Dataset:
    annotations_path, tweets_path = str(annotations_path), str(tweets_path)
    with (
        open(annotations_path, encoding="utf-8", errors="surrogateescape") as afh,
        open(tweets_path, encoding="utf-8", errors="surrogateescape") as tfh,
    ):
        return parse_dataset(afh, tfh, annotations_path=annotations_path, tweets_path=tweets_path)
