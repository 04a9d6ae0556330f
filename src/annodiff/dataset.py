"""Dataset model and JSONL ingestion.

Two files describe a dataset. annotations.jsonl holds one labeling event per
line with the worker, the tweet, the assigned label path, per-level labeling
durations in seconds, and the 1-based position of the tweet in the worker's
session. tweets.jsonl maps tweet ids to their raw text. Each annotation line
is filed, with its label path and summed duration, in its worker's one
session record, ordered by session position. This module only parses: the
score components, agreement's label counts among them, are in difficulty.
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
    """One worker's session record as parsed: its annotations in session
    order, and how many labels the parser pruned from them below an
    Irrelevant level 1. The worker's id is its key in Dataset.workers."""

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


class _Session:
    """One worker's record while its annotation lines are parsed."""

    def __init__(self, profile: tuple[str, str]):
        self.profile = profile  # (institution, group) of the worker's first line
        self.pruned = 0  # labels pruned below Irrelevant so far
        self.tweet_lines: dict[str, int] = {}  # tweet -> first line
        self.entries: dict[int, tuple[int, Annotation]] = {}  # order_index -> (line, annotation)


def _file_annotation(record: object, path: str, line: int, tweet_ids: dict[str, str], sessions: dict[str, _Session]) -> None:
    """Check one annotation line and file it in its worker's session record,
    or raise DatasetError naming the line. A line that breaks two rules
    reports the first of: its own fields, a tweet the worker labeled before,
    a taken order_index, a tweet without text, a changed institution or
    group. The annotation's tweet id is the tweet_ids value equal to it."""
    def fail(msg: str):
        raise DatasetError(msg, path=path, line=line)

    if not isinstance(record, dict):
        fail("expected a JSON object")
    fields = ("worker_id", "institution", "group", "tweet_id", "order_index", "labels")
    for key in fields:
        if key not in record:
            fail(f"missing field {key!r}")
    worker_id, institution, group, tweet_id, order_index, labels = (record[key] for key in fields)
    for key in ("worker_id", "tweet_id"):
        if not isinstance(record[key], str) or not record[key]:
            fail(f"{key} must be a non-empty string")
        if _SURROGATE.search(record[key]):
            fail(f"{key} holds a lone surrogate, which is not valid Unicode")
    if institution not in INSTITUTIONS:
        fail(f"institution must be one of {INSTITUTIONS}, got {institution!r}")
    if group not in GROUPS:
        fail(f"group must be one of {GROUPS}, got {group!r}")
    if not isinstance(order_index, int) or isinstance(order_index, bool) or order_index < 1:
        fail(f"order_index must be a positive integer, got {order_index!r}")

    durations = record.get("durations_s", {})
    if not isinstance(labels, dict) or "l1" not in labels:
        fail("labels must be an object with at least an 'l1' key")
    if not isinstance(durations, dict):
        fail("durations_s must be an object")
    for kind, keys in (("label", labels), ("duration", durations)):
        for key in keys:
            if key not in _LEVEL_KEYS:
                fail(f"unknown {kind} level key {key!r}")

    # labels below an Irrelevant level 1 carry no information: they are
    # pruned with their durations, and a null is an absent label, not counted
    l1, l2, l3 = labels["l1"], labels.get("l2"), labels.get("l3")
    pruned = 0
    if l1 == IRRELEVANT:
        pruned = (l2 is not None) + (l3 is not None)
        l2 = l3 = None
    try:
        labeled_path = label_path(l1, l2, l3)
    except ValueError as exc:
        fail(str(exc))

    seconds: dict[int, float] = {}
    present_levels = path_labels(labeled_path)
    for key, value in durations.items():
        level = _LEVEL_KEYS[key]
        if level not in present_levels:
            if l1 == IRRELEVANT:
                continue
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

    tweet_id = tweet_ids.get(tweet_id, tweet_id)
    session = sessions.get(worker_id)
    if session is None:
        session = sessions[worker_id] = _Session((institution, group))
    if tweet_id in session.tweet_lines:
        fail(f"worker {worker_id!r} labeled tweet {tweet_id!r} twice (first on line {session.tweet_lines[tweet_id]})")
    if order_index in session.entries:
        fail(f"worker {worker_id!r} has two annotations at order_index {order_index}")
    if tweet_id not in tweet_ids:
        fail(f"tweet {tweet_id!r} has no text record")
    if session.profile != (institution, group):
        fail(f"worker {worker_id!r} reappears with a different institution or group")
    session.pruned += pruned
    session.tweet_lines[tweet_id] = line
    session.entries[order_index] = (line, Annotation(tweet_id, labeled_path, duration))


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

    _file_annotation files each line in its worker's one session record,
    which becomes the Worker once its order_index values run from 1 without
    a gap. Malformed JSON, unknown labels, structural label violations,
    duplicate (worker, tweet) pairs, duplicate or gapped order_index values,
    and unknown tweets all raise DatasetError with the file and line.

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

    sessions: dict[str, _Session] = {}
    for line_no, record in _records(annotation_lines, annotations_path):
        _file_annotation(record, annotations_path, line_no, tweet_ids, sessions)

    workers: dict[str, Worker] = {}
    for wid, session in sessions.items():
        entries = session.entries
        for expected, order_index in enumerate(sorted(entries), start=1):
            if order_index != expected:
                msg = f"worker {wid!r} has gaps in order_index: {order_index} where {expected} was expected"
                raise DatasetError(msg, path=annotations_path, line=entries[order_index][0])
        annotations = [entries[order_index][1] for order_index in range(1, len(entries) + 1)]
        workers[wid] = Worker(*session.profile, annotations, session.pruned)

    return Dataset(workers=workers, texts=texts)


def load_dataset(annotations_path: str, tweets_path: str) -> Dataset:
    annotations_path, tweets_path = str(annotations_path), str(tweets_path)
    with (
        open(annotations_path, encoding="utf-8", errors="surrogateescape") as afh,
        open(tweets_path, encoding="utf-8", errors="surrogateescape") as tfh,
    ):
        return parse_dataset(afh, tfh, annotations_path=annotations_path, tweets_path=tweets_path)
