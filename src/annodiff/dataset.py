"""Dataset model and JSONL ingestion.

Two files describe a dataset. annotations.jsonl holds one labeling event per
line with the worker, the tweet, the assigned label path, per-level labeling
durations in seconds, and the 1-based position of the tweet in the worker's
session. tweets.jsonl maps tweet ids to their raw text.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

# unused here, but perfbench/tracer.py wraps this name; it goes with the tracer (ROADMAP item 1)
from annodiff.config import stable_seed  # noqa: F401
from annodiff.errors import DatasetError
from annodiff.labels import IRRELEVANT, LEVELS, LabelPath
from annodiff.textsim import tokenize

INSTITUTIONS = ("MD", "SU")
GROUPS = ("S", "M", "L")

_LEVEL_KEYS = {"l1": 1, "l2": 2, "l3": 3}


@dataclass(frozen=True)
class Annotation:
    """One worker's labeling of one tweet."""

    worker_id: str
    tweet_id: str
    labels: LabelPath
    durations: dict[int, float]  # level -> seconds, only for present levels
    order_index: int

    def total_duration(self) -> float | None:
        """Summed per-level labeling time, or None when any present level
        lacks a recorded duration."""
        total = 0.0
        for level in self.labels.labels():
            if level not in self.durations:
                return None
            total += self.durations[level]
        return total


@dataclass
class Worker:
    worker_id: str
    institution: str
    group: str
    annotations: list[Annotation] = field(default_factory=list)  # ordered by order_index


@dataclass
class Dataset:
    workers: dict[str, Worker]
    texts: dict[str, str]
    pruned_label_count: int = 0
    missing_duration_count: int = 0

    def worker_ids(self) -> list[str]:
        return sorted(self.workers)

    def institutions(self) -> list[str]:
        return sorted({w.institution for w in self.workers.values()})

    def annotations_by_tweet(self) -> dict[str, list[Annotation]]:
        out: dict[str, list[Annotation]] = {}
        for wid in self.worker_ids():
            for ann in self.workers[wid].annotations:
                out.setdefault(ann.tweet_id, []).append(ann)
        return out

    def filter_institution(self, institution: str) -> "Dataset":
        kept = {wid: w for wid, w in self.workers.items() if w.institution == institution}
        return Dataset(
            workers=kept,
            texts=self.texts,
            pruned_label_count=self.pruned_label_count,
            missing_duration_count=self.missing_duration_count,
        )

    def word_sequences(self) -> dict[str, tuple[str, ...]]:
        """Tokenized text per tweet id, computed once per call."""
        return {tid: tuple(tokenize(text)) for tid, text in self.texts.items()}


def prune_labels(labels: dict[str, str], durations: dict[str, float]) -> tuple[dict[str, str], dict[str, float], int]:
    """Drop labels recorded below an Irrelevant level-1 decision.

    Workers sometimes keep filling lower levels after marking a tweet
    Irrelevant; those labels and their durations carry no information and are
    removed. Idempotent: pruning a pruned record changes nothing.
    """
    if labels.get("l1") != IRRELEVANT:
        return labels, durations, 0
    pruned = sum(1 for key in ("l2", "l3") if key in labels)
    labels = {k: v for k, v in labels.items() if k == "l1"}
    durations = {k: v for k, v in durations.items() if k == "l1"}
    return labels, durations, pruned


def _parse_annotation_record(record: dict, path: str, line: int) -> tuple[Annotation, str, str, int, bool]:
    def fail(msg: str):
        raise DatasetError(msg, path=path, line=line)

    for key in ("worker_id", "institution", "group", "tweet_id", "order_index", "labels"):
        if key not in record:
            fail(f"missing field {key!r}")
    worker_id = record["worker_id"]
    tweet_id = record["tweet_id"]
    institution = record["institution"]
    group = record["group"]
    if not isinstance(worker_id, str) or not worker_id:
        fail("worker_id must be a non-empty string")
    if not isinstance(tweet_id, str) or not tweet_id:
        fail("tweet_id must be a non-empty string")
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

    labels, durations, pruned = prune_labels(dict(labels), dict(durations))

    try:
        path_labels = LabelPath(labels.get("l1"), labels.get("l2"), labels.get("l3"))
    except ValueError as exc:
        fail(str(exc))

    parsed_durations: dict[int, float] = {}
    present_levels = set(path_labels.labels())
    for key, value in durations.items():
        level = _LEVEL_KEYS[key]
        if level not in present_levels:
            fail(f"duration given for level {level} but no label is present there")
        # the range test also rejects NaN, infinity and integers too large for a float
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= sys.float_info.max:
            fail(f"duration for level {level} must be a finite non-negative number, got {value!r}")
        parsed_durations[level] = float(value)
    missing_duration = len(parsed_durations) < len(present_levels)

    ann = Annotation(
        worker_id=worker_id,
        tweet_id=tweet_id,
        labels=path_labels,
        durations=parsed_durations,
        order_index=order_index,
    )
    total = ann.total_duration()
    if total is not None and not math.isfinite(total):
        fail("the summed per-level durations overflow a float")
    return ann, institution, group, pruned, missing_duration


def parse_dataset(
    annotation_lines: Iterable[str],
    tweet_lines: Iterable[str],
    *,
    annotations_path: str = "annotations.jsonl",
    tweets_path: str = "tweets.jsonl",
) -> Dataset:
    """Parse and validate the two JSONL inputs into a Dataset.

    Validation is strict: malformed JSON, unknown labels, structural label
    violations, duplicate (worker, tweet) pairs, duplicate or gapped
    order_index values, and annotations referencing unknown tweets all raise
    DatasetError with the offending file and line.
    """
    texts: dict[str, str] = {}
    text_lines: dict[str, int] = {}
    for line_no, raw in enumerate(tweet_lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc.msg}", path=tweets_path, line=line_no)
        if not isinstance(record, dict) or not isinstance(record.get("tweet_id"), str) or not isinstance(record.get("text"), str):
            raise DatasetError("expected an object with string 'tweet_id' and 'text'", path=tweets_path, line=line_no)
        tid = record["tweet_id"]
        if tid in texts:
            raise DatasetError(f"duplicate tweet_id {tid!r} (first seen on line {text_lines[tid]})", path=tweets_path, line=line_no)
        texts[tid] = record["text"]
        text_lines[tid] = line_no

    workers: dict[str, Worker] = {}
    seen_pairs: dict[tuple[str, str], int] = {}
    seen_orders: dict[tuple[str, int], int] = {}
    pruned_total = 0
    missing_total = 0
    for line_no, raw in enumerate(annotation_lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc.msg}", path=annotations_path, line=line_no)
        if not isinstance(record, dict):
            raise DatasetError("expected a JSON object", path=annotations_path, line=line_no)
        ann, institution, group, pruned, missing_duration = _parse_annotation_record(record, annotations_path, line_no)
        pruned_total += pruned
        missing_total += 1 if missing_duration else 0

        pair = (ann.worker_id, ann.tweet_id)
        if pair in seen_pairs:
            raise DatasetError(
                f"worker {ann.worker_id!r} labeled tweet {ann.tweet_id!r} twice (first on line {seen_pairs[pair]})",
                path=annotations_path,
                line=line_no,
            )
        seen_pairs[pair] = line_no
        order_key = (ann.worker_id, ann.order_index)
        if order_key in seen_orders:
            raise DatasetError(
                f"worker {ann.worker_id!r} has two annotations at order_index {ann.order_index}",
                path=annotations_path,
                line=line_no,
            )
        seen_orders[order_key] = line_no
        if ann.tweet_id not in texts:
            raise DatasetError(f"tweet {ann.tweet_id!r} has no text record", path=annotations_path, line=line_no)

        worker = workers.get(ann.worker_id)
        if worker is None:
            workers[ann.worker_id] = Worker(ann.worker_id, institution, group, [ann])
        else:
            if worker.institution != institution or worker.group != group:
                raise DatasetError(
                    f"worker {ann.worker_id!r} reappears with a different institution or group",
                    path=annotations_path,
                    line=line_no,
                )
            worker.annotations.append(ann)

    for worker in workers.values():
        worker.annotations.sort(key=lambda a: a.order_index)
        for expected, ann in enumerate(worker.annotations, start=1):
            if ann.order_index != expected:
                raise DatasetError(
                    f"worker {worker.worker_id!r} has gaps in order_index: {ann.order_index} where {expected} was expected",
                    path=annotations_path,
                    line=seen_orders[(worker.worker_id, ann.order_index)],
                )

    return Dataset(workers=workers, texts=texts, pruned_label_count=pruned_total, missing_duration_count=missing_total)


def _utf8_lines(fh: Iterable[str], path: str) -> Iterator[str]:
    """The lines of a file opened with errors="surrogateescape", or a
    DatasetError naming the first line that holds bytes that are not UTF-8
    (they decode to lone surrogates, which do not encode back)."""
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DatasetError(f"bytes that are not UTF-8 at character {exc.start + 1}", path=path, line=line_no) from None
        yield line


def load_dataset(annotations_path: str, tweets_path: str) -> Dataset:
    annotations_path, tweets_path = str(annotations_path), str(tweets_path)
    with (
        open(annotations_path, encoding="utf-8", errors="surrogateescape") as afh,
        open(tweets_path, encoding="utf-8", errors="surrogateescape") as tfh,
    ):
        return parse_dataset(
            _utf8_lines(afh, annotations_path),
            _utf8_lines(tfh, tweets_path),
            annotations_path=annotations_path,
            tweets_path=tweets_path,
        )


@dataclass(frozen=True)
class MajorityLevel:
    majority_count: int
    voter_count: int
    tie: bool  # at least two labels share the top vote count


@dataclass(frozen=True)
class MajorityResult:
    """Per-level majority counts for one tweet; levels nobody voted on are
    absent."""

    levels: dict[int, MajorityLevel]


def majority_from_votes(votes: Mapping[int, Sequence[str]]) -> MajorityResult:
    """Majority count, voter count and tie flag per level from raw per-level
    vote lists. Counts come from a multiset, so the order votes are listed
    in does not matter."""
    levels: dict[int, MajorityLevel] = {}
    for level in sorted(votes):
        if not votes[level]:
            continue
        counts = Counter(votes[level])
        top = max(counts.values())
        tie = sum(1 for c in counts.values() if c == top) > 1
        levels[level] = MajorityLevel(majority_count=top, voter_count=len(votes[level]), tie=tie)
    return MajorityResult(levels=levels)


def majority_labels(annotations: Sequence[Annotation]) -> MajorityResult:
    """Per-level majority over all annotations of one tweet."""
    if not annotations:
        raise ValueError("majority_labels needs at least one annotation")
    tweet_ids = {a.tweet_id for a in annotations}
    if len(tweet_ids) != 1:
        raise ValueError(f"annotations span multiple tweets: {sorted(tweet_ids)}")
    votes: dict[int, list[str]] = {level: [] for level in LEVELS}
    for ann in annotations:
        for level, label in ann.labels.labels().items():
            votes[level].append(label)
    return majority_from_votes(votes)
