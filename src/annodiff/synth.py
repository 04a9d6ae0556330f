"""Synthetic dataset generation with planted structure.

The generator plants two signals the pipeline should recover. First, tweets
come in an easy and a difficult flavor: easy tweets are labeled unanimously
and quickly, difficult ones slowly and with per-worker label noise, so the
difficulty score separates them. Second, each tweet's text is drawn from a
word pool tied to its true label path, so nearest-neighbor prediction over
word overlap has signal to learn.

Everything is deterministic under the config seed.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from functools import reduce

from annodiff.config import stable_seed
from annodiff.dataset import Dataset, parse_dataset
from annodiff.labels import (
    FACTUAL,
    IRRELEVANT,
    NEGATIVE,
    NONFACTUAL,
    POSITIVE,
    RELEVANT,
    LabelPath,
    label_path,
    path_labels,
)

TRUE_PATHS = (
    label_path(IRRELEVANT),
    label_path(RELEVANT, FACTUAL),
    label_path(RELEVANT, NONFACTUAL, POSITIVE),
    label_path(RELEVANT, NONFACTUAL, NEGATIVE),
)

# disjoint word pools, one per true path, plus a few shared filler words
WORD_POOLS = (
    ["pizza", "rain", "weekend", "coffee", "gym", "playlist", "traffic", "brunch", "puppy", "sleepy", "beach", "selfie"],
    ["poll", "percent", "schedule", "venue", "moderator", "candidates", "airtime", "transcript", "segment", "topics", "rules", "stage"],
    ["strong", "win", "brilliant", "hope", "proud", "inspiring", "leader", "great", "honest", "respect", "cheer", "best"],
    ["weak", "lies", "disaster", "shame", "rigged", "boring", "dodge", "failure", "angry", "worst", "mess", "blame"],
)
SHARED_WORDS = ["#debate", "tonight", "watching"]

WORDS_PER_TWEET = 7

# every worker's group, and the range of an easy or a difficult tweet's
# total labeling seconds
GROUP = "M"
EASY_SECONDS = (1.0, 2.0)
DIFFICULT_SECONDS = (15.0, 20.0)


@dataclass(frozen=True)
class SynthConfig:
    n_workers: int = 6
    n_easy: int = 30
    n_difficult: int = 30
    difficult_label_noise: float = 0.5
    institution: str = "MD"
    seed: int = 0


def _tweet_text(rng: random.Random, pool_index: int) -> str:
    words = rng.sample(WORD_POOLS[pool_index], WORDS_PER_TWEET)
    words.append(rng.choice(SHARED_WORDS))
    rng.shuffle(words)
    return " ".join(words)


def _noisy_path(rng: random.Random, true_index: int) -> LabelPath:
    others = [i for i in range(len(TRUE_PATHS)) if i != true_index]
    return TRUE_PATHS[rng.choice(others)]


def _durations(rng: random.Random, path: LabelPath, seconds: tuple[float, float]) -> dict[str, float]:
    total = rng.uniform(*seconds)
    levels = sorted(path_labels(path))
    weights = [rng.uniform(0.5, 1.0) for _ in levels]
    # left to right, as sum() is compensated from Python 3.12 on
    scale = total / reduce(operator.add, weights, 0.0)
    return {f"l{level}": round(w * scale, 3) for level, w in zip(levels, weights)}


def generate_records(config: SynthConfig = SynthConfig()) -> tuple[list[dict], list[dict]]:
    """Produce (annotation records, tweet records) in the JSONL schema."""
    tweets: list[dict] = []
    true_index: dict[str, int] = {}
    is_difficult: dict[str, bool] = {}
    for idx in range(config.n_easy + config.n_difficult):
        tid = f"t{idx:03d}"
        difficult = idx >= config.n_easy
        pool = idx % len(TRUE_PATHS)
        rng = random.Random(stable_seed(config.seed, "text", tid))
        tweets.append({"tweet_id": tid, "text": _tweet_text(rng, pool)})
        true_index[tid] = pool
        is_difficult[tid] = difficult

    easy_ids = [t["tweet_id"] for t in tweets if not is_difficult[t["tweet_id"]]]
    difficult_ids = [t["tweet_id"] for t in tweets if is_difficult[t["tweet_id"]]]

    annotations: list[dict] = []
    for w in range(config.n_workers):
        wid = f"{config.institution.lower()}_w{w:02d}"
        rng = random.Random(stable_seed(config.seed, "worker", wid))
        easy_order = easy_ids.copy()
        difficult_order = difficult_ids.copy()
        rng.shuffle(easy_order)
        rng.shuffle(difficult_order)
        # proportional merge so every 25-tweet window holds a stable class
        # mix even when the class sizes differ
        ordered: list[str] = []
        total = len(easy_order) + len(difficult_order)
        share = len(difficult_order) / total if total else 0.0
        acc = 0.0
        e = d = 0
        for _ in range(total):
            acc += share
            if acc >= 1.0 and d < len(difficult_order):
                ordered.append(difficult_order[d])
                d += 1
                acc -= 1.0
            elif e < len(easy_order):
                ordered.append(easy_order[e])
                e += 1
            else:
                ordered.append(difficult_order[d])
                d += 1

        for position, tid in enumerate(ordered, start=1):
            difficult = is_difficult[tid]
            if difficult and rng.random() < config.difficult_label_noise:
                path = _noisy_path(rng, true_index[tid])
            else:
                path = TRUE_PATHS[true_index[tid]]
            seconds = DIFFICULT_SECONDS if difficult else EASY_SECONDS
            labels = {f"l{level}": label for level, label in path_labels(path).items()}
            annotations.append(
                {
                    "worker_id": wid,
                    "institution": config.institution,
                    "group": GROUP,
                    "tweet_id": tid,
                    "order_index": position,
                    "labels": labels,
                    "durations_s": _durations(rng, path, seconds),
                }
            )
    return annotations, tweets


def generate_dataset(config: SynthConfig = SynthConfig()) -> Dataset:
    """Generate and parse in one step, exercising the same validation as
    file-based ingestion."""
    annotations, tweets = generate_records(config)
    return parse_dataset(
        (json.dumps(r) for r in annotations),
        (json.dumps(r) for r in tweets),
        annotations_path="<synthetic annotations>",
        tweets_path="<synthetic tweets>",
    )


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
