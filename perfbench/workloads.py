"""Planted input corpora for the benchmark, generated from a seed.

Every workload plants the same signals. A tweet's true label path is fixed by
its index. Easy tweets are written mostly from their path's word pool,
labeled with their true path and labeled quickly (1 to 2 s). Difficult tweets
are written mostly from the word pool of a decoy path (think sarcasm), an
unsure worker marks them Irrelevant with probability DIFFICULT_NOISE, and
they take about ten times longer (15 to 20 s).

Each worker's session order is planted. The early phase window (annotations
1 to 25) holds 15 easy and 10 difficult Relevant tweets; the late window
(26 to 50) holds 15 easy and 10 difficult Irrelevant tweets, so the late
phase always codes T (both predictors see only Irrelevant labels) while the
early phase mostly codes E. A corpus therefore always yields at least two
distinct outcome codes: `simulate` fails when it sees only one (see
CHANGES.md). Annotations past 50 mix the rest 60/40.

Workloads differ in how tweets are shared among workers, which decides how
much similarity work is reused:

- panel: every worker labels the same tweets, so the simulation grid does
  almost all the work and most similarity lookups hit the pair cache;
- deep: a few long sessions over mostly private tweets, so certainty kNN in
  scoring and fresh pair computations dominate;
- crowd: the paper's shape, two institutions with S/M/L sessions of
  50/150/500 tweets, short sessions the grid excludes, sparse labels per
  tweet, Irrelevant labels that keep lower levels, and missing durations.

The same (workload, seed) always yields the same records.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

TRUE_PATHS = (
    {"l1": "Irrelevant"},
    {"l1": "Relevant", "l2": "Factual"},
    {"l1": "Relevant", "l2": "NonFactual", "l3": "Positive"},
    {"l1": "Relevant", "l2": "NonFactual", "l3": "Negative"},
)
IRRELEVANT_PATH = 0
WORD_POOLS = tuple(
    pool.split()
    for pool in (
        "pizza rain weekend coffee gym playlist traffic brunch puppy beach",
        "poll percent schedule venue moderator candidates airtime transcript segment podium",
        "strong win brilliant hope proud inspiring leader great honest respect",
        "weak lies disaster shame rigged boring dodge failure angry worst",
    )
)
NEUTRAL_WORDS = (
    "#debate tonight watching live #vote now just really think people "
    "today said thing going know see still time every lot"
).split()

WORDS_PER_TWEET = 8
POOL_WORDS = 6
DIFFICULT_NOISE = 0.7
SECONDS = {"easy": (1.0, 2.0), "difficult": (15.0, 20.0)}
PHASE_LENGTH = 25
WINDOW_MIX = (15, 10)  # easy, difficult tweets per phase window
DIFFICULT_SHARE = 0.4
# crowd only: share of Irrelevant labels that keep lower-level labels, and
# share of later annotations of a tweet (within one institution) that lack
# their level-1 duration
KEPT_BELOW_IRRELEVANT = 0.3
MISSING_DURATION = 0.1


@dataclass(frozen=True)
class WorkerPlan:
    worker_id: str
    institution: str
    group: str
    tweets: tuple[str, ...]  # session order


@dataclass
class Corpus:
    """Generated records plus the truth the benchmark checks against."""

    annotations: list[dict]
    tweets: list[dict]
    planted_class: dict[str, str]  # labeled tweet id -> "easy" / "difficult"
    workers: list[WorkerPlan]
    pruned_labels: int
    missing_durations: int


def _rng(seed: int, *parts) -> random.Random:
    blob = "\x1f".join(str(p) for p in (seed, *parts)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def _merge(rng: random.Random, easy: list[str], difficult: list[str]) -> list[str]:
    """Shuffle each class, then interleave them in proportion."""
    easy, difficult = easy[:], difficult[:]
    rng.shuffle(easy)
    rng.shuffle(difficult)
    total = len(easy) + len(difficult)
    out: list[str] = []
    e = d = 0
    for i in range(1, total + 1):
        if d < round(i * len(difficult) / total):
            out.append(difficult[d])
            d += 1
        else:
            out.append(easy[e])
            e += 1
    return out


class _Tweets:
    """Tweet ids with their planted class and true path (index mod 4)."""

    def __init__(self):
        self.klass: dict[str, str] = {}
        self.path: dict[str, int] = {}

    def add(self, prefix: str, n_easy: int, n_difficult: int) -> tuple[list[str], list[str]]:
        ids = [f"{prefix}{i:05d}" for i in range(n_easy + n_difficult)]
        for i, tid in enumerate(ids):
            self.klass[tid] = "easy" if i < n_easy else "difficult"
            self.path[tid] = i % len(TRUE_PATHS)
        return ids[:n_easy], ids[n_easy:]

    def session(self, rng: random.Random, easy: list[str], difficult: list[str], length: int) -> tuple[str, ...]:
        """A planted session of `length` tweets drawn from the candidates."""
        if length < 2 * PHASE_LENGTH:
            n_difficult = round(length * DIFFICULT_SHARE)
            return tuple(_merge(rng, rng.sample(easy, length - n_difficult), rng.sample(difficult, n_difficult)))
        windows: list[str] = []
        for late in (False, True):
            picked = [
                rng.sample([t for t in ids if (self.path[t] == IRRELEVANT_PATH) == late], n)
                for ids, n in zip((easy, difficult), WINDOW_MIX)
            ]
            windows += _merge(rng, *picked)
        used = set(windows)
        rest_easy = [t for t in easy if t not in used]
        rest_difficult = [t for t in difficult if t not in used]
        n_rest = length - len(windows)
        n_difficult = round(n_rest * DIFFICULT_SHARE)
        rest = _merge(rng, rng.sample(rest_easy, n_rest - n_difficult), rng.sample(rest_difficult, n_difficult))
        return tuple(windows + rest)


def _panel(seed: int, tweets: _Tweets) -> list[WorkerPlan]:
    easy, difficult = tweets.add("p", 120, 80)
    return [
        WorkerPlan(f"md_m{w:02d}", "MD", "M", tweets.session(_rng(seed, "order", w), easy, difficult, 200))
        for w in range(3)
    ]


def _deep(seed: int, tweets: _Tweets) -> list[WorkerPlan]:
    shared_easy, shared_difficult = tweets.add("s", 30, 20)
    workers = []
    for w in range(2):
        own_easy, own_difficult = tweets.add(f"w{w}_", 330, 220)
        order = tweets.session(
            _rng(seed, "order", w), own_easy + shared_easy, own_difficult + shared_difficult, 600
        )
        workers.append(WorkerPlan(f"su_l{w:02d}", "SU", "L", order))
    return workers


# (group, session length) of each institution's workers; the 38-tweet
# sessions stop before 50 annotations, so the grid excludes them
CROWD_SESSIONS = {
    "MD": (("S", 50), ("S", 38), ("L", 500)),
    "SU": (("M", 150), ("S", 38), ("L", 500)),
}


def _crowd(seed: int, tweets: _Tweets) -> list[WorkerPlan]:
    easy, difficult = tweets.add("c", 300, 200)
    workers = []
    for institution, sessions in CROWD_SESSIONS.items():
        for w, (group, length) in enumerate(sessions):
            order = tweets.session(_rng(seed, "order", institution, w), easy, difficult, length)
            workers.append(WorkerPlan(f"{institution.lower()}_{group.lower()}{w:02d}", institution, group, order))
    return workers


WORKLOADS = {"panel": _panel, "deep": _deep, "crowd": _crowd}


def _text(rng: random.Random, path: int, klass: str) -> str:
    pool = WORD_POOLS[path if klass == "easy" else (path + 1) % len(WORD_POOLS)]
    words = rng.sample(pool, POOL_WORDS) + rng.sample(NEUTRAL_WORDS, WORDS_PER_TWEET - POOL_WORDS)
    rng.shuffle(words)
    return " ".join(words)


def _durations(rng: random.Random, levels: list[str], seconds: tuple[float, float]) -> dict[str, float]:
    total = rng.uniform(*seconds)
    weights = [rng.uniform(0.5, 1.0) for _ in levels]
    scale = total / sum(weights)
    return {level: round(w * scale, 3) for level, w in zip(levels, weights)}


def generate(workload: str, seed: int) -> Corpus:
    """Build the corpus of one workload for one seed."""
    tweets = _Tweets()
    workers = WORKLOADS[workload](seed, tweets)
    crowd = workload == "crowd"
    tweet_records = [
        {"tweet_id": tid, "text": _text(_rng(seed, "text", tid), tweets.path[tid], tweets.klass[tid])}
        for tid in sorted(tweets.klass)
    ]
    seen: set[tuple[str, str]] = set()
    annotations = []
    pruned = missing = 0
    for plan in workers:
        rng = _rng(seed, "labels", plan.worker_id)
        for position, tid in enumerate(plan.tweets, start=1):
            klass = tweets.klass[tid]
            unsure = klass == "difficult" and rng.random() < DIFFICULT_NOISE
            labels = dict(TRUE_PATHS[IRRELEVANT_PATH if unsure else tweets.path[tid]])
            durations = _durations(rng, sorted(labels), SECONDS[klass])
            if crowd and labels["l1"] == "Irrelevant" and rng.random() < KEPT_BELOW_IRRELEVANT:
                labels.update({"l2": "NonFactual", "l3": "Negative"})
                durations.update({"l2": 0.5, "l3": 0.5})
                pruned += 2
            # a tweet's first annotation in each institution keeps its
            # durations, so every tweet keeps a labeling cost
            if crowd and (plan.institution, tid) in seen and rng.random() < MISSING_DURATION:
                del durations["l1"]
                missing += 1
            seen.add((plan.institution, tid))
            annotations.append(
                {
                    "worker_id": plan.worker_id,
                    "institution": plan.institution,
                    "group": plan.group,
                    "tweet_id": tid,
                    "order_index": position,
                    "labels": labels,
                    "durations_s": durations,
                }
            )
    labeled = {tid for _, tid in seen}
    return Corpus(
        annotations=annotations,
        tweets=tweet_records,
        planted_class={tid: k for tid, k in tweets.klass.items() if tid in labeled},
        workers=workers,
        pruned_labels=pruned,
        missing_durations=missing,
    )


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
