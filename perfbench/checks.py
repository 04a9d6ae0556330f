"""Output checks, made apart from the program.

Each check recomputes what it can from the raw JSONL records with the
README's formulas, or tests a property the method must have; none compares
against a stored copy of earlier output. Every function returns a list of
problems, empty when the outputs are right.
"""

from __future__ import annotations

import csv
import json
import re
import statistics
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.stats import fisher_exact

LEVELS = ("l1", "l2", "l3")
METRICS = ("subsequence", "substring", "edit")
K_GRID = (1, 3, 5, 7, 9, 11, 13, 15)
PHASES = ("early", "late")
TRAIN_SIZES = range(2, 11)
EPSILON = 0.01
MIN_WORKER_TWEETS = 50
TABLE_ROWS = {"E_vs_T": ["T", "E"], "E_vs_D": ["E", "D"], "T_vs_D": ["T", "D"]}
TOL = 1e-9


def read_rows(path: Path) -> list[dict]:
    """Rows of one of the program's CSV files, after its '# config' line."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _pruned(record: dict) -> tuple[dict, dict]:
    """Labels and durations of one annotation, without levels below an
    Irrelevant level-1 label."""
    labels, durations = record["labels"], record.get("durations_s", {})
    if labels["l1"] == "Irrelevant":
        return {"l1": "Irrelevant"}, {k: v for k, v in durations.items() if k == "l1"}
    return labels, durations


def expected_agreement(records: list[dict]) -> float:
    """A: per level, the majority share of voters, weighted by that level's
    share of all majority votes; a tied level adds one to the denominator."""
    levels = []
    for level in LEVELS:
        votes = Counter(labels[level] for labels, _ in map(_pruned, records) if level in labels)
        if votes:
            top = max(votes.values())
            tie = sum(1 for count in votes.values() if count == top) > 1
            levels.append((top, sum(votes.values()), tie))
    denominator = sum(top for top, _, _ in levels) + sum(1 for *_, tie in levels if tie)
    return sum((top / voters) * (top / denominator) for top, voters, _ in levels)


def expected_costs(by_tweet: dict[str, list[dict]]) -> dict[str, float]:
    """L: median summed duration over annotators with complete durations,
    min-max inverted so the cheapest tweet scores 1."""
    medians = {}
    for tid, records in by_tweet.items():
        totals = []
        for labels, durations in map(_pruned, records):
            if all(level in durations for level in labels):
                totals.append(sum(durations[level] for level in sorted(labels)))
        if totals:
            medians[tid] = statistics.median(totals)
    lo, hi = min(medians.values()), max(medians.values())
    return {tid: 1.0 if hi == lo else 1.0 - (m - lo) / (hi - lo) for tid, m in medians.items()}


def best_split_wcss(values: np.ndarray) -> float:
    """Least within-cluster sum of squares over every two-group threshold
    split of the values, by brute force."""
    ordered = np.sort(values)
    best = np.inf
    for i in range(1, len(ordered)):
        if ordered[i - 1] == ordered[i]:
            continue
        low, high = ordered[:i], ordered[i:]
        best = min(best, float(((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum()))
    return best


def check_ingest(stdout: str, corpus) -> list[str]:
    expected = {
        "workers": len(corpus.workers),
        "annotations": len(corpus.annotations),
        "tweets with text": len(corpus.tweets),
        "labels pruned below Irrelevant": corpus.pruned_labels,
        "annotations with incomplete durations": corpus.missing_durations,
    }
    problems = []
    for label, want in expected.items():
        found = re.search(rf"^{re.escape(label)}: (\d+)$", stdout, re.MULTILINE)
        if found is None or int(found.group(1)) != want:
            problems.append(f"ingest: {label!r} should be {want}, output says {found and found.group(1)}")
    return problems


def check_scores(out: Path, corpus) -> list[str]:
    problems = []
    rows = read_rows(out / "scores.csv")
    summary = json.loads((out / "summary.json").read_text())
    for institution in sorted({w.institution for w in corpus.workers}):
        records = [r for r in corpus.annotations if r["institution"] == institution]
        by_tweet: dict[str, list[dict]] = {}
        for record in records:
            by_tweet.setdefault(record["tweet_id"], []).append(record)
        costs = expected_costs(by_tweet)
        scored = [r for r in rows if r["institution"] == institution]
        if sorted(r["tweet_id"] for r in scored) != sorted(by_tweet):
            problems.append(f"{institution}: scored tweets differ from the labeled ones")
        for row in scored:
            tid = row["tweet_id"]
            a, c, l, ds = (float(row[key]) for key in ("A", "C", "L", "ds"))
            if tid in by_tweet and abs(a - expected_agreement(by_tweet[tid])) > TOL:
                problems.append(f"{institution} {tid}: A={a}, recomputed {expected_agreement(by_tweet[tid])}")
            if tid in costs and abs(l - costs[tid]) > TOL:
                problems.append(f"{institution} {tid}: L={l}, recomputed {costs[tid]}")
            if abs(ds - (a + c + l)) > TOL:
                problems.append(f"{institution} {tid}: ds={ds} is not A + C + L")
            if not 0.0 <= c <= 1.0:
                problems.append(f"{institution} {tid}: C={c} outside [0, 1]")
            if row["class"] != corpus.planted_class.get(tid):
                problems.append(f"{institution} {tid}: class {row['class']}, planted {corpus.planted_class.get(tid)}")
        easy = np.array([float(r["ds"]) for r in scored if r["class"] == "easy"])
        difficult = np.array([float(r["ds"]) for r in scored if r["class"] == "difficult"])
        if not len(easy) or not len(difficult) or easy.min() <= difficult.max():
            problems.append(f"{institution}: easy/difficult is not a threshold split with easy on top")
        else:
            wcss = float(((easy - easy.mean()) ** 2).sum() + ((difficult - difficult.mean()) ** 2).sum())
            best = best_split_wcss(np.concatenate([easy, difficult]))
            if wcss > best + TOL * max(1.0, best):
                problems.append(f"{institution}: split WCSS {wcss} above the minimum {best}")
        short = sorted(w.worker_id for w in corpus.workers
                       if w.institution == institution and len(w.tweets) < MIN_WORKER_TWEETS)
        reported = summary["institutions"].get(institution, {}).get("workers_excluded_under_50")
        if reported != short:
            problems.append(f"{institution}: excluded workers {reported}, expected {short}")
    return problems


def check_simulation(out: Path, corpus) -> list[str]:
    problems = []
    outcomes = read_rows(out / "outcomes.csv")
    curves: dict[tuple, list[dict]] = {}
    for row in read_rows(out / "curves.csv"):
        curves.setdefault((row["institution"], row["metric"], row["phase"], row["n"]), []).append(row)
    stats = json.loads((out / "stats.json").read_text())

    simulated = sorted({w.institution for w in corpus.workers if len(w.tweets) >= MIN_WORKER_TWEETS})
    expected_keys = sorted((i, m, p, str(n)) for i in simulated for m in METRICS for p in PHASES for n in TRAIN_SIZES)
    keys = sorted((r["institution"], r["metric"], r["phase"], r["n"]) for r in outcomes)
    if keys != expected_keys:
        problems.append(f"{len(keys)} configurations, expected {len(expected_keys)} "
                        f"({len(simulated)} institutions x {len(METRICS)} metrics x 2 phases x 9 sizes)")

    tally = {phase: Counter() for phase in PHASES}
    undefined = 0
    for row in outcomes:
        key = (row["institution"], row["metric"], row["phase"], row["n"])
        points = sorted(curves.get(key, []), key=lambda r: int(r["k"]))
        if row["code"] == "undefined":
            undefined += 1
            if points:
                problems.append(f"{key}: undefined code but curves present")
            continue
        tally[row["phase"]][row["code"]] += 1
        if [int(r["k"]) for r in points] != list(K_GRID):
            problems.append(f"{key}: curve covers k={[r['k'] for r in points]}")
            continue
        f1 = [(float(r["hf1_easy"]), float(r["hf1_difficult"])) for r in points]
        if any(not 0.0 <= v <= 1.0 for pair in f1 for v in pair):
            problems.append(f"{key}: F1 outside [0, 1]")
        gap = statistics.fmean(e - d for e, d in f1)
        code = "E" if gap > EPSILON else "D" if gap < -EPSILON else "T"
        if abs(gap - float(row["mean_delta"])) > TOL or row["code"] != code:
            problems.append(f"{key}: code {row['code']} / gap {row['mean_delta']}, curves give {code} / {gap}")

    for phase in PHASES:
        counts = {code: tally[phase][code] for code in ("T", "E", "D")}
        if stats["outcome_counts"][phase] != counts:
            problems.append(f"stats.json {phase} counts {stats['outcome_counts'][phase]}, outcomes.csv {counts}")
    if stats.get("undefined_comparisons") != undefined:
        problems.append(f"stats.json undefined {stats.get('undefined_comparisons')}, outcomes.csv {undefined}")
    for name, rows in TABLE_ROWS.items():
        table = stats["tables"][name]
        counts = [[tally[phase][code] for phase in PHASES] for code in rows]
        if table["rows"] != rows or table["counts"] != counts:
            problems.append(f"{name}: table {table['rows']} {table['counts']}, outcomes give {counts}")
            continue
        expected = fisher_exact(counts, alternative="two-sided").pvalue
        if abs(table["p_value"] - expected) > 1e-6 * max(expected, 1e-12):
            problems.append(f"{name}: p={table['p_value']}, scipy gives {expected}")
    e = sum(tally[phase]["E"] for phase in PHASES)
    d = sum(tally[phase]["D"] for phase in PHASES)
    if e <= d:
        problems.append(f"planted corpus: E={e} does not outnumber D={d}")
    return problems


def check_outputs(out: Path, corpus) -> list[str]:
    return check_scores(out, corpus) + check_simulation(out, corpus)
