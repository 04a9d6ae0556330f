"""Acceptance checks: one test per contract, run with pytest -v for a
pass/fail line each.

1. Worked agreement and certainty-aggregation examples land on their
   documented values.
2. The exact two-tailed test matches full enumeration and reproduces the
   documented significance pattern.
3. Six property families hold over thousands of random cases, fast.
4. A full pipeline rerun over the same inputs is byte-identical.
5. A reference corpus, when supplied, reproduces its documented statistics.
6. On a planted two-class dataset, predictors trained on easy tweets beat
   predictors trained on difficult ones for every similarity metric.
"""

import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import oracles
from annodiff import cli
from annodiff.config import RunConfig
from annodiff.dataset import (
    Annotation,
    Dataset,
    Worker,
    load_dataset,
)
from annodiff.difficulty import (
    agreement_score,
    difficulty_scores,
    knn_label_certainty,
    labeling_costs,
    predictor_certainties,
)
from annodiff.knn import hierarchical_f1, path_triple
from annodiff.labels import (
    FACTUAL,
    IRRELEVANT,
    LEVEL_LABELS,
    NEGATIVE,
    NO_LABEL,
    NONFACTUAL,
    POSITIVE,
    RELEVANT,
    label_path,
)
from annodiff.simulation import aggregate, make_context, phase_windows, run_grid, worker_triples
from annodiff.stats import fisher_exact_two_tailed, kmeans_1d
from annodiff.synth import SynthConfig, generate_dataset, generate_records, write_jsonl
from annodiff.textsim import METRICS, PairSimilarity, nsim

TOL = 0.005


def test_c1_worked_agreement_and_aggregation_examples():
    start = time.perf_counter()
    # unanimous level 1 (4 voters), 3-of-4 level 2, unanimous level 3 (2)
    counts = {1: Counter({RELEVANT: 4}), 2: Counter({FACTUAL: 3, NONFACTUAL: 1}), 3: Counter({POSITIVE: 2})}
    assert agreement_score(counts) == pytest.approx(0.92, abs=TOL)
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    # same, but level 2 splits evenly: the tie costs one extra majority share
    counts_tied = {1: Counter({RELEVANT: 4}), 2: Counter({FACTUAL: 2, NONFACTUAL: 2}), 3: Counter({POSITIVE: 2})}
    assert agreement_score(counts_tied) == pytest.approx(0.78, abs=TOL)
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    # two workers test one shared tweet against pools of three, each pool
    # tweet a neighbor: w1's level rows are (4/5, 1/5), (2/5, 3/5), (3/4, 1/4)
    # and w2's (3/5, 2/5), (1/4, 3/4), (1/2, 1/2), so the levels' larger
    # averages are .7, .675 and .625, whose mean is 2/3
    pos, neg = label_path(RELEVANT, NONFACTUAL, POSITIVE), label_path(RELEVANT, NONFACTUAL, NEGATIVE)
    fac, irr = label_path(RELEVANT, FACTUAL), label_path(IRRELEVANT)
    ds = oracles.shared_test_tweet_dataset({"w1": [pos, pos, fac], "w2": [pos, neg, irr]})
    config = RunConfig("a.jsonl", "t.jsonl", split_ratio=oracles.SHARED_SPLIT, k_certainty=3)
    assert predictor_certainties(ds, config).values["t"] == pytest.approx(0.667, abs=TOL)
    assert time.perf_counter() - start < 1.0


def test_c2_exact_test_matches_enumeration():
    # documented significance pattern over the three outcome contrasts
    assert fisher_exact_two_tailed(31, 12, 13, 36) < 1e-4
    assert fisher_exact_two_tailed(13, 36, 10, 6) < 0.02
    assert fisher_exact_two_tailed(31, 12, 10, 6) > 0.5

    rng = random.Random(20260817)
    checked = 0
    while checked < 200:
        cells = [rng.randint(0, 15) for _ in range(4)]
        if sum(cells) == 0:
            continue
        p = fisher_exact_two_tailed(*cells)
        exact = float(oracles.fisher_exact_fraction(*cells))
        assert abs(p - exact) <= 1e-10, cells
        assert 0.0 < p <= 1.0, cells
        checked += 1


def _check_family_nsim():
    rng = random.Random(101)
    alphabet = ["a", "b", "c", "d"]
    brute = {
        "subsequence": lambda a, b: oracles.lcs_subsequence_brute(a, b) / max(len(a), len(b)),
        "substring": lambda a, b: oracles.lcs_substring_brute(a, b) / max(len(a), len(b)),
        "edit": lambda a, b: 1.0 - oracles.edit_distance_brute(a, b) / max(len(a), len(b)),
    }
    for _ in range(1000):
        a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        b = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        for metric in METRICS:
            s = nsim(a, b, metric)
            assert 0.0 <= s <= 1.0, (a, b, metric)
            assert s == nsim(b, a, metric), (a, b, metric)
            assert s == brute[metric](a, b), (a, b, metric)
            assert nsim(b, b, metric) == 1.0, (b, metric)


def _check_family_certainty_rows():
    rng = random.Random(202)
    for _ in range(1000):
        level = rng.choice((1, 2, 3))
        labels = LEVEL_LABELS[level]
        k = rng.randint(1, 9)
        neighbors = [rng.choice(labels) for _ in range(k)]
        row = [knn_label_certainty(neighbors.count(label), k, 1.0) for label in labels]
        assert abs(sum(row) - 1.0) <= 1e-12, neighbors
        assert all(v > 0.0 for v in row), neighbors


def _cost_dataset(raw_costs):
    annotations = [
        Annotation(f"t{i}", label_path(IRRELEVANT), cost)
        for i, cost in enumerate(raw_costs)
    ]
    texts = {f"t{i}": "x" for i in range(len(raw_costs))}
    return Dataset(workers={"w": Worker("MD", "M", annotations)}, texts=texts)


def _check_family_costs():
    rng = random.Random(303)
    for _ in range(1000):
        n = rng.randint(2, 8)
        raw = [round(rng.uniform(1.0, 30.0), 3) for _ in range(n)]
        if rng.random() < 0.1:
            raw = [raw[0]] * n  # degenerate: no cost signal
        costs = labeling_costs(_cost_dataset(raw))
        assert all(0.0 <= v <= 1.0 for v in costs.values()), raw
        if len(set(raw)) == 1:
            assert set(costs.values()) == {1.0}, raw
            continue
        by_raw = sorted(range(n), key=lambda i: raw[i])
        assert costs[f"t{by_raw[0]}"] == 1.0, raw
        assert costs[f"t{by_raw[-1]}"] == 0.0, raw
        ordered = [costs[f"t{i}"] for i in by_raw]
        assert all(x >= y for x, y in zip(ordered, ordered[1:])), raw


def _check_family_kmeans():
    rng = random.Random(404)
    for i in range(1000):
        n = rng.randint(100, 200) if i % 50 == 0 else rng.randint(2, 40)
        values = [
            float(rng.randint(0, 5)) if rng.random() < 0.5 else rng.uniform(0.0, 3.0)
            for _ in range(n)
        ]
        if len(set(values)) < 2:
            values[-1] += 1.0
        clustering = kmeans_1d(values)
        low_mean, high_mean = oracles.cluster_means(values, clustering.labels)
        assert low_mean < high_mean, values
        wcss = oracles.wcss_of_assignment(values, clustering.labels)
        assert wcss <= oracles.best_threshold_wcss(values) + 1e-9, values


TRUTH_PATHS = (
    (IRRELEVANT, NO_LABEL, NO_LABEL),
    (RELEVANT, FACTUAL, NO_LABEL),
    (RELEVANT, NONFACTUAL, POSITIVE),
    (RELEVANT, NONFACTUAL, NEGATIVE),
)


def _check_family_hierarchical_f1():
    rng = random.Random(505)
    for _ in range(1000):
        pairs = []
        for _ in range(rng.randint(1, 12)):
            truth = rng.choice(TRUTH_PATHS)
            predicted = oracles.coerce_structure(
                rng.choice((RELEVANT, IRRELEVANT)),
                rng.choice((FACTUAL, NONFACTUAL, NO_LABEL)),
                rng.choice((POSITIVE, NEGATIVE, NO_LABEL)),
            )
            pairs.append((truth, predicted))
        value = hierarchical_f1([sum(column) for column in zip(*(path_triple(t, p) for t, p in pairs))])
        assert 0.0 <= value <= 1.0
        sets = [(oracles.path_label_set(*t), oracles.path_label_set(*p)) for t, p in pairs]
        assert value == pytest.approx(oracles.hier_f1_direct(sets), abs=1e-12)
        perfect = [(t, t) for t, _ in pairs]
        assert hierarchical_f1([sum(column) for column in zip(*(path_triple(t, p) for t, p in perfect))]) == 1.0


def _check_family_agreement():
    rng = random.Random(606)
    for _ in range(1000):
        votes = {1: [rng.choice(LEVEL_LABELS[1]) for _ in range(rng.randint(1, 5))]}
        for level in (2, 3):
            votes[level] = [rng.choice(LEVEL_LABELS[level]) for _ in range(rng.randint(0, 5))]
        value = agreement_score({level: Counter(cast) for level, cast in votes.items() if cast})
        assert 0.0 <= value <= 1.0, votes
        assert value == pytest.approx(oracles.agreement_direct(votes), abs=1e-12), votes


def test_c3_property_families_hold_over_random_cases():
    families = {
        "similarity": _check_family_nsim,
        "certainty rows": _check_family_certainty_rows,
        "labeling costs": _check_family_costs,
        "clustering": _check_family_kmeans,
        "hierarchical F1": _check_family_hierarchical_f1,
        "agreement": _check_family_agreement,
    }
    total = 0.0
    for name, check in families.items():
        start = time.perf_counter()
        check()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{name} family too slow: {elapsed:.1f}s"
        total += elapsed
    assert total < 30.0, f"property families took {total:.1f}s"


def test_c4_pipeline_rerun_is_byte_identical(tmp_path):
    start = time.perf_counter()
    annotations, tweets = generate_records(SynthConfig(n_workers=4, seed=7))
    write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    out = tmp_path / "out"
    args = [
        "simulate",
        "--dataset", str(tmp_path / "annotations.jsonl"),
        "--tweets", str(tmp_path / "tweets.jsonl"),
        "--out", str(out),
        "--seed", "7",
    ]
    assert cli.main(args) == 0
    watched = ("scores.csv", "outcomes.csv", "curves.csv", "stats.json")
    snapshot = {name: (out / name).read_bytes() for name in watched}
    # second run reloads scores.csv, so equality also proves the float
    # round-trip through the CSV is exact
    assert cli.main(args) == 0
    for name in watched:
        assert (out / name).read_bytes() == snapshot[name], name
    assert time.perf_counter() - start < 60.0


REFERENCE_WORKERS = {"MD": 19, "SU": 25}
# (institution, phase) -> (easy, difficult) tweets across that phase's windows
REFERENCE_WINDOWS = {
    ("MD", "early"): (68, 67),
    ("MD", "late"): (78, 63),
    ("SU", "early"): (93, 69),
    ("SU", "late"): (86, 72),
}
# institution -> inclusive band for the late-phase easy-vs-difficult gap of
# the edit predictor at train size 8, with TOL slack on both ends
REFERENCE_GAPS = {"MD": (0.02, 0.06), "SU": (0.015, 0.045)}


def test_c5_reference_corpus_reproduction():
    corpus = os.environ.get("ANNODIFF_DATASET_DIR")
    if not corpus:
        pytest.skip("set ANNODIFF_DATASET_DIR to a directory with annotations.jsonl and tweets.jsonl")
    config = RunConfig(str(Path(corpus) / "annotations.jsonl"), str(Path(corpus) / "tweets.jsonl"), seed=0)
    dataset = load_dataset(config.annotations, config.tweets)
    outcome_counts = {}
    for institution, expected_workers in REFERENCE_WORKERS.items():
        subset = dataset.filter_institution(institution)
        assert len(subset.workers) == expected_workers, institution

        result = difficulty_scores(subset, config)
        classes = {s.tweet_id: s.klass for s in result.scores}
        windows = phase_windows(subset)
        for phase in ("early", "late"):
            population = {
                tid
                for (wid, ph), window in windows.items()
                if ph == phase
                for tid, _ in window
            }
            easy = sum(1 for tid in population if classes.get(tid) == "easy")
            difficult = sum(1 for tid in population if classes.get(tid) == "difficult")
            expected = REFERENCE_WINDOWS[(institution, phase)]
            assert abs(easy - expected[0]) <= 5, (institution, phase, easy)
            assert abs(difficult - expected[1]) <= 5, (institution, phase, difficult)

        ctx = make_context(dataset, institution, classes)
        results = run_grid(ctx, config)
        counts, _ = aggregate([(r.phase, r.code) for r in results if r.code is not None])
        for phase in ("early", "late"):
            for code, count in counts[phase].items():
                outcome_counts[(institution, phase, code)] = count

        gap_lo, gap_hi = REFERENCE_GAPS[institution]
        late8 = next(r for r in results if r.metric == "edit" and r.phase == "late" and r.train_size == 8)
        assert late8.mean_delta is not None, institution
        assert gap_lo - TOL <= late8.mean_delta <= gap_hi + TOL, (institution, late8.mean_delta)

    early_e = sum(outcome_counts[(i, "early", "E")] for i in REFERENCE_WORKERS)
    late_e = sum(outcome_counts[(i, "late", "E")] for i in REFERENCE_WORKERS)
    early_t = sum(outcome_counts[(i, "early", "T")] for i in REFERENCE_WORKERS)
    late_t = sum(outcome_counts[(i, "late", "T")] for i in REFERENCE_WORKERS)
    assert late_e > early_e
    assert early_t > late_t


def test_c6_easy_training_class_beats_difficult():
    config = SynthConfig(n_workers=8, n_easy=40, n_difficult=20, difficult_label_noise=0.6, seed=11)
    dataset = generate_dataset(config)
    result = difficulty_scores(dataset, RunConfig("annotations.jsonl", "tweets.jsonl", seed=11))
    classes = {s.tweet_id: s.klass for s in result.scores}
    assert set(classes.values()) == {"easy", "difficult"}

    ctx = make_context(dataset, "MD", classes)
    # every worker's late strata hold the 8 tweets that size 8 trains on, so
    # both curves pool all workers; which sizes a worker holds does not
    # depend on the metric
    ks = sorted(RunConfig._field_defaults["k_grid"])
    sims = PairSimilarity(ctx.words, "edit")
    for wid in ctx.worker_ids:
        for arm in ("easy", "difficult"):
            assert 8 in worker_triples(ctx, wid, sims, "edit", "late", arm, ks, 11), (wid, arm)
    for metric in METRICS:
        grid = run_grid(ctx, RunConfig("annotations.jsonl", "tweets.jsonl", metrics=(metric,), seed=11))
        run = next(r for r in grid if r.phase == "late" and r.train_size == 8)
        assert run.curve_easy is not None and run.curve_difficult is not None, metric
        assert run.mean_delta is not None and run.mean_delta > 0.01, (metric, run.mean_delta)
        assert run.code == "E", metric
