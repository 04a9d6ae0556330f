"""Check the traced counts of a `perfbench/run.py --workload panel --seed 1
--trace 1` run against their pinned values.

Reads the metrics from the last line of the run's output and reports every
metric that misses its pin, not only the first; exits 1 if any does.

    python3 scripts/check_trace_pins.py trace.log
"""

import json
import sys

# metric -> value it must equal on panel, seed 1
EXACT = {
    # one textsim.nsim call per pair that the grid's PairSimilarity cache
    # misses, pairs of two empty sequences included; the certainty kNN reads
    # similarity rows instead, so a grid lookup that bypasses textsim.nsim,
    # or a pair cache that lives shorter than one metric's grid, moves this
    # count
    "textsim.pairs_computed": 2412,
    # the grid looks each (query, training tweet) pair up once per worker and
    # arm, and only for a query that some train size ranks: where every size
    # the query serves has one training path (every late window here), no
    # row is read, so a row built anyway moves this count
    "textsim.lookups": 3393,
    # one seed per certainty split, certainty tie order, grid ranking and tied grid vote
    "config.stable_seed_calls": 8171,
    # the grid's inline prefix counts must still send every prefix vote through simulation.vote
    "knn.vote_calls": 28690,
    # and with the same counts: a prefix miscounted, or counts not reset between sizes, move this
    "knn.vote_unanimous": 14270,
    # every tied vote draws from its own (query, k, level) seed, so a grid
    # that skips or reuses work must still make each tied vote
    "knn.vote_tied": 4661,
}

# metrics that must be above 0
POSITIVE = (
    # a Fisher test imported at module level would hide its calls from stats.fisher_exact_two_tailed
    "stats.fisher_calls",
    # agreement computed past difficulty.majority_labels and agreement_score would time nothing
    "difficulty.agreement_s",
)


def mismatches(metrics: dict) -> list[str]:
    values = {name: metrics.get(name, {}).get("value") for name in [*EXACT, *POSITIVE]}
    problems = [
        f"{name} is {values[name]}, expected {expected} (panel, seed 1)"
        for name, expected in EXACT.items()
        if values[name] != expected
    ]
    problems += [f"{name} is missing or 0" for name in POSITIVE if not (values[name] or 0) > 0]
    return problems


def main(path: str) -> int:
    with open(path) as f:
        metrics = json.loads(f.read().splitlines()[-1])["metrics"]
    problems = mismatches(metrics)
    for problem in problems:
        print(f"{path}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
