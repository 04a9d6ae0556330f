"""Per-layer counters and timers for the traced run.

The program's modules bind their imports with `from ... import`, so a public
function is wrapped by replacing its name in each module that calls it (and
a method on its class). Times are inclusive wall times summed over calls.
Nothing under src/ is changed.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)

    def wrap(self, owner, name: str, key: str, after=None) -> None:
        """Time and count every call of owner.name under key; after(args,
        result) may add counters."""
        inner = getattr(owner, name)
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = inner(*args, **kwargs)
            seconds[key] += clock() - start
            counts[key] += 1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, wrapper)

    def count(self, owner, name: str, key: str) -> None:
        """Count calls only, for calls too short and frequent to time."""
        inner = getattr(owner, name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        setattr(owner, name, wrapper)

    def install(self) -> None:
        from annodiff import cli, dataset, difficulty, simulation, stats, textsim

        add = self.counts.update

        def tally_vote(args, _):
            tally = Counter(args[0])
            top = max(tally.values())
            if len(tally) == 1:
                add({"knn.vote_unanimous": 1})
            elif sum(1 for c in tally.values() if c == top) > 1:
                add({"knn.vote_tied": 1})

        self.wrap(cli, "load_dataset", "dataset.load",
                  lambda _, ds: add({"dataset.annotations": sum(len(w.annotations) for w in ds.workers.values())}))
        self.wrap(dataset.Dataset, "word_sequences", "dataset.word_sequences")
        self.count(textsim.PairSimilarity, "sim", "textsim.lookups")
        self.wrap(textsim, "nsim", "textsim.nsim")
        self.wrap(difficulty, "predictor_certainties", "difficulty.certainty",
                  lambda _, r: add({"difficulty.imputed": len(r.imputed)}))
        self.wrap(difficulty, "majority_labels", "difficulty.agreement")
        self.wrap(difficulty, "agreement_score", "difficulty.agreement")
        self.wrap(difficulty, "labeling_costs", "difficulty.cost")
        self.wrap(difficulty, "rank_by_similarity", "knn.rank_certainty")
        self.wrap(simulation, "rank_by_similarity", "knn.rank_grid")
        self.wrap(simulation, "vote", "knn.vote", tally_vote)
        self.wrap(simulation, "hierarchical_f1", "knn.f1", lambda args, _: add({"knn.f1_pairs": len(args[0])}))
        for module in (dataset, difficulty, simulation):
            self.wrap(module, "stable_seed", "config.stable_seed")
        self.wrap(difficulty, "kmeans_1d", "stats.kmeans", lambda _, r: add({"stats.kmeans_values": len(r.labels)}))
        self.wrap(stats, "fisher_exact_two_tailed", "stats.fisher")  # imported at call time
        self.wrap(cli, "make_context", "simulation.context",
                  lambda _, ctx: add({"simulation.workers_used": len(ctx.worker_ids)}))
        self.wrap(cli, "run_grid", "simulation.grid", lambda _, r: add({"simulation.configs": len(r)}))
        for name in ("write_scores_csv", "write_json", "write_outcomes_csv", "write_curves_csv"):
            self.wrap(cli, name, "outputs.write", lambda args, _: add({"outputs.bytes": os.path.getsize(args[0])}))

    def metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, s = self.counts, self.seconds
        lookups = c["textsim.lookups"]
        return {
            "dataset.load_s": (s["dataset.load"], "s"),
            "dataset.annotations": (c["dataset.annotations"], "count"),
            "dataset.word_sequences_calls": (c["dataset.word_sequences"], "count"),
            "dataset.tokenize_s": (s["dataset.word_sequences"], "s"),
            "textsim.lookups": (lookups, "count"),
            "textsim.pairs_computed": (c["textsim.nsim"], "count"),
            "textsim.cache_hit_ratio": (1 - c["textsim.nsim"] / lookups if lookups else 0.0, "ratio"),
            "textsim.nsim_s": (s["textsim.nsim"], "s"),
            "difficulty.certainty_s": (s["difficulty.certainty"], "s"),
            "difficulty.agreement_s": (s["difficulty.agreement"], "s"),
            "difficulty.cost_s": (s["difficulty.cost"], "s"),
            "difficulty.imputed": (c["difficulty.imputed"], "count"),
            "knn.rank_calls": (c["knn.rank_certainty"] + c["knn.rank_grid"], "count"),
            "knn.rank_s": (s["knn.rank_certainty"] + s["knn.rank_grid"], "s"),
            "knn.vote_calls": (c["knn.vote"], "count"),
            "knn.vote_tied": (c["knn.vote_tied"], "count"),
            "knn.vote_unanimous": (c["knn.vote_unanimous"], "count"),
            "knn.vote_s": (s["knn.vote"], "s"),
            "knn.f1_pairs": (c["knn.f1_pairs"], "count"),
            "knn.f1_s": (s["knn.f1"], "s"),
            "config.stable_seed_calls": (c["config.stable_seed"], "count"),
            "config.stable_seed_s": (s["config.stable_seed"], "s"),
            "stats.kmeans_values": (c["stats.kmeans_values"], "count"),
            "stats.kmeans_s": (s["stats.kmeans"], "s"),
            "stats.fisher_calls": (c["stats.fisher"], "count"),
            "simulation.context_s": (s["simulation.context"], "s"),
            "simulation.grid_s": (s["simulation.grid"], "s"),
            "simulation.configs": (c["simulation.configs"], "count"),
            "simulation.predictions": (c["knn.rank_grid"], "count"),
            "simulation.workers_used": (c["simulation.workers_used"], "count"),
            "outputs.write_s": (s["outputs.write"], "s"),
            "outputs.bytes": (c["outputs.bytes"], "bytes"),
            "trace.overhead": (overhead, "ratio"),
        }
