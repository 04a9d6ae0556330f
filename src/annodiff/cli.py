"""Command-line pipeline: ingest, score, simulate, report.

Exit codes: 0 on success, 1 on invalid input or configuration, 2 on an
internal invariant violation. The seed comes from --seed alone, and is 0
when it is not given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from annodiff.config import SCORING_FIELDS, RunConfig
from annodiff.dataset import GROUPS, INSTITUTIONS, Dataset, load_dataset
from annodiff.difficulty import DIFFICULT, EASY, difficulty_scores
from annodiff.errors import AnnodiffError
from annodiff.outputs import (
    read_csv,
    read_json,
    read_scores_csv,
    write_curves_csv,
    write_json,
    write_outcomes_csv,
    write_scores_csv,
)
from annodiff.simulation import (
    MIN_WORKER_TWEETS,
    PHASES,
    aggregate,
    make_context,
    phase_windows,
    run_grid,
)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; ours are input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise AnnodiffError(message)


def _add_dataset_args(parser):
    parser.add_argument("--dataset", dest="annotations", metavar="DATASET", required=True, help="annotations.jsonl path")
    parser.add_argument("--tweets", required=True, help="tweets.jsonl path")


def _add_scoring_args(parser):
    parser.add_argument("--institution", choices=INSTITUTIONS, help="restrict to one institution (default: both)")
    parser.add_argument("--smoothing", type=float, default=RunConfig._field_defaults["smoothing"], help="additive smoothing of certainty rows (default %(default)s)")
    parser.add_argument("--k-certainty", type=int, default=RunConfig._field_defaults["k_certainty"], help="neighbors for the certainty predictors (default %(default)s)")
    parser.add_argument("--split", dest="split_ratio", metavar="SPLIT", type=float, default=RunConfig._field_defaults["split_ratio"], help="training share of each worker's tweets (default %(default)s)")
    parser.add_argument("--seed", type=int, default=RunConfig._field_defaults["seed"], help="master seed (default %(default)s)")
    parser.add_argument("--out", default=RunConfig._field_defaults["out"], help="output directory (default %(default)s)")


def _comma_separated(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _comma_separated_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _comma_separated(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="annodiff", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a dataset and print worker counts")
    _add_dataset_args(p_ingest)

    p_score = sub.add_parser("score", help="compute difficulty scores and class tweets")
    _add_dataset_args(p_score)
    _add_scoring_args(p_score)

    p_sim = sub.add_parser("simulate", help="run the easy/difficult predictor grid")
    _add_dataset_args(p_sim)
    _add_scoring_args(p_sim)
    p_sim.add_argument("--metrics", type=_comma_separated, default=",".join(RunConfig._field_defaults["metrics"]), help="comma-separated similarity metrics (default %(default)s)")
    p_sim.add_argument("--k-grid", type=_comma_separated_ints, default=",".join(map(str, RunConfig._field_defaults["k_grid"])), help="comma-separated neighbor counts (default %(default)s)")
    p_sim.add_argument("--epsilon", type=float, default=RunConfig._field_defaults["epsilon"], help="dominance threshold for outcome coding (default %(default)s)")

    p_report = sub.add_parser("report", help="render a human-readable summary of prior outputs")
    p_report.add_argument("--out", default=RunConfig._field_defaults["out"], help="directory holding score and simulation outputs (default %(default)s)")
    p_report.add_argument("--alpha", type=float, default=0.05, help="significance level for verdicts (default %(default)s)")
    return parser


def _make_run_config(args) -> RunConfig:
    """RunConfig from the flags this subcommand has, each stored under its
    field's name; every setting it has no flag for keeps its default.
    RunConfig refuses a bad value."""
    given = {name: value for name, value in vars(args).items() if name in RunConfig._fields}
    if args.institution:
        given["institutions"] = (args.institution,)
    return RunConfig(**given)


def cmd_ingest(args) -> int:
    dataset = load_dataset(args.annotations, args.tweets)
    counts = {inst: {g: 0 for g in GROUPS} for inst in INSTITUTIONS}
    for worker in dataset.workers.values():
        counts[worker.institution][worker.group] += 1
    annotations = [ann for w in dataset.workers.values() for ann in w.annotations]

    print(f"workers: {len(dataset.workers)}")
    print(f"{'institution':<12}" + "".join(f"{g:>6}" for g in GROUPS) + f"{'total':>8}")
    for inst in INSTITUTIONS:
        row = counts[inst]
        print(f"{inst:<12}" + "".join(f"{row[g]:>6}" for g in GROUPS) + f"{sum(row.values()):>8}")
    print(f"annotations: {len(annotations)}")
    print(f"tweets with text: {len(dataset.texts)}")
    print(f"labels pruned below Irrelevant: {sum(w.pruned_labels for w in dataset.workers.values())}")
    print(f"annotations with incomplete durations: {sum(ann.duration is None for ann in annotations)}")
    return 0


def _score_institutions(dataset: Dataset, config: RunConfig):
    """Score each requested institution. Returns (scores per institution,
    summary payload)."""
    scored: dict[str, list] = {}
    summary: dict[str, dict] = {}
    for institution in config.institutions:
        subset = dataset.filter_institution(institution)
        if not subset.workers:
            print(f"{institution}: no workers, skipped")
            continue
        result = difficulty_scores(subset, config)
        scored[institution] = result.scores
        class_by_tweet = {s.tweet_id: s.klass for s in result.scores}
        windows, excluded = phase_windows(subset)
        phases = {}
        for phase in PHASES:
            population = {
                tid
                for (_, ph), window in windows.items()
                if ph == phase
                for tid, _ in window
            }
            phases[phase] = {
                klass: sum(1 for tid in population if class_by_tweet.get(tid) == klass)
                for klass in (EASY, DIFFICULT)
            }
        summary[institution] = {
            "workers": len(subset.workers),
            "workers_excluded_under_50": sorted(excluded),
            "tweets_scored": len(result.scores),
            "certainty_imputed": len(result.imputed_certainty),
            "tweets_excluded": result.excluded,
            "classes": {
                klass: sum(1 for s in result.scores if s.klass == klass) for klass in (EASY, DIFFICULT)
            },
            "phases": phases,
        }
    if not scored:
        raise AnnodiffError("no institution has any workers to score")
    return scored, {"config": config.to_dict(), "institutions": summary}


def _easy_share(phase: dict) -> str:
    """The easy share of one phase window's scored tweets, n/a when it holds none."""
    total = phase[EASY] + phase[DIFFICULT]
    return f"{100.0 * phase[EASY] / total:.1f}%" if total else "n/a"


def _print_score_summary(summary: dict) -> None:
    for institution, info in sorted(summary["institutions"].items()):
        classes = info["classes"]
        print(f"{institution}: {info['tweets_scored']} tweets scored, "
              f"{classes[EASY]} easy / {classes[DIFFICULT]} difficult")
        for phase in PHASES:
            ph = info["phases"][phase]
            print(f"  {phase:<5} window population: {ph[EASY]} easy ({_easy_share(ph)}), {ph[DIFFICULT]} difficult")
        if info["certainty_imputed"]:
            print(f"  certainty imputed for {info['certainty_imputed']} tweet(s)")
        if info["tweets_excluded"]:
            print(f"  excluded from scoring: {len(info['tweets_excluded'])} tweet(s)")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _scores_sources(config: RunConfig) -> dict[str, Path]:
    """The files a scores.csv stands for, by the key summary.json records
    each one's sha256 under."""
    return {
        "annotations": Path(config.annotations),
        "tweets": Path(config.tweets),
        "scores.csv": Path(config.out) / "scores.csv",
    }


def _write_scores(config: RunConfig, scored: dict[str, list], summary: dict) -> None:
    """Remove the outputs derived from the scores.csv in --out, which the
    new one makes stale, then write scores.csv, then summary.json with the
    sha256 of both inputs and of that scores.csv, which is what lets
    simulate reuse it."""
    for name in ("outcomes.csv", "curves.csv", "stats.json", "report.md"):
        (Path(config.out) / name).unlink(missing_ok=True)
    sources = _scores_sources(config)
    write_scores_csv(str(sources["scores.csv"]), config.header_json(), scored)
    summary["sha256"] = {key: _sha256(path) for key, path in sources.items()}
    write_json(str(Path(config.out) / "summary.json"), summary)


def _refuse_stale_scores(config: RunConfig) -> None:
    """simulate reuses a scores.csv only when the summary.json that score
    wrote beside it records this run's scoring configuration and the sha256
    that the inputs and scores.csv have now. Anything else exits 1 naming
    the file that differs."""
    sources = _scores_sources(config)
    scores_path = sources["scores.csv"]
    summary_path = scores_path.with_name("summary.json")
    if not summary_path.exists():
        raise AnnodiffError(
            f"{scores_path} has no {summary_path} beside it, so what it was scored from is unknown; "
            "rerun score or remove the file"
        )
    summary = read_json(str(summary_path))
    if _scoring_json(summary_path, summary.get("config")) != _scoring_json(None, config.to_dict()):
        raise AnnodiffError(
            f"{scores_path} was produced under a different scoring configuration; "
            "rerun score or remove the file"
        )
    with _refuse_malformed(summary_path):
        recorded = {key: summary["sha256"][key] for key in sources}
    for key, path in sources.items():
        if _sha256(path) != recorded[key]:
            raise AnnodiffError(
                f"{path} has changed since score wrote {scores_path} (its sha256 differs from the one in "
                f"{summary_path}); rerun score or remove {scores_path}"
            )


def cmd_score(args) -> int:
    config = _make_run_config(args)
    dataset = load_dataset(config.annotations, config.tweets)
    scored, summary = _score_institutions(dataset, config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_scores(config, scored, summary)
    _print_score_summary(summary)
    print(f"wrote {out / 'scores.csv'} and {out / 'summary.json'}")
    return 0


def cmd_simulate(args) -> int:
    config = _make_run_config(args)
    dataset = load_dataset(config.annotations, config.tweets)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    scores_path = out / "scores.csv"
    if not scores_path.exists():
        _write_scores(config, *_score_institutions(dataset, config))
        print(f"wrote {scores_path}")
    # the classes come from the file alone, whether it was written now or reused
    _refuse_stale_scores(config)
    scored = read_scores_csv(str(scores_path))
    print(f"loaded difficulty scores from {scores_path}")

    results = []
    for institution in config.institutions:
        if institution not in scored:
            print(f"{institution}: no scores, skipped")
            continue
        class_by_tweet = {tid: s.klass for tid, s in scored[institution].items()}
        ctx = make_context(dataset, institution, class_by_tweet)
        if not ctx.worker_ids:
            print(f"{institution}: no worker has {MIN_WORKER_TWEETS} or more annotations, skipped")
            continue
        results.extend(run_grid(ctx, config))

    if not results:
        raise AnnodiffError("nothing to simulate: no institution produced any configuration")

    write_outcomes_csv(str(out / "outcomes.csv"), config.header_json(), results)
    write_curves_csv(str(out / "curves.csv"), config.header_json(), results)

    valid = [(r.phase, r.code) for r in results if r.code is not None]
    undefined = sum(1 for r in results if r.code is None)
    counts, tables = aggregate(valid)
    payload = {"config": config.to_dict(), "outcome_counts": counts, "tables": tables, "undefined_comparisons": undefined}
    write_json(str(out / "stats.json"), payload)

    print(f"{len(results)} comparisons ({undefined} undefined)")
    for phase in PHASES:
        row = counts[phase]
        print(f"  {phase:<5} T={row['T']} E={row['E']} D={row['D']}")
    for name, table in tables.items():
        print(f"  {name}: {table['counts']} {_format_p(table['p_value'])}")
    print(f"wrote {out / 'outcomes.csv'}, {out / 'curves.csv'}, {out / 'stats.json'}")
    return 0


def _format_p(p: float) -> str:
    return "p < 0.0001" if p < 1e-4 else f"p = {p:.4f}"


@contextmanager
def _refuse_malformed(path: Path):
    """Data read from path that lacks a key or column, or holds a value of
    the wrong kind, makes the file malformed: an input error naming it."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise AnnodiffError(f"{path} is malformed ({type(exc).__name__}: {exc}); rerun score and simulate") from exc


def _scoring_json(path: Path | None, config) -> str:
    """The scoring fields of a config embedded in path, as canonical JSON:
    two configs score alike only if these strings are equal, so true is not
    1 and 1.0 is not 1."""
    if not isinstance(config, dict):
        raise AnnodiffError(f"{path} has no embedded config, so its run is unknown; rerun score and simulate")
    with _refuse_malformed(path):
        return json.dumps({name: config[name] for name in SCORING_FIELDS}, sort_keys=True)


def _refuse_mixed_runs(configs: dict[Path, dict | None]) -> None:
    """report's inputs, summary.json, outcomes.csv and stats.json in that
    order, must come from one run: the same scoring configuration in all
    three, and the same full configuration in the last two, which one
    simulate writes together. A new scores.csv removes the outputs of the
    old one, so only a directory assembled by hand can mix runs."""
    scoring = {path: _scoring_json(path, config) for path, config in configs.items()}
    paths = list(configs)
    disagree = [(a, b) for i, a in enumerate(paths) for b in paths[i + 1:] if scoring[a] != scoring[b]]
    if disagree:
        pairs = "; ".join(f"{a} and {b}" for a, b in disagree)
        raise AnnodiffError(f"outputs of runs under different scoring configurations: {pairs}; rerun score and simulate")
    _, outcomes, stats = paths
    if configs[outcomes] != configs[stats]:
        raise AnnodiffError(f"{outcomes} and {stats} come from different simulate runs; rerun simulate")


def cmd_report(args) -> int:
    out = Path(args.out)
    alpha = args.alpha
    if not 0 < alpha < 1:
        raise AnnodiffError("--alpha must lie strictly between 0 and 1")
    required = {name: out / name for name in ("summary.json", "outcomes.csv", "stats.json")}
    missing = [str(p) for p in required.values() if not p.exists()]
    if missing:
        raise AnnodiffError(f"missing inputs: {', '.join(missing)}; run score and simulate first")

    summary = read_json(str(required["summary.json"]))
    outcomes_config, outcome_rows = read_csv(str(required["outcomes.csv"]))
    stats = read_json(str(required["stats.json"]))
    _refuse_mixed_runs(
        {
            required["summary.json"]: summary.get("config"),
            required["outcomes.csv"]: outcomes_config,
            required["stats.json"]: stats.get("config"),
        }
    )

    lines = ["# Annotation difficulty report", ""]
    lines.append("## Class balance by phase window")
    lines.append("")
    lines.append("| institution | phase | easy | difficult | easy share |")
    lines.append("|---|---|---|---|---|")
    with _refuse_malformed(required["summary.json"]):
        for institution, info in sorted(summary["institutions"].items()):
            for phase in PHASES:
                ph = info["phases"][phase]
                lines.append(f"| {institution} | {phase} | {ph[EASY]} | {ph[DIFFICULT]} | {_easy_share(ph)} |")
    lines.append("")

    lines.append("## Outcomes per configuration")
    lines.append("")
    if not outcome_rows:
        raise AnnodiffError(f"{required['outcomes.csv']} holds no comparisons")
    with _refuse_malformed(required["outcomes.csv"]):
        sizes = sorted({int(r["n"]) for r in outcome_rows})
        lines.append("| institution | metric | phase | " + " | ".join(f"n={n}" for n in sizes) + " |")
        lines.append("|" + "---|" * (3 + len(sizes)))
        keyed = {(r["institution"], r["metric"], r["phase"], int(r["n"])): r["code"] for r in outcome_rows}
        combos = sorted({(r["institution"], r["metric"]) for r in outcome_rows})
        for institution, metric in combos:
            for phase in PHASES:
                codes = [keyed.get((institution, metric, phase, n), "") for n in sizes]
                if any(codes):
                    lines.append(f"| {institution} | {metric} | {phase} | " + " | ".join(codes) + " |")
    lines.append("")

    lines.append("## Outcome counts and pairwise tests")
    lines.append("")
    lines.append("| phase | T | E | D |")
    lines.append("|---|---|---|---|")
    with _refuse_malformed(required["stats.json"]):
        for phase in PHASES:
            row = stats["outcome_counts"][phase]
            lines.append(f"| {phase} | {row['T']} | {row['E']} | {row['D']} |")
        lines.append("")
        significant = []
        for name, table in sorted(stats["tables"].items()):
            p = table["p_value"]
            verdict = "significant" if p < alpha else "not significant"
            if p < alpha:
                significant.append(name)
            pretty = name.replace("_vs_", " vs ")
            lines.append(f"- {pretty}: rows {table['rows']}, counts {table['counts']}, {_format_p(p)} ({verdict} at alpha={alpha:g})")
    if not significant:
        lines.append(f"- no significant differences at alpha={alpha:g}")
    lines.append("")

    report = "\n".join(lines)
    print(report)
    (out / "report.md").write_text(report, encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "ingest": cmd_ingest,
            "score": cmd_score,
            "simulate": cmd_simulate,
            "report": cmd_report,
        }[args.command]
        return handler(args)
    except AnnodiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # here alone, so that no command pays for it at start
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
