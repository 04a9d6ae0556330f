"""End-to-end command line behaviour through main()."""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from annodiff import cli
from annodiff.config import RunConfig
from annodiff.outputs import CONFIG_PREFIX, read_csv, read_json, read_scores_csv
from annodiff.synth import SynthConfig, generate_records, write_jsonl


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    annotations, tweets = generate_records(SynthConfig(n_workers=2, n_easy=25, n_difficult=25, seed=5))
    write_jsonl(annotations, str(root / "annotations.jsonl"))
    write_jsonl(tweets, str(root / "tweets.jsonl"))
    return root


def _dataset_args(dataset_dir):
    return ["--dataset", str(dataset_dir / "annotations.jsonl"), "--tweets", str(dataset_dir / "tweets.jsonl")]


def _simulate_args(dataset_dir, out, extra=()):
    return ["simulate", *_dataset_args(dataset_dir), "--out", str(out), "--metrics", "edit", "--k-grid", "1,3", *extra]


def test_ingest_prints_counts(tmp_path, capsys):
    # MD's record prunes its level-2 label below Irrelevant; SU's first
    # record lacks its level-2 duration
    def record(worker, institution, tweet, order, labels, durations):
        return {"worker_id": worker, "institution": institution, "group": "M", "tweet_id": tweet,
                "order_index": order, "labels": labels, "durations_s": durations}

    write_jsonl([
        record("md1", "MD", "t1", 1, {"l1": "Irrelevant", "l2": "Factual"}, {"l1": 1.0}),
        record("su1", "SU", "t1", 1, {"l1": "Relevant", "l2": "Factual"}, {"l1": 1.0}),
        record("su1", "SU", "t2", 2, {"l1": "Irrelevant"}, {"l1": 2.0}),
    ], str(tmp_path / "annotations.jsonl"))
    write_jsonl([{"tweet_id": tid, "text": "a few words"} for tid in ("t1", "t2", "t3")], str(tmp_path / "tweets.jsonl"))
    assert cli.main(["ingest", *_dataset_args(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "workers: 2\n"
        "institution      S     M     L   total\n"
        "MD               0     1     0       1\n"
        "SU               0     1     0       1\n"
        "annotations: 3\n"
        "tweets with text: 3\n"
        "labels pruned below Irrelevant: 1\n"
        "annotations with incomplete durations: 1\n"
    )


def test_ingest_reports_line_of_bad_record(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "annotations.jsonl"
    bad.write_text('{"worker_id": "w", "institution": "XX", "group": "M", "tweet_id": "t", '
                   '"labels": {"l1": "Irrelevant"}, "durations_s": {"l1": 1.0}, "order_index": 1}\n')
    code = cli.main(["ingest", "--dataset", str(bad), "--tweets", str(dataset_dir / "tweets.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert "line 1" in err


@pytest.mark.parametrize("name", ["annotations.jsonl", "tweets.jsonl"])
def test_ingest_names_line_of_bytes_that_are_not_utf8(dataset_dir, tmp_path, capsys, name):
    for source in ("annotations.jsonl", "tweets.jsonl"):
        shutil.copy(dataset_dir / source, tmp_path / source)
    lines = (tmp_path / name).read_bytes().count(b"\n")
    with open(tmp_path / name, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    code = cli.main(["ingest", *_dataset_args(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{tmp_path / name}, line {lines + 1}: bytes that are not UTF-8 at character 1" in err


def test_score_names_line_of_id_with_lone_surrogate(dataset_dir, tmp_path, capsys):
    # a valid JSON escape, but the id does not encode as UTF-8 to seed a draw
    records = [json.loads(line) for line in (dataset_dir / "annotations.jsonl").read_text().splitlines()]
    first = records[0]["worker_id"]
    for record in records:
        if record["worker_id"] == first:
            record["worker_id"] = first + "\udc00"
    write_jsonl(records, str(tmp_path / "annotations.jsonl"))
    shutil.copy(dataset_dir / "tweets.jsonl", tmp_path / "tweets.jsonl")
    code = cli.main(["score", *_dataset_args(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{tmp_path / 'annotations.jsonl'}, line 1: worker_id holds a lone surrogate" in err


def test_ingest_names_line_of_order_index_gap(dataset_dir, tmp_path, capsys):
    # the first worker's fifth annotation moves to order_index 6, leaving 5 empty
    records = [json.loads(line) for line in (dataset_dir / "annotations.jsonl").read_text().splitlines()]
    first = records[0]["worker_id"]
    gap_line = None
    for line_no, record in enumerate(records, start=1):
        if record["worker_id"] == first and record["order_index"] >= 5:
            record["order_index"] += 1
            if record["order_index"] == 6:
                gap_line = line_no
    write_jsonl(records, str(tmp_path / "annotations.jsonl"))
    shutil.copy(dataset_dir / "tweets.jsonl", tmp_path / "tweets.jsonl")
    code = cli.main(["ingest", *_dataset_args(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"annotations.jsonl, line {gap_line}: worker {first!r} has gaps in order_index: 6 where 5 was expected" in err


def test_ingest_empty_files(tmp_path, capsys):
    (tmp_path / "a.jsonl").write_text("")
    (tmp_path / "t.jsonl").write_text("")
    code = cli.main(["ingest", "--dataset", str(tmp_path / "a.jsonl"), "--tweets", str(tmp_path / "t.jsonl")])
    assert code == 0
    assert "workers: 0" in capsys.readouterr().out


def test_score_writes_scores_and_summary(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["score", *_dataset_args(dataset_dir), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "tweets scored" in stdout
    assert "SU: no workers, skipped" in stdout

    first_line = (out / "scores.csv").read_text().splitlines()[0]
    assert first_line.startswith(CONFIG_PREFIX)
    config, _ = read_csv(str(out / "scores.csv"))
    assert config["seed"] == 0
    by_institution = read_scores_csv(str(out / "scores.csv"))
    assert set(by_institution) == {"MD"}
    assert len(by_institution["MD"]) == 50
    assert {s.klass for s in by_institution["MD"].values()} == {"easy", "difficult"}

    summary = read_json(str(out / "summary.json"))
    assert summary["config"]["split_ratio"] == 0.4
    assert summary["institutions"]["MD"]["workers"] == 2
    classes = summary["institutions"]["MD"]["classes"]
    assert classes["easy"] + classes["difficult"] == 50


def test_score_reports_imputed_and_excluded_tweets_on_stdout_alone(tmp_path):
    # two workers label every tweet, so a tweet in both training partitions
    # gets the imputed certainty; t000 has no duration in either session,
    # so it has no labeling cost and is excluded. A fresh process, since
    # pytest would capture what a library writes to a logger.
    annotations, tweets = generate_records(SynthConfig(n_workers=2, n_easy=25, n_difficult=25, seed=5))
    for record in annotations:
        if record["tweet_id"] == "t000":
            del record["durations_s"]
    write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "annodiff.cli", "score", *_dataset_args(tmp_path), "--out", str(out)],
                            env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    info = read_json(str(out / "summary.json"))["institutions"]["MD"]
    assert info["tweets_excluded"] == {"t000": "no labeling durations"}
    assert info["certainty_imputed"] > 0
    assert f"  certainty imputed for {info['certainty_imputed']} tweet(s)\n" in result.stdout
    assert "  excluded from scoring: 1 tweet(s)\n" in result.stdout


def test_score_gives_no_easy_share_for_an_empty_phase_window(tmp_path, capsys):
    # 40 tweets per worker: no worker reaches the 50 annotations that the two
    # phase windows need, so both windows hold no scored tweet
    annotations, tweets = generate_records(SynthConfig(n_workers=4, n_easy=20, n_difficult=20, seed=1))
    write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    out = tmp_path / "out"
    assert cli.main(["score", *_dataset_args(tmp_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "  early window population: 0 easy (n/a), 0 difficult\n" in stdout
    assert "  late  window population: 0 easy (n/a), 0 difficult\n" in stdout


def test_score_requires_a_scorable_institution(dataset_dir, tmp_path, capsys):
    code = cli.main(["score", *_dataset_args(dataset_dir), "--out", str(tmp_path / "o"), "--institution", "SU"])
    assert code == 1
    assert "no institution has any workers to score" in capsys.readouterr().err


def test_score_rejects_degenerate_clustering(tmp_path, capsys):
    # every tweet ends up with an identical score, so no two clusters exist
    annotations = []
    for wid in ("w1", "w2"):
        for i in range(4):
            annotations.append(
                {
                    "worker_id": wid,
                    "institution": "MD",
                    "group": "M",
                    "tweet_id": f"t{i}",
                    "labels": {"l1": "Irrelevant"},
                    "durations_s": {"l1": 2.0},
                    "order_index": i + 1,
                }
            )
    tweets = [{"tweet_id": f"t{i}", "text": "the same text every time"} for i in range(4)]
    write_jsonl(annotations, str(tmp_path / "a.jsonl"))
    write_jsonl(tweets, str(tmp_path / "t.jsonl"))
    code = cli.main(["score", "--dataset", str(tmp_path / "a.jsonl"), "--tweets", str(tmp_path / "t.jsonl"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "distinct" in capsys.readouterr().err


def test_simulate_writes_all_artifacts(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(_simulate_args(dataset_dir, out)) == 0
    stdout = capsys.readouterr().out
    assert "18 comparisons" in stdout
    for name in ("scores.csv", "summary.json", "outcomes.csv", "curves.csv", "stats.json"):
        assert (out / name).exists(), name

    config, rows = read_csv(str(out / "outcomes.csv"))
    assert config["k_grid"] == [1, 3]
    assert len(rows) == 18
    assert {r["metric"] for r in rows} == {"edit"}
    assert all(r["code"] in {"T", "E", "D", "undefined"} for r in rows)

    stats = read_json(str(out / "stats.json"))
    assert set(stats["tables"]) == {"E_vs_T", "E_vs_D", "T_vs_D"}
    for table in stats["tables"].values():
        assert 0.0 < table["p_value"] <= 1.0
    defined = sum(stats["outcome_counts"][phase][c] for phase in ("early", "late") for c in "TED")
    assert defined + stats["undefined_comparisons"] == 18


def test_simulate_reuses_existing_scores(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(_simulate_args(dataset_dir, out)) == 0
    capsys.readouterr()
    assert cli.main(_simulate_args(dataset_dir, out)) == 0
    assert "loaded difficulty scores" in capsys.readouterr().out


def test_simulate_rejects_mismatched_scores(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["score", *_dataset_args(dataset_dir), "--out", str(out)]) == 0
    capsys.readouterr()
    code = cli.main(_simulate_args(dataset_dir, out, extra=["--split", "0.5"]))
    assert code == 1
    assert "different scoring configuration" in capsys.readouterr().err


def test_simulate_writes_stats_when_every_code_is_d(tmp_path, capsys):
    # equal durations leave only A and C to separate the classes; on this
    # planted set every comparison then favors the difficult arm, so the E and
    # T rows of E_vs_T are all zero
    annotations, tweets = generate_records(
        SynthConfig(n_workers=8, n_easy=40, n_difficult=20, difficult_label_noise=0.6, seed=11)
    )
    for record in annotations:
        record["durations_s"] = {level: 1.0 for level in record["durations_s"]}
    write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    out = tmp_path / "out"
    assert cli.main([*_simulate_args(tmp_path, out), "--seed", "11"]) == 0
    capsys.readouterr()
    stats = read_json(str(out / "stats.json"))
    assert stats["outcome_counts"] == {phase: {"T": 0, "E": 0, "D": 9} for phase in ("early", "late")}
    assert stats["tables"]["E_vs_T"]["counts"] == [[0, 0], [0, 0]]
    assert stats["tables"]["E_vs_T"]["p_value"] == 1.0


def test_import_leaves_numpy_unloaded(dataset_dir, tmp_path):
    # the program has no runtime dependency, so scoring (2-means included)
    # must not import numpy even where it is installed
    args = ["score", *_dataset_args(dataset_dir), "--out", str(tmp_path / "out")]
    code = (
        "import sys; from annodiff import cli\n"
        f"assert cli.main({args!r}) == 0\n"
        "sys.exit('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_report_renders_markdown(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(_simulate_args(dataset_dir, out)) == 0
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    report = (out / "report.md").read_text()
    assert report in stdout + "\n" or report.strip() in stdout
    assert "## Class balance by phase window" in report
    assert "## Outcomes per configuration" in report
    assert "| MD | edit |" in report
    assert "E vs D" in report


def test_report_refuses_outputs_of_different_runs(tmp_path, capsys):
    # simulate under seed 11, then score under seed 12 into the same --out:
    # the new scores.csv makes the simulate outputs stale, so score removes
    # them and report finds its inputs missing
    annotations, tweets = generate_records(
        SynthConfig(n_workers=8, n_easy=40, n_difficult=20, difficult_label_noise=0.6, seed=11)
    )
    write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    out = tmp_path / "out"
    assert cli.main([*_simulate_args(tmp_path, out), "--seed", "11"]) == 0
    assert cli.main(["score", *_dataset_args(tmp_path), "--out", str(out), "--seed", "12"]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"missing inputs: {out / 'outcomes.csv'}, {out / 'stats.json'};" in err
    assert not (out / "report.md").exists()


def test_report_refuses_scores_of_other_inputs(tmp_path, capsys):
    # score, simulate and report the README walk's data, regenerate the data
    # at the same paths under another seed, and score again under the same
    # flags: the new summary.json describes other inputs than the old
    # outcomes.csv and stats.json, so score removed those and report.md
    out = tmp_path / "out"
    for seed in (11, 12):
        annotations, tweets = generate_records(
            SynthConfig(n_workers=8, n_easy=40, n_difficult=30, difficult_label_noise=0.6, seed=seed)
        )
        write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
        write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
        assert cli.main(["score", *_dataset_args(tmp_path), "--out", str(out)]) == 0
        if seed == 11:
            assert cli.main(_simulate_args(tmp_path, out)) == 0
            assert cli.main(["report", "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["scores.csv", "summary.json"]
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 1
    assert "missing inputs" in capsys.readouterr().err


def test_report_refuses_outcomes_and_stats_of_different_simulations(dataset_dir, simulated, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(simulated, out)
    stats = read_json(str(out / "stats.json"))
    stats["config"]["epsilon"] = 0.5
    (out / "stats.json").write_text(json.dumps(stats))
    assert cli.main(["report", "--out", str(out)]) == 1
    assert f"{out / 'outcomes.csv'} and {out / 'stats.json'} come from different simulate runs" in capsys.readouterr().err


def test_report_refuses_a_scoring_field_of_another_json_type(simulated, tmp_path, capsys):
    # false == 0 in Python, but the configs are compared as the JSON they are
    out = tmp_path / "out"
    shutil.copytree(simulated, out)
    summary = read_json(str(out / "summary.json"))
    assert summary["config"]["seed"] == 0
    summary["config"]["seed"] = False
    (out / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["report", "--out", str(out)]) == 1
    assert f"{out / 'summary.json'} and {out / 'outcomes.csv'}" in capsys.readouterr().err
    assert not (out / "report.md").exists()


def test_report_requires_prior_outputs(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    code = cli.main(["report", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "missing inputs" in capsys.readouterr().err


def test_report_validates_alpha(dataset_dir, tmp_path, capsys):
    code = cli.main(["report", "--out", str(tmp_path), "--alpha", "1.5"])
    assert code == 1
    assert "--alpha" in capsys.readouterr().err


def test_internal_errors_exit_2(dataset_dir, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_grid", boom)
    code = cli.main(_simulate_args(dataset_dir, tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error:" in err
    assert "RuntimeError" in err


BAD_ARG_CASES = [
    (["--metrics", "cosine"], "unknown metric"),
    (["--epsilon", "-1"], "--epsilon"),
    (["--k-grid", "1,x"], "--k-grid"),
    (["--k-grid", "0"], "--k-grid"),
    (["--split", "1.5"], "--split"),
    (["--k-certainty", "0"], "--k-certainty"),
    (["--smoothing", "-0.5"], "--smoothing"),
]


@pytest.mark.parametrize("extra, fragment", BAD_ARG_CASES, ids=[c[1] for c in BAD_ARG_CASES])
def test_bad_arguments_exit_1(dataset_dir, tmp_path, capsys, extra, fragment):
    code = cli.main(["simulate", *_dataset_args(dataset_dir), "--out", str(tmp_path / "o"), *extra])
    assert code == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--smoothing", "--epsilon"])
def test_non_finite_numbers_exit_1(dataset_dir, tmp_path, capsys, flag, value):
    # the = form keeps argparse from reading -inf as an option
    code = cli.main(["simulate", *_dataset_args(dataset_dir), "--out", str(tmp_path / "o"), f"{flag}={value}"])
    assert code == 1
    assert f"{flag} must be a finite non-negative number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_required_argument_is_usage_error(capsys):
    code = cli.main(["ingest", "--dataset", "a.jsonl"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage:" in err
    assert "--tweets" in err


def test_seed_comes_from_the_flag_alone(dataset_dir, tmp_path, monkeypatch):
    # the environment sets no seed: without --seed it is RunConfig's 0
    monkeypatch.setenv("ANNODIFF_SEED", "99")
    out = tmp_path / "default"
    assert cli.main(["score", *_dataset_args(dataset_dir), "--out", str(out)]) == 0
    assert read_json(str(out / "summary.json"))["config"]["seed"] == 0

    out2 = tmp_path / "flag"
    assert cli.main(["score", *_dataset_args(dataset_dir), "--out", str(out2), "--seed", "5"]) == 0
    assert read_json(str(out2 / "summary.json"))["config"]["seed"] == 5


def test_repeated_metric_exit_1(dataset_dir, tmp_path, capsys):
    # a metric given twice would run and count each of its configurations twice
    out = tmp_path / "o"
    code = cli.main(["simulate", *_dataset_args(dataset_dir), "--out", str(out), "--metrics", "substring,edit,edit"])
    assert code == 1
    assert "'edit'" in capsys.readouterr().err
    assert not (out / "outcomes.csv").exists()


@pytest.mark.parametrize("command", ["score", "simulate"])
def test_every_run_flag_is_stored_under_its_field(command):
    # the run config keeps only the flags stored under a RunConfig field's
    # name, so a flag stored under any other name would be dropped unseen
    args = cli.build_parser().parse_args([command, "--dataset", "a.jsonl", "--tweets", "t.jsonl"])
    assert set(vars(args)) - set(RunConfig._fields) == {"command", "institution"}


def test_flags_set_their_run_config_fields():
    args = cli.build_parser().parse_args([
        "simulate", "--dataset", "a.jsonl", "--tweets", "t.jsonl", "--institution", "SU",
        "--smoothing", "0.5", "--k-certainty", "5", "--split", "0.6", "--seed", "7", "--out", "o",
        "--metrics", "edit, substring", "--k-grid", "1, 4", "--epsilon", "0.2",
    ])
    assert cli._make_run_config(args) == RunConfig(
        "a.jsonl", "t.jsonl", institutions=("SU",), metrics=("edit", "substring"), smoothing=0.5,
        k_certainty=5, k_grid=(1, 4), epsilon=0.2, split_ratio=0.6, seed=7, out="o",
    )


def test_simulate_names_the_annotation_floor_when_no_worker_qualifies(tmp_path, capsys):
    # SU's two workers stop at 40 annotations, short of the 50 that the two
    # 25-tweet phases need, so SU has no worker to simulate
    annotations, tweets = generate_records(SynthConfig(n_workers=4, seed=5))
    short, _ = generate_records(SynthConfig(n_workers=2, institution="SU", seed=5))
    write_jsonl(annotations + [r for r in short if r["order_index"] <= 40], str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    assert cli.main(_simulate_args(tmp_path, tmp_path / "out")) == 0
    assert "SU: no worker has 50 or more annotations, skipped" in capsys.readouterr().out


def test_input_line_order_does_not_change_outputs(tmp_path, capsys):
    # label noise makes training paths disagree and votes tie, and two
    # institutions interleave once the lines are shuffled
    annotations, tweets = generate_records(SynthConfig(n_workers=2, difficult_label_noise=0.6, seed=3))
    more, _ = generate_records(SynthConfig(n_workers=2, difficult_label_noise=0.6, institution="SU", seed=3))
    paths = {"annotations.jsonl": annotations + more, "tweets.jsonl": tweets}
    out = tmp_path / "out"
    runs = []
    for shuffle in (False, True):
        for name, records in paths.items():
            write_jsonl(records, str(tmp_path / name))
            if shuffle:
                lines = (tmp_path / name).read_text().splitlines(keepends=True)
                random.Random(name).shuffle(lines)
                (tmp_path / name).write_text("".join(lines))
        shutil.rmtree(out, ignore_errors=True)
        assert cli.main(["simulate", *_dataset_args(tmp_path), "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in ("scores.csv", "outcomes.csv", "curves.csv", "stats.json")})
    capsys.readouterr()
    assert runs[0] == runs[1]


def _with_embedded(text, key, value):
    header, rest = text.split("\n", 1)
    embedded = json.loads(header[len(CONFIG_PREFIX):])
    embedded[key] = value
    return CONFIG_PREFIX + json.dumps(embedded) + "\n" + rest


def _with_first_row_repeated(text):
    # a copy of the first row with its class flipped: the count of distinct
    # tweets still matches summary.json
    row = text.splitlines()[2].split(",")
    row[-1] = "difficult" if row[-1] == "easy" else "easy"
    return text + ",".join(row) + "\n"


def _without_worker(text, worker):
    return "".join(line for line in text.splitlines(keepends=True) if json.loads(line)["worker_id"] != worker)


# (file edited after score, edit of its text or None to delete it, file the
# refusal names)
STALE_SCORES = {
    "lost rows": ("scores.csv", lambda t: "".join(t.splitlines(keepends=True)[:-1]), "scores.csv"),
    "renamed tweet": ("scores.csv", lambda t: t.replace(",t000,", ",no_such_tweet,"), "scores.csv"),
    "repeated row": ("scores.csv", _with_first_row_repeated, "scores.csv"),
    "unstamped": ("scores.csv", lambda t: t.split("\n", 1)[1], "scores.csv"),
    "unknown config key": ("scores.csv", lambda t: _with_embedded(t, "bogus", 1), "scores.csv"),
    "mistyped config field": ("scores.csv", lambda t: _with_embedded(t, "institutions", 5), "scores.csv"),
    "no summary beside it": ("summary.json", None, "scores.csv"),
    # the row count and tweet ids of scores.csv still match: only the
    # digests can tell that one of the two workers is gone
    "worker deleted from annotations": ("annotations.jsonl", lambda t: _without_worker(t, "md_w01"), "annotations.jsonl"),
    "tweet text edited": ("tweets.jsonl", lambda t: t.replace('"text": "', '"text": "edited ', 1), "tweets.jsonl"),
}


@pytest.mark.parametrize("case", sorted(STALE_SCORES))
def test_simulate_refuses_stale_scores(dataset_dir, tmp_path, capsys, case):
    name, edit, named = STALE_SCORES[case]
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(dataset_dir, data)
    assert cli.main(["score", *_dataset_args(data), "--out", str(out)]) == 0
    paths = {
        "scores.csv": out / "scores.csv",
        "summary.json": out / "summary.json",
        "annotations.jsonl": data / "annotations.jsonl",
        "tweets.jsonl": data / "tweets.jsonl",
    }
    path = paths[name]
    if edit is None:
        path.unlink()
    else:
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
    capsys.readouterr()
    assert cli.main(_simulate_args(data, out)) == 1
    err = capsys.readouterr().err
    assert str(paths["scores.csv"]) in err
    assert str(paths[named]) in err
    assert not (out / "outcomes.csv").exists()


def test_simulate_reuses_scores_of_moved_outputs(dataset_dir, simulated, tmp_path, capsys):
    # the digests name no path of scores.csv, so a copied --out still matches
    out = tmp_path / "out"
    shutil.copytree(simulated, out)
    assert cli.main(_simulate_args(dataset_dir, out)) == 0
    assert "loaded difficulty scores" in capsys.readouterr().out


@pytest.fixture(scope="module")
def simulated(dataset_dir, tmp_path_factory):
    """Outputs of one simulate run, for tests that corrupt a copy."""
    out = tmp_path_factory.mktemp("simulated") / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_simulate_args(dataset_dir, out)) == 0
    return out


def _replace_line(text, index, new):
    lines = text.split("\n")
    lines[index] = new
    return "\n".join(lines)


def _extend_line(text, index, tail):
    return _replace_line(text, index, text.split("\n")[index] + tail)


def _drop_csv_column(text, column):
    config, header, *rows = text.split("\n")
    keep = [i for i, name in enumerate(header.split(",")) if name != column]
    return "\n".join([config] + [",".join(row.split(",")[i] for i in keep) if row else row for row in [header, *rows]])


# (file, edit of its text into new text or bytes, command that reads it)
CORRUPTIONS = {
    "config line not json": ("scores.csv", lambda t: _replace_line(t, 0, CONFIG_PREFIX + "{oops"), "simulate"),
    "config line not an object": ("scores.csv", lambda t: _replace_line(t, 0, CONFIG_PREFIX + "[1, 2]"), "simulate"),
    "config line deleted": ("scores.csv", lambda t: t.split("\n", 1)[1], "simulate"),
    "config line nested too deeply": (
        "scores.csv", lambda t: _replace_line(t, 0, CONFIG_PREFIX + "[" * 200000 + "]" * 200000), "simulate"
    ),
    "unknown class": ("scores.csv", lambda t: t.replace(",easy\n", ",medium\n", 1), "simulate"),
    "truncated stats": ("stats.json", lambda t: t[: len(t) // 2], "report"),
    "stats not an object": ("stats.json", lambda t: "[1, 2]\n", "report"),
    "stats nested too deeply": ("stats.json", lambda t: "[" * 200000 + "]" * 200000 + "\n", "report"),
    "summary without phases": ("summary.json", lambda t: t.replace('"phases"', '"no_phases"'), "report"),
    "outcomes without n": ("outcomes.csv", lambda t: _drop_csv_column(t, "n"), "report"),
    "outcomes not utf-8": ("outcomes.csv", lambda t: t.encode() + b"\xff\xfe,\n", "report"),
    "outcomes row with an extra field": ("outcomes.csv", lambda t: _extend_line(t, 2, ",extra"), "report"),
    "scores row with an extra field": ("scores.csv", lambda t: _extend_line(t, 2, ",extra"), "simulate"),
}


def _restamp_scores(out):
    """Record the edited scores.csv's sha256 in summary.json, so simulate
    reads the file instead of refusing it as stale."""
    summary = json.loads((out / "summary.json").read_text())
    summary["sha256"]["scores.csv"] = cli._sha256(out / "scores.csv")
    (out / "summary.json").write_text(json.dumps(summary))


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_output_exits_1_naming_it(dataset_dir, simulated, tmp_path, capsys, case):
    name, corrupt, command = CORRUPTIONS[case]
    out = tmp_path / "out"
    shutil.copytree(simulated, out)
    path = out / name
    corrupted = corrupt(path.read_text())
    path.write_bytes(corrupted if isinstance(corrupted, bytes) else corrupted.encode())
    if name == "scores.csv":
        _restamp_scores(out)
    argv = _simulate_args(dataset_dir, out) if command == "simulate" else ["report", "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert str(path) in capsys.readouterr().err


# which command reads each output back; nothing reads curves.csv
READERS = {"scores.csv": "simulate", "summary.json": "report", "outcomes.csv": "report", "stats.json": "report"}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), data=st.data())
def test_truncated_output_exits_0_or_1(dataset_dir, simulated, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(simulated, out)
        path = out / name
        content = path.read_bytes()
        path.write_bytes(content[: data.draw(st.integers(0, len(content)), label="offset")])
        if name == "scores.csv":
            _restamp_scores(out)
        argv = _simulate_args(dataset_dir, out) if READERS[name] == "simulate" else ["report", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        assert code in (0, 1), err.getvalue()


def _overflow_total(record):
    record["durations_s"] = {level: 0.0 for level in record["durations_s"]}
    record["durations_s"]["l1"] = 1.7e308


OVERFLOWS = {
    # one record's levels sum past the largest float
    "record": (
        lambda records: records[0]["durations_s"].update({level: 1.5e308 for level in records[0]["durations_s"]}),
        "annotations.jsonl, line 1: the summed per-level durations overflow a float",
    ),
    # two finite totals of one tweet whose median overflows
    "median": (
        lambda records: [_overflow_total(r) for r in records if r["tweet_id"] == records[0]["tweet_id"]],
        "the median labeling duration overflows a float",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_duration_overflow_is_named(tmp_path, capsys, case):
    corrupt, fragment = OVERFLOWS[case]
    annotations, tweets = generate_records(SynthConfig(n_workers=2, n_easy=25, n_difficult=25, seed=5))
    corrupt(annotations)
    write_jsonl(annotations, str(tmp_path / "annotations.jsonl"))
    write_jsonl(tweets, str(tmp_path / "tweets.jsonl"))
    code = cli.main(["score", *_dataset_args(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert fragment in err
    if case == "median":
        assert f"tweet {annotations[0]['tweet_id']}:" in err
