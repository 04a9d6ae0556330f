"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import check_ingest, check_outputs, read_rows  # noqa: E402
from workloads import WORKLOADS, generate, write_jsonl  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first, again, other = generate(workload, 5), generate(workload, 5), generate(workload, 6)
    assert first.annotations == again.annotations
    assert first.tweets == again.tweets
    assert first.annotations != other.annotations


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_phase_windows_are_planted(workload):
    corpus = generate(workload, 2)
    labels = {(r["worker_id"], r["tweet_id"]): r["labels"]["l1"] for r in corpus.annotations}
    for plan in corpus.workers:
        if len(plan.tweets) < 50:
            continue
        late = plan.tweets[25:50]
        assert all(labels[(plan.worker_id, tid)] == "Irrelevant" for tid in late)
        for window in (plan.tweets[:25], late):
            assert sum(corpus.planted_class[tid] == "easy" for tid in window) == 15


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from annodiff import cli

    root = tmp_path_factory.mktemp("panel")
    corpus = generate("panel", 0)
    write_jsonl(corpus.annotations, root / "annotations.jsonl")
    write_jsonl(corpus.tweets, root / "tweets.jsonl")
    data = ["--dataset", str(root / "annotations.jsonl"), "--tweets", str(root / "tweets.jsonl")]
    out = root / "out"
    for command in ("score", "simulate"):
        assert cli.main([command, *data, "--out", str(out)]) == 0
    return corpus, out


def _corrupted(outputs, tmp_path, name, edit):
    corpus, out = outputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return check_outputs(copy, corpus)


def test_clean_outputs_pass(outputs):
    corpus, out = outputs
    assert check_outputs(out, corpus) == []


def test_flipped_class_fails(outputs, tmp_path):
    tweet = read_rows(outputs[1] / "scores.csv")[0]["tweet_id"]

    def flip(text):
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if f",{tweet}," in line:
                klass = line.rstrip("\n").rsplit(",", 1)[1]
                other = "difficult" if klass == "easy" else "easy"
                lines[i] = line.replace(f",{klass}\n", f",{other}\n")
        return "".join(lines)

    problems = _corrupted(outputs, tmp_path, "scores.csv", flip)
    assert any(tweet in p and "planted" in p for p in problems)


def test_altered_p_value_fails(outputs, tmp_path):
    def alter(text):
        stats = json.loads(text)
        stats["tables"]["E_vs_T"]["p_value"] *= 0.5
        return json.dumps(stats)

    problems = _corrupted(outputs, tmp_path, "stats.json", alter)
    assert any(p.startswith("E_vs_T: p=") for p in problems)


def test_wrong_code_fails(outputs, tmp_path):
    def recode(text):
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if ",late," in line:
                lines[i] = line.replace(",T,", ",D,", 1)
                break
        return "".join(lines)

    problems = _corrupted(outputs, tmp_path, "outcomes.csv", recode)
    assert any("code D" in p for p in problems)


def test_ingest_counts_are_checked():
    corpus = generate("crowd", 1)
    good = (f"workers: {len(corpus.workers)}\nannotations: {len(corpus.annotations)}\n"
            f"tweets with text: {len(corpus.tweets)}\nlabels pruned below Irrelevant: {corpus.pruned_labels}\n"
            f"annotations with incomplete durations: {corpus.missing_durations}\n")
    assert check_ingest(good, corpus) == []
    assert check_ingest(good.replace("annotations: ", "annotations: 1"), corpus)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "panel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
