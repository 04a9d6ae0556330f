"""The simulation grid on a planted set, pinned to outputs recorded earlier.

The fixture holds every row of scores.csv, outcomes.csv and curves.csv and
all of stats.json except the embedded config, which carries temporary paths.
scores.csv is the one that simulate writes before the grid runs, so the
certainty, agreement and cost components are pinned too. It was
recorded from the planted 8-worker set (scripts/make_synthetic_dataset.py
--workers 8 --easy 40 --difficult 20 --noise 0.6 --seed 11) with simulate
--seed 11 --metrics edit, once on the default k grid and once on the
unsorted, duplicated --k-grid 5,1,3,3. Any change to seeds, neighbor order,
votes, certainty rows or F1 shows up here as a diff.
"""

import json
from pathlib import Path

import pytest

from annodiff import cli
from annodiff.outputs import CONFIG_PREFIX
from annodiff.synth import SynthConfig, generate_records, write_jsonl

GOLDEN = Path(__file__).parent / "golden" / "planted_grid.json"
K_GRID_ARGS = {"default": [], "5,1,3,3": ["--k-grid", "5,1,3,3"]}


def grid_outputs(out: Path) -> dict:
    """scores.csv, outcomes.csv and curves.csv rows and stats.json, without
    the config."""
    outputs = {}
    for name in ("scores.csv", "outcomes.csv", "curves.csv"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        outputs[name] = [line for line in lines if not line.startswith(CONFIG_PREFIX)]
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    del stats["config"]
    outputs["stats.json"] = stats
    return outputs


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    config = SynthConfig(n_workers=8, n_easy=40, n_difficult=20, difficult_label_noise=0.6, seed=11)
    annotations, tweets = generate_records(config)
    write_jsonl(annotations, str(root / "annotations.jsonl"))
    write_jsonl(tweets, str(root / "tweets.jsonl"))
    return root


@pytest.mark.parametrize("grid", list(K_GRID_ARGS))
def test_grid_matches_recorded_outputs(planted, tmp_path, grid):
    out = tmp_path / "out"
    args = [
        "simulate",
        "--dataset", str(planted / "annotations.jsonl"),
        "--tweets", str(planted / "tweets.jsonl"),
        "--out", str(out),
        "--seed", "11",
        "--metrics", "edit",
        *K_GRID_ARGS[grid],
    ]
    assert cli.main(args) == 0
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[grid]
    produced = grid_outputs(out)
    for name in ("scores.csv", "outcomes.csv", "curves.csv", "stats.json"):
        assert produced[name] == expected[name], name
