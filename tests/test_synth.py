"""Synthetic-dataset generator sanity checks."""

import json

from annodiff.synth import SynthConfig, generate_dataset, generate_records, write_jsonl
from annodiff.dataset import parse_dataset


def test_generated_records_parse_cleanly():
    annotations, tweets = generate_records(SynthConfig(n_workers=3, seed=2))
    ds = parse_dataset(
        [json.dumps(r) for r in annotations],
        [json.dumps(r) for r in tweets],
        annotations_path="a",
        tweets_path="t",
    )
    assert len(ds.workers) == 3
    assert len(ds.texts) == 60
    assert all(len(w.annotations) == 60 for w in ds.workers.values())
    assert all(a.duration is not None for w in ds.workers.values() for a in w.annotations)


def test_generation_is_deterministic(tmp_path):
    config = SynthConfig(n_workers=2, seed=9)
    assert generate_records(config) == generate_records(config)
    annotations, _ = generate_records(config)
    write_jsonl(annotations, str(tmp_path / "a.jsonl"))
    write_jsonl(annotations, str(tmp_path / "b.jsonl"))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def _window_difficult_counts(config):
    annotations, _ = generate_records(config)
    threshold = f"t{config.n_easy:03d}"  # ids at or past this index are difficult
    counts = []
    by_worker = {}
    for record in annotations:
        by_worker.setdefault(record["worker_id"], []).append(record)
    for records in by_worker.values():
        records.sort(key=lambda r: r["order_index"])
        for start in range(0, len(records) - len(records) % 25, 25):
            window = records[start : start + 25]
            counts.append(sum(1 for r in window if r["tweet_id"] >= threshold))
    return counts


def test_every_window_mixes_both_classes_evenly():
    # balanced classes: within one tweet of half the window everywhere
    for count in _window_difficult_counts(SynthConfig(n_workers=4, seed=1)):
        assert count in (12, 13)
    # 2:1 imbalance: stable share in every window, not clumped at one end
    for count in _window_difficult_counts(SynthConfig(n_workers=4, n_easy=40, n_difficult=20, seed=1)):
        assert count == 8


def test_generate_dataset_matches_records():
    config = SynthConfig(n_workers=2, seed=4)
    ds = generate_dataset(config)
    annotations, tweets = generate_records(config)
    assert sorted(ds.texts) == sorted(r["tweet_id"] for r in tweets)
    assert sum(len(w.annotations) for w in ds.workers.values()) == len(annotations)
