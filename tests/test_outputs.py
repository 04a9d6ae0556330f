"""File formats: config-stamped CSVs and JSON payloads."""

import json

import pytest

from annodiff.difficulty import DifficultyScore
from annodiff.errors import AnnodiffError
from annodiff.outputs import (
    CONFIG_PREFIX,
    CURVES_FIELDS,
    OUTCOMES_FIELDS,
    SCORES_FIELDS,
    read_csv,
    read_json,
    read_scores_csv,
    write_curves_csv,
    write_json,
    write_outcomes_csv,
    write_scores_csv,
)
from annodiff.simulation import ConfigResult, F1Curve

CONFIG = json.dumps({"seed": 7, "split": 0.4}, sort_keys=True)


def _score(tid, base):
    return DifficultyScore(
        tweet_id=tid,
        agreement=base,
        certainty=base / 3,
        cost=0.1 + 0.2,  # deliberately not representable exactly
        ds=base + base / 3 + 0.1 + 0.2,
        klass="easy",
    )


def test_scores_roundtrip_is_exact(tmp_path):
    path = str(tmp_path / "scores.csv")
    scored = {
        "SU": [_score("t1", 1 / 3)],
        "MD": [_score("t0", 0.7), _score("t2", 0.95)],
    }
    write_scores_csv(path, CONFIG, scored)
    config, by_institution = read_scores_csv(path)
    assert config == {"seed": 7, "split": 0.4}
    assert set(by_institution) == {"MD", "SU"}
    assert by_institution["MD"]["t0"] == scored["MD"][0]
    assert by_institution["SU"]["t1"] == scored["SU"][0]
    # institutions are written in sorted order
    _, rows = read_csv(path)
    assert [r["institution"] for r in rows] == ["MD", "MD", "SU"]
    assert list(rows[0]) == list(SCORES_FIELDS)


def test_scores_file_layout(tmp_path):
    path = str(tmp_path / "scores.csv")
    write_scores_csv(path, CONFIG, {"MD": [_score("t0", 0.5)]})
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert lines[0] == CONFIG_PREFIX + CONFIG
    assert lines[1] == ",".join(SCORES_FIELDS)
    assert lines[2].startswith("MD,t0,0.5,")


def test_read_scores_csv_rejects_malformed(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        ",".join(SCORES_FIELDS) + "\nMD,t0,not_a_number,0.1,0.2,0.3,easy\n"
    )
    with pytest.raises(AnnodiffError, match="malformed"):
        read_scores_csv(str(path))
    path.write_text("institution,tweet_id\nMD,t0\n")
    with pytest.raises(AnnodiffError, match="malformed"):
        read_scores_csv(str(path))


def test_read_csv_without_config_line(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    config, rows = read_csv(str(path))
    assert config is None
    assert rows == [{"a": "1", "b": "2"}]


def _result(code, delta, with_curves=True):
    def curve():
        return F1Curve(points={3: 0.75, 1: 1 / 3}, workers_used=2)

    return ConfigResult(
        institution="MD",
        metric="edit",
        phase="late",
        train_size=4,
        curve_easy=curve() if with_curves else None,
        curve_difficult=curve() if with_curves else None,
        skipped_easy=0 if with_curves else 1,
        skipped_difficult=0,
        code=code,
        mean_delta=delta,
    )


def test_outcomes_csv_marks_undefined(tmp_path):
    path = str(tmp_path / "outcomes.csv")
    write_outcomes_csv(path, CONFIG, [_result("E", 0.25), _result(None, None, with_curves=False)])
    config, rows = read_csv(path)
    assert config == {"seed": 7, "split": 0.4}
    assert list(rows[0]) == list(OUTCOMES_FIELDS)
    assert rows[0]["code"] == "E"
    assert float(rows[0]["mean_delta"]) == 0.25
    assert rows[1]["code"] == "undefined"
    assert rows[1]["mean_delta"] == ""


def test_curves_csv_skips_undefined_and_sorts_k(tmp_path):
    path = str(tmp_path / "curves.csv")
    write_curves_csv(path, CONFIG, [_result(None, None, with_curves=False), _result("E", 0.25)])
    _, rows = read_csv(path)
    assert list(rows[0]) == list(CURVES_FIELDS)
    assert [r["k"] for r in rows] == ["1", "3"]
    # repr floats survive the round trip exactly
    assert float(rows[0]["hf1_easy"]) == 1 / 3
    assert float(rows[1]["hf1_difficult"]) == 0.75


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "stats.json"
    write_json(str(path), {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert read_json(str(path)) == {"b": 1, "a": {"z": 2, "y": 3}}
