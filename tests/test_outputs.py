"""File formats: config-stamped CSVs and JSON payloads."""

import csv
import io
import json
import re

import pytest

from annodiff import outputs
from annodiff.difficulty import DIFFICULT, EASY, DifficultyScore
from annodiff.errors import AnnodiffError
from annodiff.outputs import (
    CONFIG_PREFIX,
    CURVES_FIELDS,
    OUTCOMES_FIELDS,
    SCORES_FIELDS,
    _write_csv,
    read_csv,
    read_json,
    read_scores_csv,
    write_curves_csv,
    write_json,
    write_outcomes_csv,
    write_scores_csv,
)
from annodiff.simulation import ConfigResult

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
    by_institution = read_scores_csv(path)
    assert set(by_institution) == {"MD", "SU"}
    assert by_institution["MD"]["t0"] == scored["MD"][0]
    assert by_institution["SU"]["t1"] == scored["SU"][0]
    # institutions are written in sorted order
    with read_csv(path) as (config, rows):
        rows = list(rows)
    assert config == {"seed": 7, "split": 0.4}
    assert [r["institution"] for r in rows] == ["MD", "MD", "SU"]
    assert list(rows[0]) == list(SCORES_FIELDS)


def test_read_scores_csv_shares_the_two_class_constants(tmp_path):
    # csv decodes one str per row; the scores hold the module's two constants
    path = str(tmp_path / "scores.csv")
    scored = {"MD": [_score("t0", 0.7), _score("t1", 0.2)._replace(klass="difficult"), _score("t2", 0.9)]}
    write_scores_csv(path, CONFIG, scored)
    klasses = [s.klass for s in read_scores_csv(path)["MD"].values()]
    assert klasses == ["easy", "difficult", "easy"]
    assert all(klass is EASY or klass is DIFFICULT for klass in klasses)


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
        CONFIG_PREFIX + CONFIG + "\n" + ",".join(SCORES_FIELDS) + "\nMD,t0,not_a_number,0.1,0.2,0.3,easy\n"
    )
    with pytest.raises(AnnodiffError, match="malformed"):
        read_scores_csv(str(path))
    path.write_text(CONFIG_PREFIX + CONFIG + "\ninstitution,tweet_id\nMD,t0\n")
    with pytest.raises(AnnodiffError, match="malformed"):
        read_scores_csv(str(path))


@pytest.mark.parametrize(
    "bad_row,message",
    [
        ("MD,t9,0.1,0.2,0.3,0.6,easy,extra", "{path} line 6 has 8 fields, its header 7"),
        ("MD,t9,0.1,x,0.3,0.6,easy", "malformed scores file {path}: could not convert string to float: 'x'"),
        ("SU,t1,0.1,0.2,0.3,0.6,hard", "malformed scores file {path}: tweet t1 has class 'hard'"),
        ("MD,t2,0.1,0.2,0.3,0.6,easy", "malformed scores file {path}: MD tweet t2 has more than one row"),
    ],
)
def test_read_scores_csv_refuses_a_bad_row_after_good_ones(tmp_path, bad_row, message):
    # rows are checked as they are read, so the good rows before the bad
    # one are read first; the refusal is the one the whole file gets
    path = tmp_path / "scores.csv"
    write_scores_csv(str(path), CONFIG, {"MD": [_score("t0", 0.7), _score("t2", 0.95)], "SU": [_score("t1", 1 / 3)]})
    path.write_text(path.read_text() + bad_row + "\n")
    with pytest.raises(AnnodiffError) as exc:
        read_scores_csv(str(path))
    assert str(exc.value) == message.format(path=path)


def test_write_csv_streams_the_bytes_a_whole_file_buffer_holds(tmp_path):
    # a tweet id with a comma, a double quote and a newline must be quoted
    # the same way whether rows go to the file or to one string first
    rows = [("MD", 'a,"b"\nc', 0.1 + 0.2, "easy"), ("SU", "plain", 1 / 3, "difficult")]
    fields = ("institution", "tweet_id", "value", "class")
    path = tmp_path / "rows.csv"
    _write_csv(str(path), CONFIG, fields, rows)
    buf = io.StringIO()
    buf.write(CONFIG_PREFIX + CONFIG + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    with read_csv(str(path)) as (_, read_back):
        assert [r["tweet_id"] for r in read_back] == ['a,"b"\nc', "plain"]


def test_read_csv_without_config_line(tmp_path):
    path = tmp_path / "plain.csv"
    # a CSV that does not say which run wrote it is refused, naming the file
    path.write_text("a,b\n1,2\n")
    with pytest.raises(AnnodiffError, match=re.escape(f"{path} has no '# config:' first line")):
        with read_csv(str(path)):
            pass


def _result(code, delta, with_curves=True):
    def curve():
        return {3: 0.75, 1: 1 / 3}

    return ConfigResult(
        institution="MD",
        metric="edit",
        phase="late",
        train_size=4,
        curve_easy=curve() if with_curves else None,
        curve_difficult=curve() if with_curves else None,
        code=code,
        mean_delta=delta,
    )


def test_outcomes_csv_marks_undefined(tmp_path):
    path = str(tmp_path / "outcomes.csv")
    write_outcomes_csv(path, CONFIG, [_result("E", 0.25), _result(None, None, with_curves=False)])
    with read_csv(path) as (config, rows):
        rows = list(rows)
    assert config == {"seed": 7, "split": 0.4}
    assert list(rows[0]) == list(OUTCOMES_FIELDS)
    assert rows[0]["code"] == "E"
    assert float(rows[0]["mean_delta"]) == 0.25
    assert rows[1]["code"] == "undefined"
    assert rows[1]["mean_delta"] == ""


def test_curves_csv_skips_undefined_and_sorts_k(tmp_path):
    path = str(tmp_path / "curves.csv")
    write_curves_csv(path, CONFIG, [_result(None, None, with_curves=False), _result("E", 0.25)])
    with read_csv(path) as (_, rows):
        rows = list(rows)
    assert list(rows[0]) == list(CURVES_FIELDS)
    assert [r["k"] for r in rows] == ["1", "3"]
    # repr floats survive the round trip exactly
    assert float(rows[0]["hf1_easy"]) == 1 / 3
    assert float(rows[1]["hf1_difficult"]) == 0.75


@pytest.mark.parametrize(
    "write, results",
    [
        (write_scores_csv, {"MD": [_score("t0", 0.7)]}),
        (write_outcomes_csv, [_result("E", 0.25)]),
        (write_curves_csv, [_result("E", 0.25)]),
    ],
)
def test_csv_writers_stream_their_rows(tmp_path, monkeypatch, write, results):
    # each writer hands _write_csv a generator of rows, never a list of them
    received = []
    write_csv = outputs._write_csv

    def recording_write_csv(path, header_json, fields, rows):
        received.append(rows)
        write_csv(path, header_json, fields, rows)

    monkeypatch.setattr(outputs, "_write_csv", recording_write_csv)
    write(str(tmp_path / "out.csv"), CONFIG, results)
    [rows] = received
    assert iter(rows) is rows and not isinstance(rows, list)


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "stats.json"
    write_json(str(path), {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert read_json(str(path)) == {"b": 1, "a": {"z": 2, "y": 3}}
