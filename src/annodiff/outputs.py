"""Readers and writers for the pipeline's output files.

Every file starts with a comment line embedding the full run configuration
as canonical JSON, so any artifact documents how to reproduce itself. Floats
are written with repr, which round-trips exactly; re-reading a scores file
therefore yields bit-identical downstream results.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping, Sequence

from annodiff.difficulty import DIFFICULT, EASY, DifficultyScore
from annodiff.errors import AnnodiffError
from annodiff.simulation import ConfigResult

CONFIG_PREFIX = "# config: "

SCORES_FIELDS = ("institution", "tweet_id", "A", "C", "L", "ds", "class")
OUTCOMES_FIELDS = ("institution", "metric", "phase", "n", "code", "mean_delta")
CURVES_FIELDS = ("institution", "metric", "phase", "n", "k", "hf1_easy", "hf1_difficult")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header_json: str, fields: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    buf.write(CONFIG_PREFIX + header_json + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path: str) -> tuple[dict, list[dict]]:
    """Read one of our CSV files back: (embedded config, row dicts). A file
    whose first line is not the config line is not one of ours, and neither
    is one with a row whose field count differs from its header's."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith(CONFIG_PREFIX):
                raise AnnodiffError(f"{path} has no {CONFIG_PREFIX.strip()!r} first line, so its run is unknown")
            config = _json_object(path, first[len(CONFIG_PREFIX):])
            fields = next(csv.reader([fh.readline()]))
            reader = csv.reader(fh)
            rows = []
            for row in reader:
                if len(row) != len(fields):
                    # + 2 for the config and header lines before the reader's first
                    raise AnnodiffError(f"{path} line {reader.line_num + 2} has {len(row)} fields, its header {len(fields)}")
                rows.append(dict(zip(fields, row)))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise AnnodiffError(f"{path} is unreadable: {exc}") from exc
    return config, rows


def _json_object(path: str, text: str) -> dict:
    """Parse text read from path as a JSON object, or say why not."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise AnnodiffError(f"{path} holds malformed JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise AnnodiffError(f"{path} holds JSON that is not an object")
    return value


def write_scores_csv(path: str, header_json: str, scored: Mapping[str, Sequence[DifficultyScore]]) -> None:
    """One row per (institution, tweet)."""
    # SCORES_FIELDS are the institution, then a DifficultyScore's fields in order
    rows = [(institution, *s) for institution in sorted(scored) for s in scored[institution]]
    _write_csv(path, header_json, SCORES_FIELDS, rows)


def read_scores_csv(path: str) -> dict[str, dict[str, DifficultyScore]]:
    """Returns institution -> tweet_id -> score; a tweet with two rows in one
    institution makes the file malformed."""
    _, rows = read_csv(path)
    out: dict[str, dict[str, DifficultyScore]] = {}
    for row in rows:
        try:
            score = DifficultyScore(row["tweet_id"], *(float(row[key]) for key in ("A", "C", "L", "ds")), row["class"])
            institution = row["institution"]
        except (KeyError, ValueError) as exc:
            raise AnnodiffError(f"malformed scores file {path}: {exc}")
        if score.klass not in (EASY, DIFFICULT):
            raise AnnodiffError(f"malformed scores file {path}: tweet {score.tweet_id} has class {score.klass!r}")
        scores = out.setdefault(institution, {})
        if score.tweet_id in scores:
            raise AnnodiffError(f"malformed scores file {path}: {institution} tweet {score.tweet_id} has more than one row")
        scores[score.tweet_id] = score
    return out


def write_outcomes_csv(path: str, header_json: str, results: Sequence[ConfigResult]) -> None:
    rows = []
    for r in results:
        code = r.code if r.code is not None else "undefined"
        delta = _fmt(r.mean_delta) if r.mean_delta is not None else ""
        rows.append((r.institution, r.metric, r.phase, r.train_size, code, delta))
    _write_csv(path, header_json, OUTCOMES_FIELDS, rows)


def write_curves_csv(path: str, header_json: str, results: Sequence[ConfigResult]) -> None:
    rows = []
    for r in results:
        if r.curve_easy is None or r.curve_difficult is None:
            continue
        for k in sorted(r.curve_easy):
            rows.append((r.institution, r.metric, r.phase, r.train_size, k, r.curve_easy[k], r.curve_difficult[k]))
    _write_csv(path, header_json, CURVES_FIELDS, rows)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise AnnodiffError(f"{path} is unreadable: {exc}") from exc
    return _json_object(path, text)
