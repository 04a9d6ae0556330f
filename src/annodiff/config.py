"""Run configuration and deterministic seed derivation.

RunConfig is the one home of every run setting and its default: the
command line, the scorer and the simulation grid all read them from it.
Every output file written by the command line embeds the full RunConfig, so
a run can be reproduced byte for byte from any of its artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed from the given parts.

    Stable across processes and platforms, unlike hash(), so fixed-seed runs
    reproduce exactly no matter how the interpreter was started.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


# the RunConfig fields that decide scores.csv; the rest only shape the grid,
# the report and where outputs go. Two runs score alike when these fields
# are equal as canonical JSON (cli._scoring_json).
SCORING_FIELDS = ("annotations", "tweets", "institutions", "smoothing", "k_certainty", "certainty_metric", "split_ratio", "seed")


@dataclass(frozen=True)
class RunConfig:
    annotations: str
    tweets: str
    institutions: tuple[str, ...] = ("MD", "SU")
    metrics: tuple[str, ...] = ("subsequence", "substring", "edit")
    smoothing: float = 1.0
    k_certainty: int = 3
    certainty_metric: str = "substring"
    k_grid: tuple[int, ...] = (1, 3, 5, 7, 9, 11, 13, 15)
    epsilon: float = 0.01
    split_ratio: float = 0.4
    seed: int = 0
    alpha: float = 0.05
    out: str = "out"

    def to_dict(self) -> dict:
        return asdict(self)

    def header_json(self) -> str:
        """Canonical one-line JSON form embedded in output headers."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "))
