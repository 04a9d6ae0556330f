"""Run configuration and deterministic seed derivation.

RunConfig is the one home of every setting that scoring or the simulation
grid reads, its default (in RunConfig._field_defaults, as it is a
NamedTuple) and its validity: it refuses a bad value when it is built,
and when _replace builds it. It holds nothing else: report's --alpha belongs to report
alone, and the certainty kNN has one similarity measure, substring. The
grid's measures are named by strings from textsim.METRICS, as they appear
in the outputs. Every output file written by the command line embeds
RunConfig.to_dict(), so a run can be reproduced byte for byte from any of
its artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NamedTuple

from annodiff.errors import AnnodiffError
from annodiff.textsim import METRICS


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed from the given parts.

    Stable across processes and platforms, unlike hash(), so fixed-seed runs
    reproduce exactly no matter how the interpreter was started.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


# the keys of RunConfig.to_dict() that decide scores.csv; the rest only shape
# the grid and where outputs go. Two runs score alike when these fields
# are equal as canonical JSON (cli._scoring_json).
SCORING_FIELDS = ("annotations", "tweets", "institutions", "smoothing", "k_certainty", "split_ratio", "seed")

INSTITUTIONS = ("MD", "SU")


def _refuse_names(flag: str, kind: str, names, known) -> None:
    """Refuse names that are unknown, repeated or absent, naming flag."""
    for i, name in enumerate(names):
        if name not in known:
            raise AnnodiffError(f"{flag} names unknown {kind} {name!r}; choose from {list(known)}")
        if name in names[:i]:
            raise AnnodiffError(f"{flag} names {name!r} more than once")
    if not names:
        raise AnnodiffError(f"{flag} needs at least one {kind}")


class _Settings(NamedTuple):
    annotations: str
    tweets: str
    institutions: tuple[str, ...] = INSTITUTIONS
    metrics: tuple[str, ...] = METRICS
    smoothing: float = 1.0
    k_certainty: int = 3
    k_grid: tuple[int, ...] = (1, 3, 5, 7, 9, 11, 13, 15)
    epsilon: float = 0.01
    split_ratio: float = 0.4
    seed: int = 0
    out: str = "out"


class RunConfig(_Settings):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """Refuse every bad setting, naming the command-line flag that sets
        it, so a library caller meets the same refusal as the command line."""
        self = super().__new__(cls, *args, **kwargs)
        _refuse_names("--institution", "institution", self.institutions, INSTITUTIONS)
        _refuse_names("--metrics", "metric", self.metrics, METRICS)
        if not self.k_grid or min(self.k_grid) < 1:
            raise AnnodiffError(f"--k-grid needs at least one neighbor count, each at least 1, got {self.k_grid}")
        if self.k_certainty < 1:
            raise AnnodiffError("--k-certainty must be at least 1")
        for flag, value in (("--smoothing", self.smoothing), ("--epsilon", self.epsilon)):
            if not math.isfinite(value) or value < 0:
                raise AnnodiffError(f"{flag} must be a finite non-negative number, got {value}")
        if not 0 < self.split_ratio < 1:
            raise AnnodiffError(f"--split must lie strictly between 0 and 1, got {self.split_ratio}")
        return self

    @classmethod
    def _make(cls, iterable) -> "RunConfig":  # _replace builds through here, so it refuses too
        return cls(*iterable)

    def to_dict(self) -> dict:
        # alpha and certainty_metric are constants, not settings: report
        # takes --alpha itself, and certainty ranks by substring alone. They
        # stay only because scores.csv, outcomes.csv, curves.csv and
        # stats.json embed this dict and are held byte-identical until
        # ROADMAP item 11 re-records their reference digests.
        return {**self._asdict(), "alpha": 0.05, "certainty_metric": "substring"}

    def header_json(self) -> str:
        """Canonical one-line JSON form embedded in output headers."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "))
