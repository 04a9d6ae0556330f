"""RunConfig refuses a bad setting when it is built, naming its flag, and
embeds itself in every output as one canonical JSON line.

The empty and non-positive k grids, a repeated metric, a k-certainty of 0
and a split of 1.0 are tested beside the grid and the scorer that read them.
"""

import math

import pytest

from annodiff.config import RunConfig
from annodiff.errors import AnnodiffError

BAD_SETTINGS = [
    *[({name: value}, flag) for name, flag in (("epsilon", "--epsilon"), ("smoothing", "--smoothing"))
      for value in (math.nan, math.inf, -1.0)],
    ({"metrics": ()}, "--metrics"),
    ({"metrics": ("cosine",)}, "--metrics"),
    ({"split_ratio": math.nan}, "--split"),
]


@pytest.mark.parametrize("settings, flag", BAD_SETTINGS, ids=[repr(s) for s, _ in BAD_SETTINGS])
def test_run_config_refuses_a_bad_setting(settings, flag):
    with pytest.raises(AnnodiffError, match=flag):
        RunConfig("annotations.jsonl", "tweets.jsonl", **settings)


def test_run_config_accepts_its_defaults_and_the_edges():
    RunConfig("annotations.jsonl", "tweets.jsonl")
    RunConfig("annotations.jsonl", "tweets.jsonl", metrics=("edit",), k_grid=(1,), k_certainty=1,
              smoothing=0.0, epsilon=0.0, split_ratio=0.01)


def test_header_json_of_the_defaults():
    # every output embeds this line, and the four pinned outputs hold its
    # bytes; alpha and certainty_metric are constants, not settings
    assert RunConfig("a", "t").header_json() == (
        '{"alpha": 0.05, "annotations": "a", "certainty_metric": "substring", "epsilon": 0.01, '
        '"institutions": ["MD", "SU"], "k_certainty": 3, "k_grid": [1, 3, 5, 7, 9, 11, 13, 15], '
        '"metrics": ["subsequence", "substring", "edit"], "out": "out", "seed": 0, "smoothing": 1.0, '
        '"split_ratio": 0.4, "tweets": "t"}'
    )
