"""RunConfig refuses a bad setting when it is built, naming its flag, or
its field where no flag sets it.

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
    ({"certainty_metric": "bogus"}, "certainty_metric"),
]


@pytest.mark.parametrize("settings, flag", BAD_SETTINGS, ids=[repr(s) for s, _ in BAD_SETTINGS])
def test_run_config_refuses_a_bad_setting(settings, flag):
    with pytest.raises(AnnodiffError, match=flag):
        RunConfig("annotations.jsonl", "tweets.jsonl", **settings)


def test_run_config_accepts_its_defaults_and_the_edges():
    RunConfig("annotations.jsonl", "tweets.jsonl")
    RunConfig("annotations.jsonl", "tweets.jsonl", metrics=("edit",), k_grid=(1,), k_certainty=1,
              smoothing=0.0, epsilon=0.0, split_ratio=0.01)
