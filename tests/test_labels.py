"""The label tree: the paths label_path accepts, and their label sets."""

import itertools

import pytest

from annodiff.labels import LABEL_ORDER, LEVEL_LABELS, LEVELS, NO_LABEL, label_path, path_labels
from oracles import label_set, path_label_set

# the six labels, a blank, the blank's placeholder and an unknown label
INPUTS = [*(label for level in LEVELS for label in LEVEL_LABELS[level]), None, NO_LABEL, "x"]

# the root-to-leaf paths of the tree, with None blanks
TREE_PATHS = {
    ("Irrelevant", None, None),
    ("Relevant", "Factual", None),
    ("Relevant", "NonFactual", "Positive"),
    ("Relevant", "NonFactual", "Negative"),
}


def test_label_path_accepts_exactly_the_tree_paths():
    refused = 0
    for labels in itertools.product(INPUTS, repeat=3):
        if labels not in TREE_PATHS:
            with pytest.raises(ValueError):
                label_path(*labels)
            refused += 1
            continue
        path = label_path(*labels)
        assert path == tuple(NO_LABEL if label is None else label for label in labels)
        assert path_labels(path) == {level: label for level, label in zip(LEVELS, labels) if label is not None}
        # a tree path is closed already: walking up the tree adds no label
        assert label_set(path) == path_label_set(*path)
    assert refused == len(INPUTS) ** 3 - len(TREE_PATHS)


def test_every_accepted_path_holds_a_level1_label():
    # agreement_score and hierarchical_f1 rely on this without checking it:
    # every annotation votes at level 1, and every label set is non-empty
    for labels in TREE_PATHS:
        assert path_labels(label_path(*labels))[1] in LEVEL_LABELS[1]


def test_label_order_is_the_literal_ranking():
    # the order ties are sorted in before a seeded draw; a change moves every
    # tie-broken prediction, so it is pinned as literal ranks
    assert LABEL_ORDER == {
        "Relevant": 0,
        "Irrelevant": 1,
        "Factual": 2,
        "NonFactual": 3,
        "Positive": 4,
        "Negative": 5,
        "NoLabel": 6,
    }
