"""The three-level tweet label hierarchy.

Level 1 decides relevance. Level 2 exists only under Relevant and separates
factual from non-factual content. Level 3 exists only under NonFactual and
carries sentiment polarity. Every annotation's labels are one LabelPath,
the (level 1, level 2, level 3) tuple with NoLabel blanks, from parsing to
the F1 score. label_path returns a path's one shared tuple and refuses a
path the tree does not hold, and simulation.vote_path votes a level only
under its parent label, so every LabelPath is ancestor-closed: its labels
other than NoLabel are the label set that hierarchical F1 compares.
"""

from __future__ import annotations

RELEVANT = "Relevant"
IRRELEVANT = "Irrelevant"
FACTUAL = "Factual"
NONFACTUAL = "NonFactual"
POSITIVE = "Positive"
NEGATIVE = "Negative"

# extra class available to per-level predictors for tweets that carry no
# label on a given level
NO_LABEL = "NoLabel"

LEVELS = (1, 2, 3)
LEVEL_LABELS: dict[int, tuple[str, str]] = {
    1: (RELEVANT, IRRELEVANT),
    2: (FACTUAL, NONFACTUAL),
    3: (POSITIVE, NEGATIVE),
}

# canonical ordering used wherever tied labels must be sorted before a
# seeded draw, so results do not depend on hash or insertion order
LABEL_ORDER: dict[str, int] = {
    label: rank for rank, label in enumerate((*LEVEL_LABELS[1], *LEVEL_LABELS[2], *LEVEL_LABELS[3], NO_LABEL))
}


# a label path as the whole program holds it: the (level 1, level 2, level 3)
# labels, NoLabel where a level is blank
LabelPath = tuple[str, str, str]


# the four paths the tree holds, each one shared tuple of this module's
# label constants, keyed by its labels with None for a blank level
_PATHS: dict[tuple[str, str | None, str | None], LabelPath] = {
    (l1, l2, l3): (l1, l2 or NO_LABEL, l3 or NO_LABEL)
    for l1, l2, l3 in (
        (IRRELEVANT, None, None),
        (RELEVANT, FACTUAL, None),
        (RELEVANT, NONFACTUAL, POSITIVE),
        (RELEVANT, NONFACTUAL, NEGATIVE),
    )
}


def label_path(l1: str, l2: str | None = None, l3: str | None = None) -> LabelPath:
    """The label path of a structurally valid assignment, with None for a
    blank level.

    A level-2 label must be present exactly when level 1 is Relevant, and a
    level-3 label exactly when level 2 is NonFactual; anything else raises
    ValueError. Every call for the same path returns the same tuple, whose
    labels are this module's constants, so a parsed dataset holds each of
    the four paths once, however many annotations carry it.
    """
    if l1 not in LEVEL_LABELS[1]:
        raise ValueError(f"unknown level-1 label: {l1!r}")
    if (l2 is not None) != (l1 == RELEVANT):
        raise ValueError("a level-2 label is required exactly when level 1 is Relevant")
    if l2 is not None and l2 not in LEVEL_LABELS[2]:
        raise ValueError(f"unknown level-2 label: {l2!r}")
    if (l3 is not None) != (l2 == NONFACTUAL):
        raise ValueError("a level-3 label is required exactly when level 2 is NonFactual")
    if l3 is not None and l3 not in LEVEL_LABELS[3]:
        raise ValueError(f"unknown level-3 label: {l3!r}")
    return _PATHS[l1, l2, l3]


def path_labels(path: LabelPath) -> dict[int, str]:
    """The path's labels keyed by level, without its blank levels."""
    return {level: label for level, label in zip(LEVELS, path) if label != NO_LABEL}

