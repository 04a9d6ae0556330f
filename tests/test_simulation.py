"""Strata construction, predictor comparison, outcome coding, aggregation."""

import pytest
from hypothesis import given, strategies as st

from annodiff.config import RunConfig
from annodiff.dataset import Annotation, Dataset, Worker
from annodiff.errors import GridMismatchError
from annodiff.labels import LabelPath
from annodiff.simulation import (
    PHASES,
    TRAIN_SIZES,
    F1Curve,
    aggregate,
    build_strata,
    encode_outcome,
    make_context,
    mean_curve_delta,
    run_config,
    run_grid,
)
from annodiff.simulation import test_proportions as proportions_p
from annodiff.textsim import SimilarityMetric

EASY_PATH = LabelPath("Relevant", "NonFactual", "Positive")
DIFFICULT_PATH = LabelPath("Irrelevant")


def _alternating_dataset(n_tweets=50, wid="w1", institution="MD"):
    """One worker; even-indexed tweets are one textual family, odd the other."""
    annotations = []
    texts = {}
    classes = {}
    for i in range(n_tweets):
        tid = f"{wid}_t{i:02d}"
        if i % 2 == 0:
            texts[tid] = "sunny pleasant day outside"
            annotations.append(Annotation(wid, tid, EASY_PATH, {1: 1.0, 2: 1.0, 3: 1.0}, i + 1))
            classes[tid] = "easy"
        else:
            texts[tid] = "gloomy dreadful night indoors"
            annotations.append(Annotation(wid, tid, DIFFICULT_PATH, {1: 1.0}, i + 1))
            classes[tid] = "difficult"
    ds = Dataset(workers={wid: Worker(wid, institution, "M", annotations)}, texts=texts)
    return ds, classes


def test_build_strata_windows_and_exclusion():
    ds, classes = _alternating_dataset(60)
    short = Worker("w2", "MD", "M", [Annotation("w2", "w1_t00", LabelPath("Irrelevant"), {1: 1.0}, i + 1) for i in range(1)])
    # a second worker with 49 annotations of existing tweets would need 49
    # distinct tweets; one annotation is enough to trip the threshold
    ds.workers["w2"] = short
    built = build_strata(ds, classes)
    assert built.excluded_workers == ["w2"]
    assert set(built.windows) == {("w1", "early"), ("w1", "late")}
    early = built.windows[("w1", "early")]
    late = built.windows[("w1", "late")]
    assert [tid for tid, _ in early] == [f"w1_t{i:02d}" for i in range(25)]
    assert [tid for tid, _ in late] == [f"w1_t{i:02d}" for i in range(25, 50)]
    # annotations 51..60 appear in no window
    assert len(built.strata) == 4
    assert len(built.strata[("w1", "early", "easy")]) == 13
    assert len(built.strata[("w1", "early", "difficult")]) == 12
    assert len(built.strata[("w1", "late", "easy")]) == 12
    assert len(built.strata[("w1", "late", "difficult")]) == 13
    # each tweet's labels are held as a path tuple with NoLabel blanks
    assert early[:2] == (
        ("w1_t00", ("Relevant", "NonFactual", "Positive")),
        ("w1_t01", ("Irrelevant", "NoLabel", "NoLabel")),
    )


def test_build_strata_unclassed_tweets_stay_in_window():
    ds, classes = _alternating_dataset(50)
    del classes["w1_t00"]
    built = build_strata(ds, classes)
    early_easy = built.strata[("w1", "early", "easy")]
    assert all(tid != "w1_t00" for tid, _ in early_easy)
    assert any(tid == "w1_t00" for tid, _ in built.windows[("w1", "early")])


def test_stratum_tweets_keep_annotation_order():
    ds, classes = _alternating_dataset(50)
    built = build_strata(ds, classes)
    for stratum in built.strata.values():
        ids = [tid for tid, _ in stratum]
        assert ids == sorted(ids)  # tweet ids were minted in annotation order


def test_make_context_filters_institution():
    ds, classes = _alternating_dataset(50)
    other, other_classes = _alternating_dataset(50, wid="s1", institution="SU")
    ds.workers.update(other.workers)
    ds.texts.update(other.texts)
    classes.update(other_classes)
    ctx = make_context(ds, "SU", classes)
    assert ctx.institution == "SU"
    assert ctx.worker_ids == ["s1"]


def test_run_config_hand_computed_f1():
    # within each class all texts are identical and across classes they are
    # disjoint, so every prediction copies the training class's label path,
    # for any k and any metric. The resulting pooled F1 values are exact.
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    result = run_config(ctx, SimilarityMetric.SUBSTRING, "early", 2, k_grid=(1, 3, 5), seed=0, epsilon=0.01)
    # easy arm: 23 test tweets, 11 easy truths fully matched (3 labels each),
    # 12 difficult truths missed: F1 = 2*33/(69+45)
    for value in result.curve_easy.points.values():
        assert value == pytest.approx(66 / 114, abs=1e-12)
    # difficult arm: 13 easy truths missed, 10 difficult matched: F1 = 2*10/(23+49)
    for value in result.curve_difficult.points.values():
        assert value == pytest.approx(20 / 72, abs=1e-12)
    assert result.mean_delta == pytest.approx(66 / 114 - 20 / 72, abs=1e-12)
    assert result.code == "E"
    assert result.skipped_easy == 0
    assert result.curve_easy.workers_used == 1


def test_run_config_skips_thin_strata():
    ds, classes = _alternating_dataset(50)
    # leave only 3 easy tweets in the late window
    late_easy = [f"w1_t{i:02d}" for i in range(25, 50) if i % 2 == 0]
    for tid in late_easy[3:]:
        classes[tid] = "difficult"
    ctx = make_context(ds, "MD", classes)
    result = run_config(ctx, SimilarityMetric.EDIT, "late", 5, k_grid=(1,), seed=0, epsilon=0.01)
    assert result.curve_easy is None
    assert result.skipped_easy == 1
    assert result.code is None
    assert result.mean_delta is None
    assert result.curve_difficult is not None


def test_run_config_validation():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    grid = {"k_grid": (1, 3), "seed": 0, "epsilon": 0.01}
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "middle", 5, **grid)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 1, **grid)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 11, **grid)
    with pytest.raises(ValueError):
        run_config(ctx, SimilarityMetric.EDIT, "early", 5, **{**grid, "k_grid": ()})


def test_run_config_deterministic():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    args = (ctx, SimilarityMetric.SUBSEQUENCE, "late", 3, (1, 3, 5, 7, 9, 11, 13, 15))
    assert run_config(*args, seed=5, epsilon=0.01) == run_config(*args, seed=5, epsilon=0.01)


def test_run_grid_covers_all_configurations():
    ds, classes = _alternating_dataset(50)
    ctx = make_context(ds, "MD", classes)
    config = RunConfig("annotations.jsonl", "tweets.jsonl", metrics=("substring", "edit"), k_grid=(1, 3))
    results = run_grid(ctx, config)
    assert len(results) == 2 * len(PHASES) * len(TRAIN_SIZES) == 36
    combos = [(r.metric, r.phase, r.train_size) for r in results]
    assert combos[0] == ("substring", "early", 2)
    assert combos[-1] == ("edit", "late", 10)
    assert len(set(combos)) == 36


# --- outcome coding ---


def _curve(points):
    return F1Curve(points=dict(points), workers_used=3)


def test_mean_curve_delta():
    easy = _curve({1: 0.6, 3: 0.7, 5: 0.8})
    difficult = _curve({1: 0.5, 3: 0.7, 5: 0.6})
    assert mean_curve_delta(easy, difficult) == pytest.approx(0.1, abs=1e-12)


def test_mean_curve_delta_grid_mismatch():
    with pytest.raises(GridMismatchError):
        mean_curve_delta(_curve({1: 0.5}), _curve({1: 0.5, 3: 0.5}))


def _code(curve_easy, curve_difficult, epsilon=0.01):
    return encode_outcome(mean_curve_delta(curve_easy, curve_difficult), epsilon)


def test_encode_outcome_codes():
    flat = _curve({1: 0.5, 3: 0.5})
    assert _code(flat, _curve({1: 0.5, 3: 0.5})) == "T"
    assert _code(_curve({1: 0.55, 3: 0.55}), flat) == "E"
    assert _code(flat, _curve({1: 0.55, 3: 0.55})) == "D"
    # a crossing pair whose mean difference stays inside the tolerance
    assert _code(_curve({1: 0.504, 3: 0.5}), flat) == "T"


def test_encode_outcome_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        encode_outcome(0.0, epsilon=-0.1)


grid_values = st.tuples(*(st.floats(0, 1) for _ in range(3)))


@given(values_e=grid_values, values_d=grid_values, epsilon=st.floats(0, 0.2))
def test_encode_outcome_antisymmetric(values_e, values_d, epsilon):
    easy = _curve(dict(zip((1, 3, 5), values_e)))
    difficult = _curve(dict(zip((1, 3, 5), values_d)))
    forward = _code(easy, difficult, epsilon)
    backward = _code(difficult, easy, epsilon)
    assert backward == {"E": "D", "D": "E", "T": "T"}[forward]


# --- aggregation ---


def test_aggregate_counts_and_table_layout():
    outcomes = (
        [("early", "T")] * 31
        + [("early", "E")] * 13
        + [("early", "D")] * 10
        + [("late", "T")] * 12
        + [("late", "E")] * 36
        + [("late", "D")] * 6
    )
    agg = aggregate(outcomes)
    assert agg.counts == {
        "early": {"T": 31, "E": 13, "D": 10},
        "late": {"T": 12, "E": 36, "D": 6},
    }
    assert agg.tables["E_vs_T"].row_labels == ("T", "E")
    assert agg.tables["E_vs_T"].col_labels == ("early", "late")
    assert agg.tables["E_vs_T"].flat() == (31, 12, 13, 36)
    assert agg.tables["E_vs_D"].flat() == (13, 36, 10, 6)
    assert agg.tables["T_vs_D"].flat() == (31, 12, 10, 6)
    assert proportions_p(agg.tables["E_vs_T"]) < 1e-4
    assert proportions_p(agg.tables["E_vs_D"]) < 0.02
    assert proportions_p(agg.tables["T_vs_D"]) > 0.5


def test_proportions_of_an_all_zero_table_is_one():
    # neither E nor T ever occurred: the table carries no evidence
    agg = aggregate([("early", "D"), ("late", "D")])
    assert agg.tables["E_vs_T"].flat() == (0, 0, 0, 0)
    assert proportions_p(agg.tables["E_vs_T"]) == 1.0


def test_aggregate_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        aggregate([("middle", "T")])
    with pytest.raises(ValueError):
        aggregate([("early", "X")])


outcome_lists = st.lists(
    st.tuples(st.sampled_from(["early", "late"]), st.sampled_from(["T", "E", "D"])),
    max_size=40,
)


@given(outcomes=outcome_lists, data=st.data())
def test_aggregate_order_invariant(outcomes, data):
    shuffled = data.draw(st.permutations(outcomes))
    assert aggregate(outcomes) == aggregate(shuffled)
