"""Hierarchical kNN prediction and the hierarchical F1 metric."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from annodiff import simulation
from annodiff.config import RunConfig, stable_seed
from annodiff.knn import descending, hierarchical_f1, path_triple, rank_by_similarity, vote
from annodiff.labels import LABEL_ORDER, LEVEL_LABELS, LEVELS, NO_LABEL, NONFACTUAL, RELEVANT
from annodiff.simulation import SimulationContext, run_grid, vote_path
from annodiff.textsim import nsim
from oracles import coerce_structure, hier_f1_direct, label_set, path_label_set, rank_full, rank_sorted

# truth paths as the grid holds them: (level1, level2, level3), NoLabel blanks
PATHS = [
    ("Irrelevant", NO_LABEL, NO_LABEL),
    ("Relevant", "Factual", NO_LABEL),
    ("Relevant", "NonFactual", "Positive"),
    ("Relevant", "NonFactual", "Negative"),
]

# every label path the program builds: the tree paths, and the two that a
# top-down vote ends early with NoLabel at level 2 or level 3
BUILT_PATHS = [*PATHS, ("Relevant", NO_LABEL, NO_LABEL), ("Relevant", "NonFactual", NO_LABEL)]


def test_label_set_closure():
    assert label_set(("Relevant", "NonFactual", "Negative")) == {"Relevant", "NonFactual", "Negative"}
    assert label_set(("Irrelevant", NO_LABEL, NO_LABEL)) == {"Irrelevant"}
    # the oracle closes what is not closed: a lone leaf brings its ancestors
    assert label_set((NO_LABEL, NO_LABEL, "Negative")) == {"Relevant", "NonFactual", "Negative"}


def test_path_triple_equals_the_closure_oracle_on_every_built_pair():
    # path_triple takes a path's labels as its set; the oracle walks up the
    # tree from each label, which adds nothing on a path the program builds
    for truth, predicted in itertools.product(BUILT_PATHS, repeat=2):
        t, p = label_set(truth), label_set(predicted)
        assert path_triple(truth, predicted) == (len(t & p), len(p), len(t)), (truth, predicted)


def test_every_built_pair_has_positive_sizes():
    # hierarchical_f1 divides by both summed sizes unchecked: each built
    # path, truth or prediction, holds its level-1 label
    for truth, predicted in itertools.product(PATHS, BUILT_PATHS):
        _, predicted_size, truth_size = path_triple(truth, predicted)
        assert predicted_size >= 1 and truth_size >= 1, (truth, predicted)


def predict(examples, query, k, seed, metric="edit"):
    """Predict a label path the way the grid's oracle does: rank the examples
    once, count each level's labels among the first min(k, n), NoLabel
    included, and vote top-down."""
    sims = [nsim(query, words, metric) for words, _ in examples]
    order = rank_by_similarity(sims, descending(sims), random.Random(stable_seed(seed, "order")), k)
    counts = [Counter(examples[i][1][level - 1] for i in order) for level in LEVELS]
    return vote_path(counts, (seed, "vote"))[0]


def test_empty_prefix_ranks_nothing():
    # no neighbors, or a depth below 1, rank no candidate
    for sims, depth in (([], 3), ([0.5], 0)):
        assert rank_by_similarity(sims, descending(sims), random.Random(0), depth) == []


# --- the grid's neighbor counts ---


def grid_counts(stratum, query, k_grid, seed=0):
    """Run the grid over one worker whose early window is the (words, path)
    pairs of stratum, all easy, followed by the one query, which has no
    class. Returns the results and, per train size at which the query was
    ranked, (n, order, counts): counts holds, per path vote, its three level
    counts, copied, since the grid grows them in place as k rises. The
    stratum's own tweets are queries too; their rankings and votes, told
    apart by the tweet in their seed parts, are not returned."""
    ids = [f"t{i:02d}" for i in range(len(stratum))]
    ctx = SimulationContext(
        institution="MD",
        worker_ids=["w1"],
        windows={
            ("w1", "early"): (*zip(ids, (path for _, path in stratum)), ("q", PATHS[0])),
            ("w1", "late"): (),
        },
        classes=dict.fromkeys(ids, simulation.EASY),
        words={**{tid: tuple(w) for tid, (w, _) in zip(ids, stratum)}, "q": tuple(query)},
    )
    rankings = []
    seeded = []  # the parts of the last seed the grid derived
    real_seed = simulation.stable_seed
    real_rank = simulation.rank_by_similarity
    real_vote_path = simulation.vote_path

    def recording_seed(*parts):
        seeded[:] = parts
        return real_seed(*parts)

    def recording_rank(sims, candidates, rng, depth):
        candidates = list(candidates)
        order = real_rank(sims, candidates, rng, depth)
        if seeded[-2:] == ["order", "q"]:
            rankings.append((len(candidates), order, []))
        return order

    def recording_vote_path(counts, parts):
        if parts[-3:-1] == ("vote", "q"):
            rankings[-1][2].append([dict(c) for c in counts])
        return real_vote_path(counts, parts)

    config = RunConfig("a.jsonl", "t.jsonl", metrics=("edit",), k_grid=tuple(k_grid), seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "stable_seed", recording_seed)
        patch.setattr(simulation, "rank_by_similarity", recording_rank)
        patch.setattr(simulation, "vote_path", recording_vote_path)
        results = run_grid(ctx, config)
    return results, rankings


def test_grid_counts_cover_every_level():
    stratum = [(("w",) * (i + 1), PATHS[i % 4]) for i in range(5)]
    _, rankings = grid_counts(stratum, ("w",), [5])
    # the first two paths differ, so every train size up to 5 is ranked
    assert [n for n, _, _ in rankings] == [2, 3, 4, 5]
    for n, order, votes in rankings:
        assert [[sum(c.values()) for c in counts] for counts in votes] == [[n, n, n]]
    [counts] = rankings[-1][2]
    assert counts[0] == {"Irrelevant": 2, "Relevant": 3}
    # blank levels are counted as an explicit class
    assert counts[1] == {NO_LABEL: 2, "Factual": 1, "NonFactual": 2}
    assert counts[2] == {NO_LABEL: 3, "Positive": 1, "Negative": 1}


def test_grid_counts_follow_the_ranking():
    # edit similarity to the query falls as fewer of its words stay in place
    stratum = [
        (("a", "b", "x", "y"), PATHS[0]),
        (("a", "b", "c", "z"), PATHS[1]),
        (("a", "x", "y", "z"), PATHS[1]),
        (("a", "b", "c", "d"), PATHS[2]),
        (("x", "y", "z", "w"), PATHS[3]),
    ]
    _, rankings = grid_counts(stratum, ("a", "b", "c", "d"), [1, 2, 3])
    n, order, votes = rankings[-1]
    assert (n, order) == (5, [3, 1, 0])
    assert [counts[0] for counts in votes] == [
        {"Relevant": 1},
        {"Relevant": 2},
        {"Relevant": 2, "Irrelevant": 1},
    ]
    assert [counts[1] for counts in votes] == [
        {"NonFactual": 1},
        {"NonFactual": 1, "Factual": 1},
        {"NonFactual": 1, "Factual": 1, NO_LABEL: 1},
    ]


def test_grid_counts_cap_k_at_the_training_size():
    # Irrelevant leads every prefix, so no vote ties
    paths = [PATHS[0], PATHS[0], PATHS[1], PATHS[0], PATHS[2], PATHS[0], PATHS[0]]
    stratum = [((f"w{i}", "shared"), path) for i, path in enumerate(paths)]
    _, rankings = grid_counts(stratum, ("w1", "shared"), [9, 12])
    assert [n for n, _, _ in rankings] == [3, 4, 5, 6, 7]
    for n, order, votes in rankings:
        # every training tweet is a neighbor, so each level counts them all,
        # and both k share the prefix n, which is voted once
        assert sorted(order) == list(range(n))
        assert len(votes) == 1
        for counts in votes:
            for level, level_counts in zip(LEVELS, counts):
                assert level_counts == Counter(path[level - 1] for _, path in stratum[:n])


def test_grid_votes_distinct_prefixes_ascending():
    stratum = [((f"w{i}", "shared", f"v{i % 3}"), PATHS[i % 4]) for i in range(8)]
    results, rankings = grid_counts(stratum, ("w2", "shared", "v0"), [5, 1, 3, 3])
    assert {tuple(sorted(r.curve_easy)) for r in results if r.curve_easy is not None} == {(1, 3, 5)}
    assert rankings
    for n, order, votes in rankings:
        prefixes = [sum(counts[0].values()) for counts in votes]
        assert prefixes == sorted(prefixes)
        assert set(prefixes) == {min(k, n) for k in (1, 3, 5)}


@given(
    paths=st.lists(st.sampled_from(PATHS), min_size=2, max_size=10),
    words=st.lists(st.lists(st.sampled_from(("rain", "vote", "poll")), max_size=3), min_size=10, max_size=10),
    query=st.lists(st.sampled_from(("rain", "vote", "poll")), min_size=1, max_size=3),
    k_grid=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    seed=st.integers(0, 3),
)
def test_grid_counts_match_sliced_counters(paths, words, query, k_grid, seed):
    # each text opens with its own tweet index, so no two are empty; the
    # shared words make similarity ties common
    stratum = [((f"i{i}", *w), path) for i, (w, path) in enumerate(zip(words, paths))]
    _, rankings = grid_counts(stratum, (*query,), k_grid, seed)
    agreeing = next((i for i, path in enumerate(paths) if path != paths[0]), len(paths))
    assert [n for n, _, _ in rankings] == [n for n in simulation.TRAIN_SIZES if agreeing < n <= len(paths)]
    for n, order, votes in rankings:
        assert len(order) == min(max(k_grid), n)
        for counts in votes:
            prefix = sum(counts[0].values())
            assert prefix in {min(k, n) for k in k_grid}
            for level, level_counts in zip(LEVELS, counts):
                assert level_counts == Counter(paths[i][level - 1] for i in order[:prefix])


@settings(max_examples=40)
@given(
    paths=st.lists(st.sampled_from(PATHS), min_size=2, max_size=10),
    query=st.lists(st.sampled_from(("rain", "vote", "poll")), min_size=1, max_size=3),
    k_grid=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    seed=st.integers(0, 3),
)
def test_grid_votes_only_counts_of_at_least_one(paths, query, k_grid, seed):
    # vote reads its counts unchecked: the grid builds every level's counts
    # by +1 increments over at least one ranked neighbor
    stratum = [((f"i{i}", "rain"), path) for i, path in enumerate(paths)]
    _, rankings = grid_counts(stratum, (*query,), k_grid, seed)
    for _, _, votes in rankings:
        assert votes
        for counts in votes:
            for level_counts in counts:
                assert level_counts and min(level_counts.values()) >= 1


def test_predict_exact_match_k1():
    examples = [
        (("budget", "plan", "works"), PATHS[2]),
        (("boring", "rerun", "tonight"), PATHS[0]),
    ]
    path = predict(examples, ("budget", "plan", "works"), 1, 0, "substring")
    assert path == ("Relevant", "NonFactual", "Positive")
    path = predict(examples, ("boring", "rerun", "tonight"), 1, 0, "substring")
    assert path == ("Irrelevant", NO_LABEL, NO_LABEL)


def test_predict_only_irrelevant_training():
    path = predict([(("zzz",), PATHS[0])], ("anything", "else"), 3, 7)
    assert path == ("Irrelevant", NO_LABEL, NO_LABEL)


def test_predict_deterministic_under_seed():
    examples = [(tuple(f"w{i}{j}" for j in range(3)), PATHS[i % 4]) for i in range(6)]
    queries = [tuple(f"w{i}{j}" for j in range(2)) for i in range(6)]
    first = [predict(examples, q, 3, 11, "subsequence") for q in queries]
    second = [predict(examples, q, 3, 11, "subsequence") for q in queries]
    assert first == second


@pytest.mark.parametrize(
    "raw,expected",
    [
        (("Irrelevant", "NonFactual", "Positive"), ("Irrelevant", NO_LABEL, NO_LABEL)),
        (("Relevant", "Factual", "Positive"), ("Relevant", "Factual", NO_LABEL)),
        (("Relevant", NO_LABEL, "Negative"), ("Relevant", NO_LABEL, NO_LABEL)),
        (("Relevant", "NonFactual", "Negative"), ("Relevant", "NonFactual", "Negative")),
    ],
)
def test_vote_path_blanks_levels_the_tree_forbids(raw, expected, monkeypatch):
    def no_draw(*parts):
        raise AssertionError("a tie seed was derived without a tie")

    monkeypatch.setattr(simulation, "stable_seed", no_draw)
    assert vote_path([{label: 1} for label in raw], (0, "vote")) == (expected, False)
    assert coerce_structure(*raw) == expected


LEVEL_COUNTS = [
    st.dictionaries(st.sampled_from(labels), st.integers(1, 4), min_size=1)
    for labels in (LEVEL_LABELS[1], (*LEVEL_LABELS[2], NO_LABEL), (*LEVEL_LABELS[3], NO_LABEL))
]


def _voted_levels(path):
    # a coherent path has NonFactual at level 2 only under Relevant
    return [1, 2, 3][: 1 + (path[0] == RELEVANT) + (path[1] == NONFACTUAL)]


@given(counts=st.tuples(*LEVEL_COUNTS), seed=st.integers(0, 2**32))
def test_vote_path_matches_voting_every_level_then_coercing(counts, seed):
    def settle(labels, level):
        return labels[0] if len(labels) == 1 else random.Random(stable_seed(seed, "vote", level)).choice(labels)

    path, tied = vote_path(counts, (seed, "vote"))
    expected = coerce_structure(*(settle(vote(c), level) for level, c in zip(LEVELS, counts)))
    assert path == expected
    assert tied == any(len(vote(counts[level - 1])) > 1 for level in _voted_levels(path))


@given(
    counts=st.tuples(*(
        st.dictionaries(st.sampled_from((*LEVEL_LABELS[level], NO_LABEL)), st.integers(1, 4), min_size=1)
        for level in LEVELS
    )),
    seed=st.integers(0, 2**32),
)
def test_vote_path_returns_only_closed_paths(counts, seed):
    path, _ = vote_path(counts, (seed, "vote"))
    # walking up the tree from the voted labels adds no label
    assert label_set(path) == path_label_set(*path)


@given(counts=st.tuples(*LEVEL_COUNTS), parts=st.tuples(st.integers(0, 9), st.sampled_from(("vote", "x"))))
def test_vote_path_seeds_each_tied_voted_level_once(counts, parts):
    seeds = []

    def recording_seed(*args):
        seeds.append(args)
        return stable_seed(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "stable_seed", recording_seed)
        path, _ = vote_path(counts, parts)
    # a decided level and a level below the voted path derive no seed
    tied_levels = [level for level in _voted_levels(path) if len(vote(counts[level - 1])) > 1]
    assert seeds == [(*parts, level) for level in tied_levels]


def rank(sims, rng, depth):
    """Rank a whole row, from its stable descending order."""
    return rank_by_similarity(sims, descending(sims), rng, depth)


def test_rank_by_similarity_orders_descending():
    sims = [0.2, 0.9, 0.4, 0.9, 0.1]
    order = rank(sims, random.Random(3), len(sims))
    assert [sims[i] for i in order] == [0.9, 0.9, 0.4, 0.2, 0.1]
    assert set(order[:2]) == {1, 3}


def test_rank_by_similarity_deterministic():
    sims = [0.5] * 6
    assert rank(sims, random.Random(9), 6) == rank(sims, random.Random(9), 6)


def test_rank_by_similarity_draws_nothing_below_the_cut():
    # the top group is one item, so the tie of the three below it is never shuffled
    rng = random.Random(4)
    state = rng.getstate()
    assert rank([0.5, 1.0, 0.5, 0.5], rng, 1) == [1]
    assert rng.getstate() == state
    assert rank([0.5, 1.0, 0.5], rng, 0) == []
    assert rng.getstate() == state


# few distinct values, so ties often span the cut
tied_sims = st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), max_size=12)


@given(sims=tied_sims, seed=st.integers(0, 2**32), data=st.data())
def test_rank_by_similarity_is_a_prefix_of_the_full_ranking(sims, seed, data):
    n = len(sims)
    depth = data.draw(st.sampled_from([0, 1, n // 2, max(n - 1, 0), n, n + 1, n + 5]) | st.integers(0, n + 2))
    order = rank(sims, random.Random(seed), depth)
    assert order == rank_full(sims, random.Random(seed))[: min(depth, n)]


@given(
    sims=st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=12),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_a_filtered_order_ranks_as_the_sorted_sub_row(sims, seed, data):
    # the certainty kNN and the grid rank a subset of a row's positions by
    # filtering the row's one stable order; the old route sorted the sub-row
    positions = data.draw(st.lists(st.sampled_from(range(len(sims))), unique=True).map(sorted) if sims else st.just([]))
    depth = data.draw(st.integers(0, len(positions) + 1))
    subset = set(positions)
    filtered_rng, sorted_rng = random.Random(seed), random.Random(seed)
    order = rank_by_similarity(sims, (p for p in descending(sims) if p in subset), filtered_rng, depth)
    reference = rank_sorted([sims[p] for p in positions], sorted_rng, depth)
    assert order == [positions[i] for i in reference]
    assert filtered_rng.getstate() == sorted_rng.getstate()


@given(sims=tied_sims, depth=st.integers(0, 14))
def test_rank_by_similarity_reads_one_candidate_past_the_cut_group(sims, depth):
    pulled = []

    def counted(order):
        for index in order:
            pulled.append(index)
            yield index

    order = descending(sims)
    ranking = rank_by_similarity(sims, counted(order), random.Random(0), depth)
    if not ranking:
        assert pulled == []
        return
    # the cut group: every candidate as similar as the last one ranked
    cut_value = sims[ranking[-1]]
    through_cut = sum(1 for index in order if sims[index] >= cut_value)
    assert through_cut <= len(pulled) <= through_cut + 1
    assert pulled == order[: len(pulled)]


def test_vote_plurality():
    assert vote({"Positive": 2, "Negative": 1}) == ["Positive"]


def test_vote_unique_winner_is_one_label():
    assert vote(Counter(["Positive", "Positive", "Negative"])) == ["Positive"]
    assert vote({"Irrelevant": 3}) == ["Irrelevant"]


def test_vote_tie_breaks_within_tied_set():
    assert vote({"Positive": 1, "Negative": 1}) == ["Positive", "Negative"]
    level3 = ({RELEVANT: 1}, {NONFACTUAL: 1}, {"Negative": 1, "Positive": 1})
    winners = {vote_path(level3, (seed,))[0][2] for seed in range(20)}
    assert winners == {"Positive", "Negative"}


def test_vote_tie_draws_in_label_order():
    # the tied labels come in LABEL_ORDER, whatever order the counts mapping
    # holds them in, so the draw matches a seeded choice over that order
    counts = {NO_LABEL: 2, "NonFactual": 2, "Positive": 1, "Factual": 2}
    assert vote(counts) == ["Factual", "NonFactual", NO_LABEL]
    for seed in range(20):
        expected = random.Random(stable_seed(seed, 2)).choice(["Factual", "NonFactual", NO_LABEL])
        assert vote_path(({RELEVANT: 1}, counts, {"Positive": 1}), (seed,))[0][1] == expected


@given(counts=st.dictionaries(st.sampled_from(sorted(LABEL_ORDER)), st.integers(0, 4), min_size=1))
def test_vote_returns_the_top_count_labels_in_label_order(counts):
    top = max(counts.values())
    assume(top >= 1)
    assert vote(counts) == sorted((lab for lab, c in counts.items() if c == top), key=LABEL_ORDER.__getitem__)


words = st.lists(st.sampled_from([f"w{i}" for i in range(8)]), min_size=1, max_size=5).map(tuple)
examples_strategy = st.lists(
    st.tuples(words, st.sampled_from(PATHS)), min_size=1, max_size=8
)


@given(examples=examples_strategy, query=words, k=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_duplicating_training_set_with_doubled_k_is_noop(examples, query, k, seed):
    sims = sorted((nsim(query, ex_words, "edit") for ex_words, _ in examples), reverse=True)
    k_eff = min(k, len(examples))
    # a similarity tie spanning the cut makes the neighbor set genuinely
    # ambiguous, which doubling resolves differently; skip those draws
    assume(k_eff == len(examples) or sims[k_eff - 1] > sims[k_eff])
    single = predict(examples, query, k, seed)
    doubled = predict(examples + examples, query, 2 * k, seed)
    assert single == doubled


# --- hierarchical F1 ---


def summed_triple(pairs):
    """path_triple summed over (truth, predicted) pairs, as the grid pools them."""
    return [sum(column) for column in zip((0, 0, 0), *(path_triple(t, p) for t, p in pairs))]


def test_f1_perfect_predictions():
    pairs = [(p, p) for p in PATHS]
    assert hierarchical_f1(summed_triple(pairs)) == 1.0


def test_f1_partial_overlap():
    truth = ("Relevant", "NonFactual", "Negative")
    predicted = ("Relevant", "Factual", NO_LABEL)
    # one of two predicted labels is right, one of three truth labels found
    assert hierarchical_f1(summed_triple([(truth, predicted)])) == pytest.approx(0.4, abs=1e-12)


def test_f1_no_overlap_is_zero():
    truth = ("Irrelevant", NO_LABEL, NO_LABEL)
    predicted = ("Relevant", "Factual", NO_LABEL)
    assert hierarchical_f1(summed_triple([(truth, predicted)])) == 0.0


def test_f1_flat_case_equals_micro_f1():
    # single-level paths on both sides collapse to plain micro-averaged F1,
    # which for one label per item is accuracy
    truth = [("Irrelevant", NO_LABEL, NO_LABEL)] * 10
    predicted = [("Irrelevant", NO_LABEL, NO_LABEL)] * 7 + [("Relevant", NO_LABEL, NO_LABEL)] * 3
    pairs = list(zip(truth, predicted))
    assert hierarchical_f1(summed_triple(pairs)) == pytest.approx(0.7, abs=1e-12)


pair_lists = st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(BUILT_PATHS)), min_size=1, max_size=20)


@given(pairs=pair_lists)
def test_f1_matches_direct_formula(pairs):
    expected = hier_f1_direct([(path_label_set(*t), path_label_set(*p)) for t, p in pairs])
    value = hierarchical_f1(summed_triple(pairs))
    # the same integer sums through the same float formula
    assert value == expected
    assert 0.0 <= value <= 1.0


@given(pairs=pair_lists, data=st.data())
def test_f1_permutation_invariant(pairs, data):
    shuffled = data.draw(st.permutations(pairs))
    assert hierarchical_f1(summed_triple(shuffled)) == pytest.approx(hierarchical_f1(summed_triple(pairs)), abs=1e-12)


@given(pairs=pair_lists, extra=st.sampled_from(PATHS))
def test_f1_never_drops_when_perfect_pair_added(pairs, extra):
    base = hierarchical_f1(summed_triple(pairs))
    extended = hierarchical_f1(summed_triple(pairs + [(extra, extra)]))
    assert extended >= base - 1e-12


@given(pairs=pair_lists, data=st.data())
def test_f1_of_summed_group_triples_equals_pooled_f1(pairs, data):
    # groups stand in for workers: their triples sum to the pooled triple, so
    # a pooled F1 may be summed per worker first
    owners = data.draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    groups = {}
    for owner, pair in zip(owners, pairs):
        groups.setdefault(owner, []).append(pair)
    summed = [sum(column) for column in zip((0, 0, 0), *(summed_triple(group) for group in groups.values()))]
    value = hierarchical_f1(summed)
    assert value == hierarchical_f1(summed_triple(pairs))
    assert value == hier_f1_direct([(path_label_set(*t), path_label_set(*p)) for t, p in pairs])
