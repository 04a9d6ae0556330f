"""Tokenization and the three word-level similarity metrics."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from annodiff import textsim
from annodiff.textsim import (
    METRICS,
    PairSimilarity,
    nsim,
    similarity_rows,
    tokenize,
    word_masks,
)
from oracles import (
    edit_distance_brute,
    edit_distance_dp,
    lcs_subsequence_brute,
    lcs_subsequence_dp,
    lcs_substring_brute,
    lcs_substring_dp,
)

TOKENIZE_CASES = [
    ("Law and order #Debates", ["law", "and", "order", "#debates"]),
    ("@potus, you're WRONG!", ["@potus", "you're", "wrong"]),
    ("“Fine.” He said… whatever —", ["fine", "he", "said", "whatever"]),
    ("#MAGA!!! vs. #maga", ["#maga", "vs", "#maga"]),
    ("  spaced\tout\nwords  ", ["spaced", "out", "words"]),
    ("(hello) [world] {now}", ["hello", "world", "now"]),
    ("co-op e.g. 'quoted'", ["co-op", "e.g", "quoted"]),
    ("...", []),
    ("", []),
    ("   \t\n ", []),
]


@pytest.mark.parametrize("text,expected", TOKENIZE_CASES)
def test_tokenize(text, expected):
    assert tokenize(text) == expected


def test_pair_values_match_dynamic_programs():
    a = "the cat sat on the mat".split()
    b = "the dog sat on a mat".split()
    assert lcs_subsequence_dp(a, b) == 4  # the ... sat on ... mat
    assert lcs_substring_dp(a, b) == 2  # "sat on"
    assert edit_distance_dp(a, b) == 2
    assert nsim(a, b, "subsequence") == 4 / 6
    assert nsim(a, b, "substring") == 2 / 6
    assert nsim(a, b, "edit") == 1.0 - 2 / 6


def test_pair_values_with_an_empty_side():
    assert lcs_subsequence_dp([], ["x"]) == 0
    assert nsim([], ["x"], "subsequence") == 0.0
    assert lcs_substring_dp(["x"], []) == 0
    assert nsim(["x"], [], "substring") == 0.0
    assert edit_distance_dp([], ["x", "y"]) == 2
    assert nsim([], ["x", "y"], "edit") == 1.0 - 2 / 2
    assert edit_distance_dp(["x", "y"], []) == 2
    assert nsim(["x", "y"], [], "edit") == 1.0 - 2 / 2


NSIM_CASES = [
    # (a, b, metric, expected)
    ("a b c", "a x c", "subsequence", 2 / 3),
    ("a b c", "a x c", "substring", 1 / 3),
    ("a b c", "a x c", "edit", 2 / 3),
    ("a b c", "a b c", "subsequence", 1.0),
    ("a b c", "a b c", "substring", 1.0),
    ("a b c", "a b c", "edit", 1.0),
    ("a b", "c d e", "subsequence", 0.0),
    ("a b", "c d e", "substring", 0.0),
    ("a b", "c d e", "edit", 0.0),
    ("a b c", "b c", "substring", 2 / 3),
    ("a b c d", "", "subsequence", 0.0),
    ("a b c d", "", "substring", 0.0),
    ("a b c d", "", "edit", 0.0),
]


@pytest.mark.parametrize("a,b,metric,expected", NSIM_CASES)
def test_nsim_values(a, b, metric, expected):
    assert nsim(a.split(), b.split(), metric) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("metric", METRICS)
def test_nsim_of_two_empty_sequences_is_one(metric):
    # two empty sequences are identical, and nsim says so as similarity_rows does
    assert nsim([], [], metric) == 1.0
    assert nsim((), (), metric) == next(similarity_rows([()], [()]))[0]


def test_nsim_refuses_an_unknown_metric():
    # a measure is its name, so a misspelt name must not pass for one
    with pytest.raises(ValueError, match="'Substring'"):
        nsim(("a",), ("a",), "Substring")
    with pytest.raises(ValueError, match="'jaccard'"):
        nsim((), (), "jaccard")


def test_nsim_substring_reads_the_row_search(monkeypatch):
    # substring has one algorithm: nsim reads one row of similarity_rows
    rows = []
    real_rows = textsim.similarity_rows

    def recording_rows(queries, pool):
        for row in real_rows(queries, pool):
            rows.append(row)
            yield row

    monkeypatch.setattr(textsim, "similarity_rows", recording_rows)
    assert nsim(("a", "b", "c"), ("b", "c"), "substring") == 2 / 3
    assert rows == [[2 / 3]]
    nsim(("a", "b", "c"), ("b", "c"), "subsequence")
    nsim(("a", "b", "c"), ("b", "c"), "edit")
    assert len(rows) == 1


words = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)


@given(a=words, b=words)
def test_nsim_matches_oracles(a, b):
    if not a and not b:
        return
    longest = max(len(a), len(b))
    assert nsim(a, b, "subsequence") == lcs_subsequence_brute(a, b) / longest
    assert nsim(a, b, "substring") == lcs_substring_brute(a, b) / longest
    assert nsim(a, b, "edit") == 1 - edit_distance_brute(a, b) / longest


@given(a=words, b=words, metric=st.sampled_from(METRICS))
def test_nsim_symmetric_and_bounded(a, b, metric):
    value = nsim(a, b, metric)
    assert value == nsim(b, a, metric)
    assert 0.0 <= value <= 1.0


@given(a=words, metric=st.sampled_from(METRICS))
def test_nsim_identity(a, metric):
    assert nsim(a, a, metric) == 1.0


@st.composite
def long_word_pairs(draw):
    """Two sequences over one vocabulary of 2 to 60 words, each 0 to 150
    words long, so match masks run past 64 bits and small vocabularies
    repeat words often."""
    vocabulary = draw(st.integers(2, 60))
    word = st.integers(0, vocabulary - 1).map(lambda i: f"w{i}")
    lengths = draw(st.tuples(st.integers(0, 150), st.integers(0, 150)))
    return tuple(draw(st.lists(word, min_size=n, max_size=n)) for n in lengths)


@settings(max_examples=150, deadline=None)
@given(pair=long_word_pairs())
def test_kernels_match_dynamic_programs(pair):
    a, b = pair
    subsequence = lcs_subsequence_dp(a, b)
    substring = lcs_substring_dp(a, b)
    distance = edit_distance_dp(a, b)
    if not a and not b:
        assert all(nsim(a, b, metric) == 1.0 for metric in METRICS)
        return
    longest = max(len(a), len(b))
    for metric, expected in [
        ("subsequence", subsequence / longest),
        ("substring", substring / longest),
        ("edit", 1.0 - distance / longest),
    ]:
        assert nsim(a, b, metric) == expected


def test_word_masks():
    assert word_masks(["a", "b", "a"]) == {"a": 0b101, "b": 0b010}
    assert word_masks([]) == {}


def test_pair_similarity_cache():
    texts = {"t1": ("a", "b", "c"), "t2": ("a", "x", "c"), "t3": ()}
    sims = PairSimilarity(texts, "subsequence")
    assert sims.sim("t1", "t2") == nsim(texts["t1"], texts["t2"], "subsequence")
    assert sims.sim("t2", "t1") == sims.sim("t1", "t2")
    assert sims.sim("t1", "t1") == 1.0
    # two empty word sequences count as identical rather than undefined
    assert sims.sim("t3", "t3") == 1.0
    assert sims.sim("t1", "t3") == 0.0


@st.composite
def queries_and_pool(draw):
    """Queries and a pool from one of two families.

    Uniform: one vocabulary of 2 to 60 words, each sequence empty or 0 to
    150 words long. Repeated: a stopword-heavy vocabulary of 2 to 200 words
    where word i is drawn about 1 / (i + 1) as often as w0, pool sequences
    of 20 to 100 words, some of them held twice, and queries of which some
    copy a pool sequence."""
    if draw(st.booleans()):
        vocabulary = draw(st.integers(2, 60))
        word = st.integers(0, vocabulary - 1).map(lambda i: f"w{i}")
        sequence = st.just(()) | st.integers(0, 150).flatmap(
            lambda n: st.lists(word, min_size=n, max_size=n).map(tuple)
        )
        return draw(st.lists(sequence, max_size=3)), draw(st.lists(sequence, max_size=4))
    vocabulary = draw(st.integers(2, 200))
    word = st.sampled_from([f"w{i}" for i in range(vocabulary) for _ in range(vocabulary // (i + 1))])
    sequence = st.integers(20, 100).flatmap(lambda n: st.lists(word, min_size=n, max_size=n).map(tuple))
    distinct = draw(st.lists(sequence, min_size=1, max_size=3))
    pool = draw(st.permutations(distinct + draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=2))))
    queries = draw(st.lists(sequence, max_size=2)) + draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=2))
    return draw(st.permutations(queries)), pool


@settings(max_examples=60, deadline=None)
@given(case=queries_and_pool())
def test_similarity_rows_match_dynamic_programs(case):
    queries, pool = case
    rows = similarity_rows(queries, pool)
    for query, row in zip(queries, rows, strict=True):
        # two empty sequences count as identical, as in nsim
        expected = [lcs_substring_dp(query, b) / max(len(query), len(b)) if query or b else 1.0 for b in pool]
        assert row == expected


def test_similarity_rows_of_empty_sequences():
    pool = [(), ("a", "b"), ("b", "a", "b")]
    assert list(similarity_rows([()], pool)) == [[1.0, 0.0, 0.0]]
    assert list(similarity_rows([("a", "b")], [()])) == [[0.0]]
    assert list(similarity_rows([], pool)) == []
    assert list(similarity_rows([("a",)], [])) == [[]]
    assert list(similarity_rows([["a", "b", "x"]], pool)) == [[0.0, 2 / 3, 2 / 3]]


def test_similarity_rows_pull_one_query_per_row():
    # rows are computed as they are read: the queries are never gathered
    # up front
    pool = [("a", "b"), ("b", "c", "a")]
    queries = [("a",), (), ("c", "a")]
    pulled = []

    def counted():
        for query in queries:
            pulled.append(query)
            yield query

    rows = similarity_rows(counted(), pool)
    assert pulled == []
    for n, query in enumerate(queries, 1):
        assert next(rows) == [nsim(query, words, "substring") for words in pool]
        assert len(pulled) == n
    assert next(rows, None) is None


def test_similarity_rows_with_repeated_words_and_pairs():
    # a pool sequence that holds a word and a word pair more than once is
    # one holder of that word, and each occurrence of the pair can end a run
    pool = [tuple("a a a b a a b".split()), ("b", "a"), ("c",), ("a", "a", "b", "b")]
    queries = [("a",), ("a", "a"), ("a", "a", "b"), ("b", "a", "a", "b"), ("c", "a", "a", "a", "b"), ("b", "b")]
    for query, row in zip(queries, similarity_rows(queries, pool), strict=True):
        assert row == [lcs_substring_dp(query, b) / max(len(query), len(b)) for b in pool]


def test_similarity_rows_index_size_per_pool_word():
    # the pool index is flat lists of positions: 164 to 167 bytes per pool
    # word at the first row on Python 3.10 to 3.13, where a set per word and
    # a (cell, position) tuple per word pair took 272 to 274
    rng = random.Random(7)
    vocabulary = [f"w{i}" for i in range(60)]
    pool = [tuple(rng.choices(vocabulary, k=8)) for _ in range(240)]
    query = tuple(rng.choices(vocabulary, k=8))
    tracemalloc.start()
    try:
        next(similarity_rows([query], pool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * 8 * len(pool), peak
