"""Word-level similarity between short texts.

Texts are compared as word sequences, not character strings. All similarity
values are normalized to [0, 1] by the length of the longer sequence, and
two empty sequences score 1.0. A measure is its name in METRICS.
Subsequence and edit distance are bit-parallel kernels over word_masks;
substring has one algorithm, similarity_rows, which indexes one pool in
flat lists of positions and streams the rows of many queries against it
for the certainty kNN, and which nsim reads for one pair. nsim compares
one pair under any of the three measures, and PairSimilarity memoizes it
for the simulation grid, which runs all three. The functions here are
pure and safe to call from multiple threads; a PairSimilarity fills its
cache as it is read, and a similarity_rows iterator advances as it is
read, so each thread needs its own.
"""

from __future__ import annotations

import string
from typing import Iterable, Iterator, Mapping, Sequence

# characters stripped from both ends of each token; '#' and '@' survive so
# hashtags and mentions keep their marker
_STRIP = "".join(c for c in string.punctuation if c not in "#@") + "“”‘’«»…–—"

WordSequence = Sequence[str]


# the similarity measures, by the names that configs, seeds and outputs carry
METRICS = ("subsequence", "substring", "edit")


def tokenize(text: str) -> list[str]:
    """Split a text into lowercase word tokens.

    Splits on whitespace, strips surrounding punctuation from each token
    (keeping '#' and '@'), and drops tokens that end up empty.

    >>> tokenize("law and order #Debates")
    ['law', 'and', 'order', '#debates']
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


def word_masks(words: WordSequence) -> dict[str, int]:
    """Match bitmask per distinct word: bit j is set where words[j] is that
    word. The table both kernels read for the second sequence of a pair."""
    masks: dict[str, int] = {}
    for j, word in enumerate(words):
        masks[word] = masks.get(word, 0) | 1 << j
    return masks


def _subsequence(a: WordSequence, masks: Mapping[str, int], n: int) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004) of a against
    a length-n sequence given by its word_masks: O(len(a)) operations on
    n-bit integers. A zero bit j of s marks a column where the LCS of the
    prefixes read so far grows."""
    full = (1 << n) - 1
    s = full
    for word in a:
        match = masks.get(word)
        if match:
            u = s & match
            s = ((s + u) | (s - u)) & full
    return n - s.bit_count()


def _edit(a: WordSequence, masks: Mapping[str, int], n: int) -> int:
    """Levenshtein distance of a and a length-n sequence given by its
    word_masks, by Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's
    formulation for the global distance: O(len(a)) operations on n-bit
    integers. pv and mv hold the +1 and -1 vertical deltas of the current DP
    column; dist follows its last cell."""
    if not n:
        return len(a)
    full = (1 << n) - 1
    last = 1 << (n - 1)
    pv, mv, dist = full, 0, n
    for word in a:
        eq = masks.get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # the first DP row is 0, 1, 2, ..., so every column enters with a +1
        ph = (ph << 1 | 1) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
    return dist


def nsim(a: WordSequence, b: WordSequence, metric: str) -> float:
    """Normalized word-level similarity in [0, 1] under the measure named
    metric, one of METRICS.

    Common-subsequence and common-substring lengths are divided by the longer
    sequence length. Edit distance is mapped through 1 - distance / longer
    length so that identical sequences score 1 and disjoint ones score 0.
    Two empty sequences are identical and score 1.0 under every metric.
    Substring is the one-pair row of similarity_rows.

    >>> nsim(("a", "b", "c"), ("b", "c"), "substring")
    0.6666666666666666
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    if metric == "substring":
        return next(similarity_rows((a,), (b,)))[0]
    if not a and not b:
        return 1.0
    masks = word_masks(b)
    longest = max(len(a), len(b))
    if metric == "subsequence":
        return _subsequence(a, masks, len(b)) / longest
    return 1.0 - _edit(a, masks, len(b)) / longest


def similarity_rows(queries: Iterable[WordSequence], pool: Sequence[WordSequence]) -> Iterator[list[float]]:
    """Each query's substring similarity to every pool sequence, by pool
    position: one row per query, in query order, each computed when it is
    pulled.

    A float is the longest common run of words over the longer length;
    two empty sequences score 1.0 and one empty side 0.0. This is the one
    substring algorithm: nsim(a, b, "substring") reads the row of query a
    against pool (b,). The pool is indexed once, in flat lists: each word
    maps to the ascending pool positions that hold it, each once, and each
    adjacent word pair to the cells where it ends, where cells number all
    the pool's words in order and one owner list gives each cell's pool
    position. Each query length n has one template, made once:
    1 / max(n, m) at a pool sequence of length m, the score of a run of 1.
    Each query is scanned once: every pool sequence that shares a word
    with it takes its template value, and each query pair extends the runs
    that the previous pair ended just before it in the pool; the runs of 2
    or more words are written over those values. Only the index, one
    template per query length and the row being built are held, so memory
    grows with the pool, not with queries x pool.
    """
    lengths = [len(words) for words in pool]
    # the index: holders (word -> positions), follows (pair -> cells where
    # it ends) and owner (cell -> position)
    holders: dict[str, list[int]] = {}
    follows: dict[tuple[str, str], list[int]] = {}
    owner: list[int] = []
    for position, words in enumerate(pool):
        for j, word in enumerate(words):
            held = holders.get(word)
            if held is None:
                holders[word] = [position]
            elif held[-1] != position:
                held.append(position)
            if j:
                follows.setdefault((words[j - 1], word), []).append(len(owner))
            owner.append(position)
    templates: dict[int, list[float]] = {}
    for query in queries:
        n = len(query)
        if not n:
            yield [0.0 if m else 1.0 for m in lengths]
            continue
        template = templates.get(n)
        if template is None:
            template = templates[n] = [1 / max(n, m) for m in lengths]
        row = [0.0] * len(pool)
        for word in set(query):
            for position in holders.get(word, ()):
                row[position] = template[position]
        # runs[cell]: length of the common run that ends at cell and at
        # the query word just read; only the previous word's runs extend
        runs: dict[int, int] = {}
        longest: dict[int, int] = {}  # pool position -> its longest run of 2 or more
        for pair in zip(query, query[1:]):
            ending = {}
            for cell in follows.get(pair, ()):
                run = ending[cell] = runs.get(cell - 1, 1) + 1
                position = owner[cell]
                if run > longest.get(position, 1):
                    longest[position] = run
            runs = ending
        for position, run in longest.items():
            row[position] = run / max(n, lengths[position])
        yield row


class PairSimilarity:
    """Memoized nsim over a fixed id -> words table, under the measure named
    metric: the simulation grid's similarity cache.

    The grid looks each (query, training tweet) pair up once per worker and
    arm, but workers that share tweets meet the same pairs, and a pair of an
    easy and a difficult tweet serves both arms, one tweet as the query in
    each. So pair similarities are cached under a symmetric key. The
    certainty kNN compares each pair once and reads similarity_rows instead.
    """

    def __init__(self, words_by_id: Mapping[str, WordSequence], metric: str):
        self._words = words_by_id
        self._metric = metric
        self._cache: dict[tuple[str, str], float] = {}

    def sim(self, id_a: str, id_b: str) -> float:
        key = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
        hit = self._cache.get(key)
        if hit is None:
            # through the module-level name, so a wrapper installed on
            # textsim.nsim sees every computed pair
            hit = self._cache[key] = nsim(self._words[id_a], self._words[id_b], self._metric)
        return hit
