"""Brute-force reference implementations used to cross-check production code.

Each function recomputes a production quantity by a deliberately different
route: exhaustive enumeration, exact rational arithmetic, or a direct
transcription of the defining formula. Slow is fine here; independence is
the point.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb


def lcs_subsequence_brute(a, b):
    """Longest common subsequence length by enumerating subsequences of the
    shorter sequence, longest first."""
    a, b = list(a), list(b)
    if len(a) > len(b):
        a, b = b, a

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(word in it for word in sub)

    for length in range(len(a), 0, -1):
        for idx in combinations(range(len(a)), length):
            if is_subsequence([a[i] for i in idx], b):
                return length
    return 0


def lcs_substring_brute(a, b):
    """Longest common contiguous run by enumerating every window of a."""
    a, b = list(a), list(b)
    best = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            window = a[i:j]
            if any(b[p : p + len(window)] == window for p in range(len(b) - len(window) + 1)):
                best = max(best, len(window))
    return best


def edit_distance_brute(a, b):
    """Levenshtein distance by plain top-down recursion on suffixes."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def lcs_subsequence_dp(a, b):
    """Longest common subsequence length by the O(len(a) * len(b)) dynamic
    program over prefixes."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for wa in a:
        cur = [0]
        for j, wb in enumerate(b, start=1):
            if wa == wb:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def lcs_substring_dp(a, b):
    """Longest common contiguous run by the O(len(a) * len(b)) dynamic
    program over the run lengths ending at each pair of positions."""
    if not a or not b:
        return 0
    best = 0
    prev = [0] * (len(b) + 1)
    for wa in a:
        cur = [0]
        for j, wb in enumerate(b, start=1):
            run = prev[j - 1] + 1 if wa == wb else 0
            cur.append(run)
            if run > best:
                best = run
        prev = cur
    return best


def edit_distance_dp(a, b):
    """Levenshtein distance by the O(len(a) * len(b)) Wagner-Fischer dynamic
    program."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, wa in enumerate(a, start=1):
        cur = [i]
        for j, wb in enumerate(b, start=1):
            cost = 0 if wa == wb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def fisher_exact_fraction(a, b, c, d):
    """Two-tailed Fisher p-value as an exact Fraction.

    Enumerates every table with the observed margins and sums the
    hypergeometric probabilities of those no more likely than the observed
    table. No floating point is involved anywhere.
    """
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    denom = comb(n, c1)
    p_obs = Fraction(comb(r1, a) * comb(r2, c1 - a), denom)
    total = Fraction(0)
    for x in range(max(0, c1 - r2), min(r1, c1) + 1):
        p = Fraction(comb(r1, x) * comb(r2, c1 - x), denom)
        if p <= p_obs:
            total += p
    return total


def best_threshold_wcss(values):
    """Minimal within-cluster sum of squares over every 2-split of the
    sorted values, including splits between equal values."""
    vals = sorted(values)

    def wcss(chunk):
        if not chunk:
            return 0.0
        mean = sum(chunk) / len(chunk)
        return sum((v - mean) ** 2 for v in chunk)

    return min(wcss(vals[:i]) + wcss(vals[i:]) for i in range(1, len(vals)))


def exact_threshold_wcss(values):
    """Minimal within-cluster sum of squares over every 2-split of the
    sorted values, in exact rational arithmetic from prefix sums of the
    values and of their squares. Linear after the sort, so it reaches
    populations above 10,000 values, where best_threshold_wcss, which is
    quadratic, is too slow."""
    vals = [Fraction(v) for v in sorted(values)]
    n = len(vals)
    sums = list(accumulate(vals, initial=Fraction(0)))
    squares = list(accumulate((v * v for v in vals), initial=Fraction(0)))
    return min(
        squares[i] - sums[i] ** 2 / i + (squares[n] - squares[i]) - (sums[n] - sums[i]) ** 2 / (n - i)
        for i in range(1, n)
    )


def wcss_of_assignment(values, labels):
    """Within-cluster sum of squares of a given two-way assignment."""
    total = 0.0
    for cluster in (0, 1):
        members = [v for v, lab in zip(values, labels) if lab == cluster]
        if members:
            mean = sum(members) / len(members)
            total += sum((v - mean) ** 2 for v in members)
    return total


def agreement_direct(votes_by_level):
    """Worker agreement computed straight from per-level vote lists."""
    majority = {}
    ties = 0
    for level, cast in votes_by_level.items():
        if not cast:
            continue
        counts = Counter(cast)
        top = max(counts.values())
        if sum(1 for v in counts.values() if v == top) > 1:
            ties += 1
        majority[level] = (top, len(cast))
    total_maj = sum(top for top, _ in majority.values()) + ties
    return sum((top / voters) * (top / total_maj) for top, voters in majority.values())


def certainty_direct(worker_rows):
    """Predictor certainty of one tweet by the README's C rule, in exact
    rationals: per level, average the workers' rows label by label; each
    worker predicts the first of its top labels in the canonical label order;
    keep the best average among the predicted labels; average the levels."""
    order = ["Relevant", "Irrelevant", "Factual", "NonFactual", "Positive", "Negative"]
    maxima = []
    for level in sorted({lvl for row in worker_rows for lvl in row}):
        rows = [{lab: Fraction(v) for lab, v in row[level].items()} for row in worker_rows if level in row]
        average = {lab: sum(r[lab] for r in rows) / len(rows) for lab in rows[0]}
        predicted = set()
        for r in rows:
            top = max(r.values())
            predicted.add(next(lab for lab in order if r.get(lab) == top))
        maxima.append(max(average[lab] for lab in predicted))
    return float(sum(maxima) / len(maxima))


def hier_f1_direct(pairs):
    """Micro-averaged hierarchical F1 from explicit label sets."""
    overlap = sum(len(t & p) for t, p in pairs)
    predicted = sum(len(p) for _, p in pairs)
    truth = sum(len(t) for t, _ in pairs)
    h_p = overlap / predicted if predicted else 0.0
    h_r = overlap / truth if truth else 0.0
    return 2 * h_p * h_r / (h_p + h_r) if h_p + h_r else 0.0


def path_label_set(*labels):
    """Ancestor-closed label set of a path already known to be coherent."""
    return frozenset(lab for lab in labels if lab and lab != "NoLabel")


def coerce_structure(level1, level2, level3):
    """Repair independent per-level votes into a coherent path tuple.

    The grid's old route, kept as the reference for the top-down vote: every
    level is voted, then an Irrelevant level 1 blanks both lower levels and a
    level 2 other than NonFactual blanks level 3.
    """
    if level1 == "Irrelevant":
        level2 = level3 = "NoLabel"
    if level2 in ("Factual", "NoLabel"):
        level3 = "NoLabel"
    return level1, level2, level3


def rank_full(sims, rng):
    """Every index by descending similarity, each group of equal
    similarities shuffled by rng from the top down.

    The ranking's old route, which shuffled every tie group: the reference
    whose prefix rank_by_similarity must give at any depth.
    """
    order = sorted(range(len(sims)), key=lambda i: -sims[i])
    out = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and sims[order[j]] == sims[order[i]]:
            j += 1
        group = order[i:j]
        if len(group) > 1:
            rng.shuffle(group)
        out.extend(group)
        i = j
    return out


def arm_curve_per_size(ctx, metric, phase, n, arm, k_grid, seed):
    """One arm's (curve, skipped) at one train size, by the grid's per-size
    route: the training set is the first n tweets of the phase window whose
    class in ctx.classes is arm, and every other window tweet is a query,
    compared with each of the n training tweets, ranked in full by
    rank_full, and voted at every k on every level from direct counts of its
    first k neighbors, the votes repaired by coerce_structure; F1 comes from
    explicit label sets of the pair list.
    The seeds are those of the grid: (…, "order", tweet) for the ranking,
    (…, "vote", tweet, k, level) for a draw among one level's tied labels.
    """
    import random

    from annodiff.config import stable_seed
    from annodiff.knn import vote
    from annodiff.textsim import nsim

    ks = sorted(set(k_grid))
    pairs_per_k = {k: [] for k in ks}
    skipped = 0
    for wid in ctx.worker_ids:
        window = ctx.windows[(wid, phase)]
        training = []
        for tid, path in window:
            if len(training) < n and ctx.classes.get(tid) == arm:
                training.append((tid, path))
        if len(training) < n:
            skipped += 1
            continue
        train_ids = {tid for tid, _ in training}
        for tid, truth in window:
            if tid in train_ids:
                continue
            sims = [nsim(ctx.words[tid], ctx.words[train_tid], metric) for train_tid, _ in training]
            parts = (seed, ctx.institution, metric.value, phase, n, wid, arm)
            order = rank_full(sims, random.Random(stable_seed(*parts, "order", tid)))
            for k in ks:
                neighbors = [training[i][1] for i in order[:k]]
                votes = []
                for level in (1, 2, 3):
                    top = vote(Counter(path[level - 1] for path in neighbors))
                    if len(top) > 1:
                        top = [random.Random(stable_seed(*parts, "vote", tid, k, level)).choice(top)]
                    votes.append(top[0])
                pairs_per_k[k].append((truth, coerce_structure(*votes)))
    if skipped == len(ctx.worker_ids):
        return None, skipped
    curve = {
        k: hier_f1_direct([(path_label_set(*t), path_label_set(*p)) for t, p in pairs_per_k[k]]) for k in ks
    }
    return curve, skipped


def config_result(ctx, metric, phase, n, k_grid, seed, epsilon):
    """One grid configuration from arm_curve_per_size for both arms."""
    from annodiff.simulation import ConfigResult, encode_outcome, mean_curve_delta

    curve_easy, skipped_easy = arm_curve_per_size(ctx, metric, phase, n, "easy", k_grid, seed)
    curve_difficult, skipped_difficult = arm_curve_per_size(ctx, metric, phase, n, "difficult", k_grid, seed)
    delta = code = None
    if curve_easy is not None and curve_difficult is not None:
        delta = mean_curve_delta(curve_easy, curve_difficult)
        code = encode_outcome(delta, epsilon)
    return ConfigResult(
        institution=ctx.institution,
        metric=metric.value,
        phase=phase,
        train_size=n,
        curve_easy=curve_easy,
        curve_difficult=curve_difficult,
        skipped_easy=skipped_easy,
        skipped_difficult=skipped_difficult,
        code=code,
        mean_delta=delta,
    )
