"""Independent oracles the test suite checks the implementation against.

Everything here is deliberately written with different algorithms and data
structures than the package: BLEU by direct fraction arithmetic, METEOR by
an exhaustive alignment DP, statistics via scipy and, bit for bit, Kendall
tau by merge-sort inversions and the t tail by a two-block continued
fraction, the tagger's argmax over PosTag-keyed weights with a tuple
tie-break, the embedding average as a loop over a dict of rows, the `.vec`
loader and the tokenizer as per-row and per-chunk loops, and the stemmer
against published example vectors.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
import scipy.stats

from posscore.core import PosTag, Token
from posscore.embed import _row_problem

BLEU_EPS = 1e-9


def brute_bleu(ref: list[str], cand: list[str], n: int) -> float:
    """BLEU-n by explicit n-gram list scans; same epsilon-floor convention."""
    if not cand:
        return 0.0
    prod = 1.0
    for k in range(1, n + 1):
        cand_grams = [tuple(cand[i : i + k]) for i in range(len(cand) - k + 1)]
        ref_grams = [tuple(ref[i : i + k]) for i in range(len(ref) - k + 1)]
        if not cand_grams:
            prod *= BLEU_EPS
            continue
        clipped = 0
        remaining = list(ref_grams)
        for g in cand_grams:
            if g in remaining:
                remaining.remove(g)
                clipped += 1
        prod *= max(clipped, BLEU_EPS) / len(cand_grams)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand))) if cand else 0.0
    return bp * prod ** (1.0 / n)


def sequential_average(norms: Sequence[str], rows: Mapping[str, np.ndarray], dim: int) -> np.ndarray:
    """Mean of the rows of the in-vocabulary norms, one `acc += count * row`
    per distinct norm in first-occurrence order, starting from +0.0.
    """
    counts: dict[str, int] = {}
    for norm in norms:
        if norm in rows:
            counts[norm] = counts.get(norm, 0) + 1
    acc = np.zeros(dim, dtype=np.float64)
    if not counts:
        return acc
    for norm, count in counts.items():
        acc += count * rows[norm]
    acc /= sum(counts.values())
    return acc


def rowwise_load_vec(path, vocab_filter: set[str]) -> tuple[dict, np.ndarray]:
    """`load_vec`'s rules with every kept row parsed on its own by float():
    returns (index, matrix) or raises its ValueError.
    """
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    with open(path, encoding="utf-8") as fh:
        parts = fh.readline().split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
        try:
            dim = int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line 1: non-integer dimension {parts[1]!r}") from None
        if dim < 1:
            raise ValueError(f"{path}: line 1: dimension must be >= 1")
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            count = line.count(" ") - line.endswith((" \n", " "))
            if count != dim:
                raise ValueError(f"{path}: line {lineno}: expected {dim} values, got {count}")
            cut = line.find(" ")
            token = line[:cut].casefold()
            if token not in vocab_filter or token in index:
                continue
            fields = line[cut + 1 :].rstrip("\n").split(" ", dim)[:dim]
            try:
                row = np.fromiter(map(float, fields), dtype=np.float64, count=dim)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            problem = _row_problem(row)
            if problem:
                raise ValueError(f"{path}: line {lineno}: {problem} in {token!r}")
            index[token] = len(rows)
            rows.append(row)
    return index, np.array(rows).reshape(len(rows), dim)


_PUNCT = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


def chunkwise_tokenize(text: str) -> list[Token]:
    """Whitespace chunks with leading and trailing ASCII punctuation split off
    one character per token, each chunk worked out on its own.
    """
    out: list[Token] = []
    for chunk in text.split():
        start, end = 0, len(chunk)
        while start < end and chunk[start] in _PUNCT:
            start += 1
        while end > start and chunk[end - 1] in _PUNCT:
            end -= 1
        out.extend(Token(c) for c in chunk[:start])
        if start < end:
            out.append(Token(chunk[start:end]))
        out.extend(Token(c) for c in chunk[end:])
    return out


def brute_meteor(
    ref: list[str],
    cand: list[str],
    stem,
    syn_pairs: frozenset[tuple[str, str]] = frozenset(),
    alpha: float = 0.9,
    beta: float = 3.0,
    gamma: float = 0.5,
) -> float:
    """METEOR by exhaustive alignment search.

    Enumerates every matching via a memoized DP over (candidate position,
    used-reference bitmask, reference index matched at the previous
    position), maximizing matches and then minimizing chunks. Only suitable
    for short sentences.
    """
    if not ref or not cand:
        return 0.0
    ref_stems = [stem(w) for w in ref]
    cand_stems = [stem(w) for w in cand]

    def edge(i: int, j: int) -> bool:
        return (
            cand[i] == ref[j]
            or cand_stems[i] == ref_stems[j]
            or (cand[i], ref[j]) in syn_pairs
            or (ref[j], cand[i]) in syn_pairs
        )

    n_c, n_r = len(cand), len(ref)

    @lru_cache(maxsize=None)
    def best(i: int, mask: int, prev: int) -> tuple[int, int]:
        """(matches, -chunks) achievable from candidate position i."""
        if i == n_c:
            return (0, 0)
        # skip candidate token i
        result = best(i + 1, mask, -1)
        for j in range(n_r):
            if mask & (1 << j) or not edge(i, j):
                continue
            inc = 0 if (prev != -1 and j == prev + 1) else 1
            m, negc = best(i + 1, mask | (1 << j), j)
            cand_result = (m + 1, negc - inc)
            if cand_result > result:
                result = cand_result
        return result

    matches, neg_chunks = best(0, 0, -1)
    best.cache_clear()
    if matches == 0:
        return 0.0
    chunks = -neg_chunks
    precision = matches / n_c
    recall = matches / n_r
    f_mean = precision * recall / (alpha * precision + (1 - alpha) * recall)
    penalty = gamma * (chunks / matches) ** beta
    return f_mean * (1 - penalty)


def scipy_paired_ttest(a: list[int], b: list[int]) -> float:
    """Two-sided paired t-test p-value from scipy."""
    return float(scipy.stats.ttest_rel(a, b).pvalue)


def scipy_kendall_tau(x: list[float], y: list[float]) -> float:
    """Kendall tau-b from scipy."""
    return float(scipy.stats.kendalltau(x, y, variant="b").statistic)


def scipy_t_sf2(t: float, df: int) -> float:
    """Two-sided t tail probability from scipy."""
    return float(2.0 * scipy.stats.t.sf(abs(t), df))


def _mergesort_inversions(values: list) -> int:
    """Strict inversions of values by a recursive merge sort; sorts values."""
    n = len(values)
    if n < 2:
        return 0
    mid = n // 2
    left = values[:mid]
    right = values[mid:]
    inversions = _mergesort_inversions(left) + _mergesort_inversions(right)
    i = j = k = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            values[k] = left[i]
            i += 1
        else:
            values[k] = right[j]
            j += 1
            inversions += len(left) - i
        k += 1
    while i < len(left):
        values[k] = left[i]
        i += 1
        k += 1
    while j < len(right):
        values[k] = right[j]
        j += 1
        k += 1
    return inversions


def _sorted_run_ties(sorted_vals: list) -> int:
    """Pairs of equal neighbours' runs in a sorted list: sum of k(k-1)/2."""
    total = 0
    run = 1
    for i in range(1, len(sorted_vals) + 1):
        if i < len(sorted_vals) and sorted_vals[i] == sorted_vals[i - 1]:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    return total


def mergesort_kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Knight's tau-b with run-scanned ties and merge-sort inversions, the
    package's earlier implementation, kept to check the new one bit for bit.
    """
    n = len(x)
    pairs = sorted(zip(x, y))
    n0 = n * (n - 1) // 2
    n1 = _sorted_run_ties([p[0] for p in pairs])
    n3 = _sorted_run_ties(pairs)
    ys = [p[1] for p in pairs]
    n2 = _sorted_run_ties(sorted(ys))
    discordant = _mergesort_inversions(ys[:])
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        return 0.0
    return (n0 - n1 - n2 + n3 - 2 * discordant) / denom


def _two_block_betacf(x: float, a: float, b: float) -> float:
    """Lentz's continued fraction with the even and odd steps written out,
    the package's earlier implementation.
    """
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def two_block_t_sf2(t: float, df: float) -> float:
    """Two-sided t tail probability through the two-block continued fraction,
    the package's earlier implementation of `student_t_sf2`.
    """
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a, b = df / 2.0, 0.5
    front = math.exp(
        a * math.log(x) + b * math.log(1.0 - x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _two_block_betacf(x, a, b) / a
    return 1.0 - front * _two_block_betacf(1.0 - x, b, a) / b


_TAG_ORDER = {tag: i for i, tag in enumerate(PosTag)}


def enum_predict(weights: Mapping[str, Mapping[PosTag, float]], feats: Sequence[str]) -> PosTag:
    """The perceptron's argmax over PosTag-keyed weights, with the tie broken
    by a (score, -tag order) key. The tagger's index-keyed `_predict` must
    pick the same tag.
    """
    scores: defaultdict[PosTag, float] = defaultdict(float)
    for f in feats:
        for t, w in weights.get(f, {}).items():
            scores[t] += w
    # ties broken by the fixed tag-alphabet order
    return max(PosTag, key=lambda t: (scores.get(t, 0.0), -_TAG_ORDER[t]))


def recursive_is_consonant(word: str, i: int) -> bool:
    """Porter's consonant rule as his 1980 paper states it: a letter other
    than a, e, i, o and u, and other than a y preceded by a consonant.
    """
    if word[i] in "aeiou":
        return False
    return word[i] != "y" or i == 0 or not recursive_is_consonant(word, i - 1)


def porter_conditions(word: str) -> tuple[int, bool, bool, bool]:
    """The measure m and the *v*, *d and *o conditions of word, each read
    letter by letter from the recursive consonant rule.
    """
    cons = [recursive_is_consonant(word, i) for i in range(len(word))]
    m = sum(1 for i in range(1, len(word)) if cons[i] and not cons[i - 1])
    has_vowel = not all(cons)
    double = len(word) >= 2 and word[-1] == word[-2] and cons[-1]
    cvc = len(word) >= 3 and cons[-1] and not cons[-2] and cons[-3] and word[-1] not in "wxy"
    return m, has_vowel, double, cvc


# Published example vectors for the 1980 suffix-stripping algorithm,
# spanning all five steps.
PORTER_VECTORS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]
