"""Independent oracles the test suite checks the implementation against.

Everything here is deliberately written with different algorithms and data
structures than the package: BLEU by direct fraction arithmetic, METEOR by
an exhaustive alignment DP, statistics via scipy, the tagger's argmax over
PosTag-keyed weights with a tuple tie-break, the embedding average as a loop
over a dict of rows, the `.vec` loader and the tokenizer as per-row and
per-chunk loops, and the stemmer against published example vectors.
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


def rowwise_load_vec(path, vocab_filter: set[str] | None = None) -> tuple[dict, np.ndarray]:
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
            if (vocab_filter is not None and token not in vocab_filter) or token in index:
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
