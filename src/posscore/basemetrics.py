"""Reference-based baseline metrics: sentence BLEU-1..4, METEOR and Embedding
Average.

BLEU uses an epsilon floor (1e-9) on zero precision counts instead of a
smoothing schedule, so short responses never hard-zero. METEOR follows the
alpha=0.9, beta=3, gamma=0.5 parameterization with a three-stage matcher
(exact, Porter stem, optional synonym lexicon). Its alignment has the most
matches and, among those, the fewest chunks. It starts from the longest
runs of consecutive matches, and tries other alignments only when those
miss a lower bound on the chunk count. The details report
exact_alignment = 1 when that chunk count is proven optimal, by the bound
or by a finished search, at any sentence length; otherwise the best
alignment found is scored and exact_alignment = 0.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import TaggedSentence, Token, open_text
from .embed import EmbeddingTable, SentenceVector, average_embedding, cosine
from .stem import porter_stem

BLEU_EPSILON = 1e-9

METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5

# The min-chunk search runs only on sentences of at most _ALIGN_MAX_LEN
# tokens and stops after _ALIGN_NODE_BUDGET nodes.
_ALIGN_MAX_LEN = 48
_ALIGN_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class MetricScore:
    """A metric value plus optional component breakdown."""

    value: float
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite score {self.value!r}")


class PreparedTokens:
    """A response, tagged or not, prepared once for every metric that scores it.

    Every scorer accepts it wherever it takes tokens or a TaggedSentence;
    `tagged` is the sentence it was made from, None for plain tokens. Its
    Porter stems, k-gram counts, average embedding and POS splits (one per
    tag set) are computed on first use and then kept. The stems are looked
    up in `stems`, a norm -> stem dict that callers may share between
    responses so that each distinct word is stemmed once. The average is
    kept for the last table it was asked for.
    """

    __slots__ = ("tokens", "tagged", "norms", "_stem_dict", "_stems", "_ngrams", "_average", "_splits")

    def __init__(
        self, tokens_or_tagged: Iterable[Token] | TaggedSentence, stems: dict[str, str] | None = None
    ) -> None:
        self.tagged = tokens_or_tagged if isinstance(tokens_or_tagged, TaggedSentence) else None
        self.tokens = tuple(tokens_or_tagged) if self.tagged is None else self.tagged.tokens
        self.norms = [t.norm for t in self.tokens]
        self._stem_dict = {} if stems is None else stems
        self._stems: list[str] | None = None
        self._ngrams: dict[int, Counter] = {}
        self._average: tuple[EmbeddingTable, SentenceVector] | None = None
        self._splits: dict = {}  # TagSet -> PosSplit, filled by posmetrics._split

    @property
    def stems(self) -> list[str]:
        if self._stems is None:
            known = self._stem_dict
            self._stems = [
                known[n] if n in known else known.setdefault(n, porter_stem(n))
                for n in self.norms
            ]
        return self._stems

    def average(self, table: EmbeddingTable) -> SentenceVector:
        if self._average is None or self._average[0] is not table:
            self._average = (table, average_embedding(self.tokens, table))
        return self._average[1]


Tokens = Sequence[Token] | TaggedSentence | PreparedTokens


def _prepared(tokens: Tokens) -> PreparedTokens:
    return tokens if isinstance(tokens, PreparedTokens) else PreparedTokens(tokens)


def _ngram_counts(tokens: PreparedTokens, k: int) -> Counter:
    """The k-gram counts of tokens, kept on it; callers must not mutate them."""
    counts = tokens._ngrams.get(k)
    if counts is None:
        counts = tokens._ngrams[k] = Counter(zip(*(tokens.norms[i:] for i in range(k))))
    return counts


def bleu_n(reference: Tokens, candidate: Tokens, n: int) -> MetricScore:
    """Sentence-level BLEU-n: clipped k-gram precisions for k=1..n under
    uniform weights, times the brevity penalty. Empty candidate scores 0.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"BLEU order must be in 1..4, got {n}")
    ref, cand = _prepared(reference), _prepared(candidate)
    ref_len, cand_len = len(ref.norms), len(cand.norms)
    if not cand_len:
        return MetricScore(0.0, {"bp": 0.0, "cand_len": 0.0, "ref_len": float(ref_len)})
    details = {"ref_len": float(ref_len), "cand_len": float(cand_len)}
    log_sum = 0.0
    for k in range(1, n + 1):
        cand_counts = _ngram_counts(cand, k)
        ref_counts = _ngram_counts(ref, k)
        shared = cand_counts.keys() & ref_counts.keys()  # the others clip to 0
        clipped = sum(min(cand_counts[g], ref_counts[g]) for g in shared)
        total = cand_len - k + 1
        p_k = max(float(clipped), BLEU_EPSILON) / total if total > 0 else BLEU_EPSILON
        details[f"p{k}"] = p_k
        log_sum += math.log(p_k) / n
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    details["bp"] = bp
    return MetricScore(bp * math.exp(log_sum), details)


class SynonymLexicon:
    """Symmetric word-relatedness set loaded from ``lemma<TAB>synonym`` lines."""

    def __init__(self, pairs: Sequence[tuple[str, str]] = ()) -> None:
        related: dict[str, set[str]] = {}
        for a, b in pairs:
            a, b = a.casefold(), b.casefold()
            related.setdefault(a, set()).add(b)
            related.setdefault(b, set()).add(a)
        self._related = {word: frozenset(words) for word, words in related.items()}

    def related_to(self, word: str) -> frozenset[str]:
        """The words the lexicon relates to word, in either direction."""
        return self._related.get(word, frozenset())

    @classmethod
    def load(cls, path: str | Path) -> "SynonymLexicon":
        pairs: list[tuple[str, str]] = []
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2 or not fields[0] or not fields[1]:
                    raise ValueError(f"{path}: line {lineno}: expected 'lemma<TAB>synonym'")
                pairs.append((fields[0], fields[1]))
        return cls(pairs)


def _match_edges(
    cand: PreparedTokens, ref: PreparedTokens, synonyms: SynonymLexicon | None
) -> list[Sequence[int]]:
    """adj[i] = reference positions j that candidate position i may align to,
    in ascending order. Rows are shared between equal stems; never mutate one.

    An exact match is also a stem match, so the first two stages are one
    lookup in a stem -> positions index of the reference. The synonym stage
    adds the positions of the reference norms the lexicon relates to the
    candidate norm.
    """
    by_stem: dict[str, list[int]] = {}
    for j, s in enumerate(ref.stems):
        by_stem.setdefault(s, []).append(j)
    if synonyms is None:
        return [by_stem.get(s, ()) for s in cand.stems]
    by_norm: dict[str, list[int]] = {}
    for j, w in enumerate(ref.norms):
        by_norm.setdefault(w, []).append(j)
    adj: list[Sequence[int]] = []
    for w, s in zip(cand.norms, cand.stems):
        row = set(by_stem.get(s, ()))
        for r in synonyms.related_to(w):
            row.update(by_norm.get(r, ()))
        adj.append(sorted(row))
    return adj


def _max_matching(adj: Sequence[Sequence[int]], start: Sequence[int]) -> list[int]:
    """Kuhn's augmenting-path maximum bipartite matching.

    Returns match_of_ref (one entry per reference position, -1 = free).
    Starting from the matching `start` (same form; all -1 for none), it
    searches one augmenting path from each candidate still free; a matched
    candidate stays matched, possibly to another position. Deterministic.
    The depth-first search runs on an explicit stack, trying each adj[i] in
    order, so long inputs cannot exhaust the interpreter's recursion limit.
    """
    match_of_ref = list(start)
    matched = set(match_of_ref)
    # A position a failed search visited leads only to positions failed
    # searches visited, all matched, so no later augmenting path can use it:
    # it stays visited for good. A successful search clears its own marks.
    visited = [False] * len(match_of_ref)
    # Equal stems share one row object. A search has visited every position
    # of a row up to the last edge it took there, so each level resumes after it.
    resume: dict[int, int] = {}
    for root in range(len(adj)):
        if root in matched:
            continue
        seen = []
        resume.clear()
        # one [candidate, index of the edge it is trying] per level of the
        # search; a level below follows the candidate matched to that edge
        path = [[root, -1]]
        while path:
            top = path[-1]
            row = adj[top[0]]
            k = resume.get(id(row), top[1] + 1)
            while k < len(row) and visited[row[k]]:
                k += 1
            if k == len(row):
                path.pop()
                continue
            top[1] = k
            resume[id(row)] = k + 1
            j = row[k]
            visited[j] = True
            seen.append(j)
            if match_of_ref[j] == -1:
                for i, edge in path:
                    match_of_ref[adj[i][edge]] = i
                for j in seen:
                    visited[j] = False
                break
            path.append([match_of_ref[j], -1])
    return match_of_ref


def _count_chunks(match_of_ref: Sequence[int]) -> int:
    """Chunks of an alignment: matched pairs (i, j) whose (i-1, j-1) is not matched."""
    return sum(
        1
        for j, i in enumerate(match_of_ref)
        if i != -1 and not (i > 0 and j > 0 and match_of_ref[j - 1] == i - 1)
    )


def _diagonal_runs(adj: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """Every maximal run (i, j, length): edges (i+k, j+k) for k < length."""
    sets: dict[int, set[int]] = {}  # one set per row object: equal stems share rows
    rows = [sets[id(r)] if id(r) in sets else sets.setdefault(id(r), set(r)) for r in adj]
    runs = []
    for i, row in enumerate(adj):
        before = rows[i - 1] if i else ()
        for j in row:
            if j - 1 not in before:
                length = 1
                while i + length < len(adj) and j + length in rows[i + length]:
                    length += 1
                runs.append((i, j, length))
    return runs


def _longest_runs(
    adj: Sequence[Sequence[int]], runs: list[tuple[int, int, int]], n_ref: int
) -> list[int]:
    """match_of_ref of free diagonal runs taken greedily, longest first, ties
    to the smallest (i, j).

    A run popped from the heap that overlaps positions already taken is
    split into its free stretches, which go back on the heap. Single edges
    come last, in (i, j) order, which is one pass over adj.
    """
    heap = [(-length, i, j) for i, j, length in runs if length > 1]
    heapq.heapify(heap)
    match_of_ref = [-1] * n_ref
    cand_free = [True] * len(adj)
    while heap:
        neg_length, i, j = heapq.heappop(heap)
        free = [cand_free[i + k] and match_of_ref[j + k] == -1 for k in range(-neg_length)]
        if all(free):
            for k in range(-neg_length):
                match_of_ref[j + k] = i + k
                cand_free[i + k] = False
            continue
        k = 0
        for ok, stretch in groupby(free):
            length = len(list(stretch))
            if ok and length > 1:
                heapq.heappush(heap, (-length, i + k, j + k))
            k += length
    for i, row in enumerate(adj):
        if cand_free[i]:
            for j in row:
                if match_of_ref[j] == -1:
                    match_of_ref[j] = i
                    break
    return match_of_ref


def _min_chunk_alignment(adj: Sequence[Sequence[int]], n_ref: int) -> tuple[int, int, bool]:
    """(matches, chunks, exact) for a maximum-cardinality, fewest-chunk alignment.

    exact means the chunk count is proven optimal. Every step inside a chunk
    pairs an edge (i, j) with (i+1, j+1), and distinct steps use distinct i
    and distinct j, so chunks >= max(1, matches - min(Dc, Dr)), where Dc
    (Dr) counts the candidate (reference) positions that start such a pair.
    The run-seeded matching decides first: the longest free diagonal runs,
    augmented to maximum cardinality. Only when it is above that bound is
    the plain maximum matching tried too, and the fewer chunks kept. If
    neither meets the bound, a branch-and-bound search (at most
    _ALIGN_MAX_LEN tokens a side) is seeded with that count. Otherwise, or
    when the search exceeds its node budget, the best alignment found is
    returned with exact = False.
    """
    n_cand = len(adj)
    runs = _diagonal_runs(adj)
    seeded = _max_matching(adj, _longest_runs(adj, runs, n_ref))
    target = n_ref - seeded.count(-1)
    if target == 0:
        return 0, 0, True
    best_chunks = _count_chunks(seeded)
    steps_i = {i + k for i, _, length in runs for k in range(length - 1)}
    steps_j = {j + k for _, j, length in runs for k in range(length - 1)}
    bound = max(1, target - min(len(steps_i), len(steps_j)))
    if best_chunks > bound:
        best_chunks = min(best_chunks, _count_chunks(_max_matching(adj, [-1] * n_ref)))
    if best_chunks == bound or n_cand > _ALIGN_MAX_LEN or n_ref > _ALIGN_MAX_LEN:
        return target, best_chunks, best_chunks == bound

    # suffix_cap[i] = how many candidates at position >= i have any edge;
    # optimistic bound on matches still obtainable from position i onward.
    suffix_cap = [0] * (n_cand + 1)
    for i in range(n_cand - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + (1 if adj[i] else 0)

    used = [False] * n_ref
    nodes = 0

    def dfs(i: int, matched: int, chunks: int, prev_i: int, prev_j: int) -> None:
        nonlocal best_chunks, nodes
        if nodes > _ALIGN_NODE_BUDGET or chunks >= best_chunks or best_chunks == bound:
            return
        nodes += 1
        if nodes > _ALIGN_NODE_BUDGET:
            return
        if matched == target:
            best_chunks = chunks
            return
        if i == n_cand or matched + suffix_cap[i] < target:
            return
        # continuation first: keeping the current run open is the cheapest move
        ordered = adj[i]
        cont = prev_j + 1 if prev_i == i - 1 else -1
        if cont >= 0 and cont in ordered:
            ordered = [cont] + [j for j in ordered if j != cont]
        for j in ordered:
            if not used[j]:
                used[j] = True
                extra = 0 if (prev_i == i - 1 and prev_j == j - 1) else 1
                dfs(i + 1, matched + 1, chunks + extra, i, j)
                used[j] = False
        dfs(i + 1, matched, chunks, prev_i, prev_j)

    dfs(0, 0, 0, -2, -2)
    return target, best_chunks, best_chunks == bound or nodes <= _ALIGN_NODE_BUDGET


def meteor(
    reference: Tokens, candidate: Tokens, synonyms: SynonymLexicon | None = None
) -> MetricScore:
    """METEOR with exact/stem/synonym matching stages.

    Alignment maximizes match count, then minimizes chunk count; the final
    score depends on the alignment only through (matches, chunks).
    """
    ref = _prepared(reference)
    cand = _prepared(candidate)
    adj = _match_edges(cand, ref, synonyms)
    matches, chunks, exact = _min_chunk_alignment(adj, len(ref.norms))
    if matches == 0:  # also when either side is empty
        return MetricScore(0.0, {"matches": 0.0, "chunks": 0.0})
    precision = matches / len(cand.norms)
    recall = matches / len(ref.norms)
    f_mean = (precision * recall) / (METEOR_ALPHA * precision + (1.0 - METEOR_ALPHA) * recall)
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_BETA
    details = {
        "matches": float(matches),
        "chunks": float(chunks),
        "precision": precision,
        "recall": recall,
        "f_mean": f_mean,
        "penalty": penalty,
        "exact_alignment": 1.0 if exact else 0.0,
    }
    return MetricScore(f_mean * (1.0 - penalty), details)


def embedding_average(reference: Tokens, candidate: Tokens, table: EmbeddingTable) -> MetricScore:
    """Cosine between the average embeddings of the two token sequences."""
    u = _prepared(reference).average(table)
    v = _prepared(candidate).average(table)
    value = cosine(u, v)
    return MetricScore(
        value,
        {"ref_support": float(u.support), "cand_support": float(v.support)},
    )
