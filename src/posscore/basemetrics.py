"""Reference-based baseline metrics: sentence BLEU-1..4, METEOR, Embedding
Average, plus ingestion of precomputed external score files.

BLEU uses an epsilon floor (1e-9) on zero precision counts instead of a
smoothing schedule, so short responses never hard-zero. METEOR follows the
alpha=0.9, beta=3, gamma=0.5 parameterization with a three-stage matcher
(exact, Porter stem, optional synonym lexicon) and an exact minimum-chunk
alignment for normal sentence lengths.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import Token
from .embed import EmbeddingTable, SentenceVector, average_embedding, cosine
from .stem import porter_stem

BLEU_EPSILON = 1e-9

METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5

# Exact alignment search limits; longer inputs fall back to a heuristic.
_ALIGN_MAX_LEN = 48
_ALIGN_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class MetricScore:
    """A metric value plus optional component breakdown."""

    metric_id: str
    value: float
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"{self.metric_id}: non-finite score {self.value!r}")


class PreparedTokens:
    """A token sequence prepared once for every base metric that scores it.

    Every base metric accepts it wherever it takes tokens. Its Porter stems
    and its average embedding are computed on first use and then kept. The
    stems are looked up in `stems`, a norm -> stem dict that callers may
    share between sequences so that each distinct word is stemmed once.
    The average is kept for the last table it was asked for.
    """

    __slots__ = ("tokens", "norms", "_stem_dict", "_stems", "_table", "_average")

    def __init__(self, tokens: Iterable[Token], stems: dict[str, str] | None = None) -> None:
        self.tokens = tuple(tokens)
        self.norms = [t.norm for t in self.tokens]
        self._stem_dict = {} if stems is None else stems
        self._stems: list[str] | None = None
        self._table: EmbeddingTable | None = None
        self._average: SentenceVector | None = None

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
        if self._average is None or self._table is not table:
            self._average = average_embedding(self.tokens, table)
            self._table = table
        return self._average


Tokens = Sequence[Token] | PreparedTokens


def _prepared(tokens: Tokens) -> PreparedTokens:
    return tokens if isinstance(tokens, PreparedTokens) else PreparedTokens(tokens)


def _ngram_counts(norms: Sequence[str], k: int) -> Counter:
    return Counter(tuple(norms[i : i + k]) for i in range(len(norms) - k + 1))


def bleu_n(reference: Tokens, candidate: Tokens, n: int) -> MetricScore:
    """Sentence-level BLEU-n: clipped k-gram precisions for k=1..n under
    uniform weights, times the brevity penalty. Empty candidate scores 0.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"BLEU order must be in 1..4, got {n}")
    metric_id = f"bleu{n}"
    ref = _prepared(reference).norms
    cand = _prepared(candidate).norms
    if not cand:
        return MetricScore(metric_id, 0.0, {"bp": 0.0, "cand_len": 0.0, "ref_len": float(len(ref))})
    details: dict[str, float] = {
        "ref_len": float(len(ref)),
        "cand_len": float(len(cand)),
    }
    log_sum = 0.0
    for k in range(1, n + 1):
        cand_counts = _ngram_counts(cand, k)
        ref_counts = _ngram_counts(ref, k)
        total = max(len(cand) - k + 1, 0)
        clipped = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        if total > 0:
            p_k = max(float(clipped), BLEU_EPSILON) / total
        else:
            p_k = BLEU_EPSILON
        details[f"p{k}"] = p_k
        log_sum += math.log(p_k) / n
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    details["bp"] = bp
    return MetricScore(metric_id, bp * math.exp(log_sum), details)


class SynonymLexicon:
    """Symmetric word-relatedness set loaded from ``lemma<TAB>synonym`` lines."""

    def __init__(self, pairs: Sequence[tuple[str, str]] = ()) -> None:
        self._pairs: frozenset[tuple[str, str]] = frozenset(
            (a.casefold(), b.casefold()) for a, b in pairs
        )

    def __len__(self) -> int:
        return len(self._pairs)

    def related(self, a: str, b: str) -> bool:
        return (a, b) in self._pairs or (b, a) in self._pairs

    @classmethod
    def load(cls, path: str | Path) -> "SynonymLexicon":
        pairs: list[tuple[str, str]] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2 or not fields[0] or not fields[1]:
                    raise ValueError(
                        f"{path}: line {lineno}: expected 'lemma<TAB>synonym'"
                    )
                pairs.append((fields[0], fields[1]))
        return cls(pairs)


def _match_edges(
    cand: PreparedTokens, ref: PreparedTokens, synonyms: SynonymLexicon | None
) -> list[list[int]]:
    """adj[i] = reference positions j that candidate position i may align to.

    An exact match is also a stem match, so the first two stages are one test.
    """
    ref_words = list(zip(ref.norms, ref.stems))
    adj: list[list[int]] = []
    for cw, cs in zip(cand.norms, cand.stems):
        row = [
            j
            for j, (rw, rs) in enumerate(ref_words)
            if cs == rs or (synonyms is not None and synonyms.related(cw, rw))
        ]
        adj.append(row)
    return adj


def _max_matching(adj: list[list[int]], n_ref: int) -> list[int]:
    """Kuhn's augmenting-path maximum bipartite matching.

    Returns match_of_ref (length n_ref, -1 = free). Deterministic. The
    depth-first search runs on an explicit stack, trying each adj[i] in
    order, so long inputs cannot exhaust the interpreter's recursion limit.
    """
    match_of_ref = [-1] * n_ref
    for root in range(len(adj)):
        visited = [False] * n_ref
        # one [candidate, index of the edge it is trying] per level of the
        # search; a level below follows the candidate matched to that edge
        path = [[root, -1]]
        while path:
            top = path[-1]
            row = adj[top[0]]
            k = top[1] + 1
            while k < len(row) and visited[row[k]]:
                k += 1
            if k == len(row):
                path.pop()
                continue
            top[1] = k
            visited[row[k]] = True
            if match_of_ref[row[k]] == -1:
                for i, edge in path:
                    match_of_ref[adj[i][edge]] = i
                break
            path.append([match_of_ref[row[k]], -1])
    return match_of_ref


def _count_chunks(pairs: list[tuple[int, int]]) -> int:
    """Chunks of an alignment given (cand_pos, ref_pos) pairs in cand order."""
    chunks = 0
    prev: tuple[int, int] | None = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def _min_chunk_alignment(
    adj: list[list[int]], n_ref: int
) -> tuple[int, int, bool]:
    """(matches, chunks, exact) for a maximum-cardinality, fewest-chunk alignment.

    Branch-and-bound over candidate positions in order; the cardinality is
    pinned to the true maximum first, then chunks are minimized. Exceeding
    the node budget degrades to the best alignment found so far (or, failing
    that, the chunk count of a plain maximum matching).
    """
    n_cand = len(adj)
    match_of_ref = _max_matching(adj, n_ref)
    target = sum(1 for i in match_of_ref if i != -1)
    if target == 0:
        return 0, 0, True

    # suffix_cap[i] = how many candidates at position >= i have any edge;
    # optimistic bound on matches still obtainable from position i onward.
    suffix_cap = [0] * (n_cand + 1)
    for i in range(n_cand - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + (1 if adj[i] else 0)

    best_chunks = target + 1
    used = [False] * n_ref
    nodes = 0
    exhausted = False

    def dfs(i: int, matched: int, chunks: int, prev_i: int, prev_j: int) -> None:
        nonlocal best_chunks, nodes, exhausted
        if exhausted or chunks >= best_chunks:
            return
        nodes += 1
        if nodes > _ALIGN_NODE_BUDGET:
            exhausted = True
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

    budget_ok = n_cand <= _ALIGN_MAX_LEN and n_ref <= _ALIGN_MAX_LEN
    if budget_ok:
        dfs(0, 0, 0, -2, -2)
    if not budget_ok or (exhausted and best_chunks > target):
        # fall back to the chunk count of the plain maximum matching
        pairs = sorted((i, j) for j, i in enumerate(match_of_ref) if i != -1)
        return target, _count_chunks(pairs), False
    return target, best_chunks, not exhausted


def meteor(
    reference: Tokens, candidate: Tokens, synonyms: SynonymLexicon | None = None
) -> MetricScore:
    """METEOR with exact/stem/synonym matching stages.

    Alignment maximizes match count, then minimizes chunk count; the final
    score depends on the alignment only through (matches, chunks).
    """
    ref = _prepared(reference)
    cand = _prepared(candidate)
    if not ref.norms or not cand.norms:
        return MetricScore("meteor", 0.0, {"matches": 0.0, "chunks": 0.0})
    adj = _match_edges(cand, ref, synonyms)
    matches, chunks, exact = _min_chunk_alignment(adj, len(ref.norms))
    if matches == 0:
        return MetricScore("meteor", 0.0, {"matches": 0.0, "chunks": 0.0})
    precision = matches / len(cand.norms)
    recall = matches / len(ref.norms)
    f_mean = (precision * recall) / (
        METEOR_ALPHA * precision + (1.0 - METEOR_ALPHA) * recall
    )
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
    return MetricScore("meteor", f_mean * (1.0 - penalty), details)


def embedding_average(
    reference: Tokens, candidate: Tokens, table: EmbeddingTable
) -> MetricScore:
    """Cosine between the average embeddings of the two token sequences."""
    u = _prepared(reference).average(table)
    v = _prepared(candidate).average(table)
    value = cosine(u, v)
    return MetricScore(
        "ea",
        value,
        {"ref_support": float(u.support), "cand_support": float(v.support)},
    )


@dataclass(frozen=True)
class ExternalScoreFile:
    """Precomputed per-candidate scores keyed by (set id, slot)."""

    rows: Mapping[tuple[str, str], float]

    def pair(self, set_id: str) -> tuple[float, float]:
        """Scores for both slots of one set; raises KeyError naming the gap."""
        try:
            return self.rows[(set_id, "a")], self.rows[(set_id, "b")]
        except KeyError:
            missing = [s for s in ("a", "b") if (set_id, s) not in self.rows]
            raise KeyError(
                f"external scores missing slot(s) {','.join(missing)} for set {set_id!r}"
            ) from None


def load_external_scores(path: str | Path) -> ExternalScoreFile:
    """Parse a ``set_id,slot,score`` CSV; duplicates and bad slots are errors."""
    rows: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["set_id", "slot", "score"]:
            raise ValueError(f"{path}: expected header 'set_id,slot,score', got {header}")
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: row {rownum}: expected 3 fields, got {len(row)}")
            set_id, slot, raw = row
            if slot not in ("a", "b"):
                raise ValueError(f"{path}: row {rownum}: slot must be 'a' or 'b', got {slot!r}")
            try:
                score = float(raw)
            except ValueError:
                raise ValueError(f"{path}: row {rownum}: non-numeric score {raw!r}") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}: row {rownum}: non-finite score {raw!r}")
            key = (set_id, slot)
            if key in rows:
                raise ValueError(f"{path}: row {rownum}: duplicate entry for {key}")
            rows[key] = score
    return ExternalScoreFile(rows=rows)
