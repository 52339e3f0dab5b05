"""POS-aware response metrics: PWE, PTLC, and POSSCORE, and the metric
registry that scores a corpus set by set.

All three start from the same partition of a tagged response into POS words
(tokens whose tag is in the chosen TagSet) and the remainder. PWE scores
the POS words with a base metric; PTLC additionally scores the POS tag
sequence; POSSCORE combines average-embedding cosines of both partitions
under an exponential length-ratio weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .basemetrics import (
    MetricScore,
    PreparedTokens,
    SynonymLexicon,
    bleu_n,
    embedding_average,
    meteor,
)
from .core import PosTag, TaggedSentence, TagSet, Token
from .embed import EmbeddingTable, cosine

#: Base metrics usable inside PWE and PTLC.
BASE_METRIC_IDS = ("bleu1", "bleu2", "bleu3", "bleu4", "meteor", "ea")

_HARD_BASES = frozenset({"bleu1", "bleu2", "bleu3", "bleu4"})


@dataclass(frozen=True)
class PosSplit:
    """One response partitioned into POS words and the rest."""

    pos_words: tuple[Token, ...]
    pos_tags: tuple[PosTag, ...]
    non_pos_words: tuple[Token, ...]


def pos_split(sentence: TaggedSentence, tags: TagSet) -> PosSplit:
    """Partition a tagged response into POS words (tag in tags) and the rest,
    keeping order.
    """
    pos_words: list[Token] = []
    pos_tags: list[PosTag] = []
    non_pos_words: list[Token] = []
    for token, tag in sentence:
        if tag in tags:
            pos_words.append(token)
            pos_tags.append(tag)
        else:
            non_pos_words.append(token)
    return PosSplit(tuple(pos_words), tuple(pos_tags), tuple(non_pos_words))


def pos_weight(n_ref: float, n_cand: float) -> float:
    """w = exp(1 - n_ref/n_cand), with continuous-limit conventions at zero.

    n_cand = 0 with n_ref > 0 gives 0; both zero gives the neutral 1;
    n_ref = 0 with n_cand > 0 gives e. The open range (0, e) holds whenever
    both fractions are strictly positive.
    """
    for name, value in (("n_ref", n_ref), ("n_cand", n_cand)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    if n_cand == 0.0:
        return 0.0 if n_ref > 0.0 else 1.0
    if n_ref == 0.0:
        return math.e
    return math.exp(1.0 - n_ref / n_cand)


#: One token per POS tag: PTLC scores tag sequences as token sequences.
_TAG_TOKENS = {tag: Token(tag.value) for tag in PosTag}


class PreparedSplit(NamedTuple):
    """A prepared sentence's POS split, with both sides as prepared tokens."""

    pos_words: PreparedTokens
    non_pos_words: PreparedTokens
    tag_tokens: tuple[Token, ...]


class PreparedSentence(PreparedTokens):
    """A tagged response prepared once for every metric that scores it.

    Every public scorer accepts it wherever it takes tokens or a
    TaggedSentence. On top of the prepared tokens it keeps one `pos_split`
    per tag set asked for, with the POS words and the other words as
    prepared tokens that share the sentence's stem dict, so their average
    embeddings are computed once.
    """

    __slots__ = ("tagged", "_splits")

    def __init__(self, tagged: TaggedSentence, stems: dict[str, str] | None = None) -> None:
        super().__init__(tagged.tokens, stems)
        self.tagged = tagged
        self._splits: dict[TagSet, PreparedSplit] = {}

    def split(self, tags: TagSet) -> PreparedSplit:
        prepared = self._splits.get(tags)
        if prepared is None:
            split = pos_split(self.tagged, tags)
            prepared = self._splits[tags] = PreparedSplit(
                PreparedTokens(split.pos_words, self._stem_dict),
                PreparedTokens(split.non_pos_words, self._stem_dict),
                tuple(_TAG_TOKENS[t] for t in split.pos_tags),
            )
        return prepared


Sentence = TaggedSentence | PreparedSentence


def _prepared(sentence: Sentence) -> PreparedSentence:
    return sentence if isinstance(sentence, PreparedSentence) else PreparedSentence(sentence)


def _score_base(
    base: str,
    reference: PreparedTokens,
    candidate: PreparedTokens,
    table: EmbeddingTable | None,
    synonyms: SynonymLexicon | None,
) -> MetricScore:
    if base not in BASE_METRIC_IDS:
        raise ValueError(f"unknown base metric {base!r}; expected one of {BASE_METRIC_IDS}")
    if base == "ea" and table is None:
        raise ValueError("base metric 'ea' requires an embedding table")
    return SCORERS[base](reference, candidate, table=table, synonyms=synonyms)


def pwe(
    reference: Sentence,
    candidate: Sentence,
    tags: TagSet,
    base: str,
    table: EmbeddingTable | None = None,
    synonyms: SynonymLexicon | None = None,
) -> MetricScore:
    """POS Word Extraction: run the base metric on the POS words alone."""
    ref = _prepared(reference).split(tags)
    cand = _prepared(candidate).split(tags)
    inner = _score_base(base, ref.pos_words, cand.pos_words, table, synonyms)
    return MetricScore(f"pwe:{base}:{tags.name}", inner.value, inner.details)


def ptlc(
    reference: Sentence,
    candidate: Sentence,
    tags: TagSet,
    base: str,
    table: EmbeddingTable | None = None,
    synonyms: SynonymLexicon | None = None,
) -> MetricScore:
    """POS Tag Linear Combination.

    With an n-gram base the POS words and the tag symbols are concatenated
    into one sequence per side and scored once (hard variant). With meteor
    or ea, the base score on the POS words and a BLEU-1 score on the tag
    sequences are added, unweighted (soft variant).
    """
    ref = _prepared(reference).split(tags)
    cand = _prepared(candidate).split(tags)
    metric_id = f"ptlc:{base}:{tags.name}"
    if base in _HARD_BASES:
        ref_seq = ref.pos_words.tokens + ref.tag_tokens
        cand_seq = cand.pos_words.tokens + cand.tag_tokens
        inner = bleu_n(ref_seq, cand_seq, int(base[-1]))
        return MetricScore(metric_id, inner.value, inner.details)
    text = _score_base(base, ref.pos_words, cand.pos_words, table, synonyms)
    tag_score = bleu_n(ref.tag_tokens, cand.tag_tokens, 1)
    return MetricScore(
        metric_id,
        text.value + tag_score.value,
        {"text_score": text.value, "tag_score": tag_score.value},
    )


def _pos_fraction(sentence: PreparedSentence, split: PreparedSplit, count_punct: bool) -> float:
    """The POS-word fraction of a response; with count_punct off, PUNCT-tagged
    tokens are left out of the denominator.
    """
    if count_punct:
        total = len(sentence.tagged)
    else:
        total = sum(1 for tag in sentence.tagged.tags if tag is not PosTag.PUNCT)
    return len(split.pos_words.tokens) / total if total > 0 else 0.0


def posscore(
    reference: Sentence,
    candidate: Sentence,
    tags: TagSet,
    table: EmbeddingTable,
    count_punct: bool = True,
) -> MetricScore:
    """w * S(pos words) + S(non-POS words), with S the average-embedding cosine.

    w depends only on the two POS-word fractions; the degenerate zero-fraction
    conventions are flagged in the details map.
    """
    reference, candidate = _prepared(reference), _prepared(candidate)
    ref, cand = reference.split(tags), candidate.split(tags)
    n_ref = _pos_fraction(reference, ref, count_punct)
    n_cand = _pos_fraction(candidate, cand, count_punct)
    weight = pos_weight(n_ref, n_cand)
    s_pos = cosine(ref.pos_words.average(table), cand.pos_words.average(table))
    s_non_pos = cosine(ref.non_pos_words.average(table), cand.non_pos_words.average(table))
    degenerate = n_ref == 0.0 or n_cand == 0.0
    value = weight * s_pos + s_non_pos
    return MetricScore(
        "posscore",
        value,
        {
            "w": weight,
            "s_pos": s_pos,
            "s_non_pos": s_non_pos,
            "n_ref": n_ref,
            "n_cand": n_cand,
            "degenerate_weight": 1.0 if degenerate else 0.0,
        },
    )


#: The metric registry: every metric family by the head of its id. Each
#: scorer takes (reference, candidate) and the run's resources by keyword.
SCORERS: dict[str, Callable[..., MetricScore]] = {
    "bleu1": lambda r, c, **_: bleu_n(r, c, 1),
    "bleu2": lambda r, c, **_: bleu_n(r, c, 2),
    "bleu3": lambda r, c, **_: bleu_n(r, c, 3),
    "bleu4": lambda r, c, **_: bleu_n(r, c, 4),
    "meteor": lambda r, c, synonyms, **_: meteor(r, c, synonyms),
    "ea": lambda r, c, table, **_: embedding_average(r, c, table),
    "pwe": lambda r, c, tags, base, table, synonyms, **_: pwe(r, c, tags, base, table, synonyms),
    "ptlc": lambda r, c, tags, base, table, synonyms, **_: ptlc(r, c, tags, base, table, synonyms),
    "posscore": lambda r, c, tags, table, count_punct, **_: posscore(
        r, c, tags, table, count_punct
    ),
}


@dataclass(frozen=True)
class Metric:
    """A parsed metric id: a base metric alone, or a POS metric family with
    its tag set (and, for pwe and ptlc, its base metric).
    """

    family: str  # a key of SCORERS
    base: str | None = None
    tagset: TagSet | None = None

    @classmethod
    def parse(cls, spec: str, default_tagset: TagSet) -> Metric:
        """The metric that a metric id names: a base id, `posscore[:<tagset>]`
        or `pwe|ptlc:<base>[:<tagset>]`. A POS metric without a tag set gets
        default_tagset. Raises ValueError for a malformed id.
        """
        spec = spec.strip()
        if spec in BASE_METRIC_IDS:
            return cls(spec)
        head, *rest = spec.split(":")
        if head == "posscore":
            if len(rest) > 1:
                raise ValueError(f"malformed metric id {spec!r}")
            return cls(head, tagset=TagSet.parse(rest[0]) if rest else default_tagset)
        if head in ("pwe", "ptlc"):
            if len(rest) not in (1, 2):
                raise ValueError(f"{head} needs the form {head}:<base>[:<tagset>], got {spec!r}")
            base = rest[0]
            if base not in BASE_METRIC_IDS:
                raise ValueError(
                    f"unknown base metric {base!r}; expected one of {', '.join(BASE_METRIC_IDS)}"
                )
            return cls(head, base, TagSet.parse(rest[1]) if len(rest) == 2 else default_tagset)
        raise ValueError(f"unknown metric id {spec!r}")

    @property
    def metric_id(self) -> str:
        if self.base is not None and self.tagset is not None:
            return f"{self.family}:{self.base}:{self.tagset.name}"
        return self.family

    @property
    def needs_embeddings(self) -> bool:
        return self.family == "posscore" or "ea" in (self.family, self.base)

    @property
    def needs_tags(self) -> bool:
        return self.tagset is not None


#: A response as `score_sets` takes it: tagged, or a token list when no metric needs tags.
Response = TaggedSentence | Sequence[Token]


def score_sets(
    metrics: Sequence[Metric],
    sets: Iterable[tuple[str, Response, Response, Response]],
    table: EmbeddingTable | None = None,
    synonyms: SynonymLexicon | None = None,
    count_punct: bool = True,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Score every metric on both candidates of each (id, ref, a, b) set.

    Scoring runs set by set. Each response is prepared once, and the
    prepared form is dropped when its set is done. Tagged sentences become
    PreparedSentence and token lists become PreparedTokens. The only state
    kept for the whole call is the norm -> stem dict, so each distinct word
    is stemmed once. Returns metric id -> set id -> (score a, score b).
    """
    resources = {"table": table, "synonyms": synonyms, "count_punct": count_punct}
    scorers = {
        m.metric_id: functools.partial(SCORERS[m.family], tags=m.tagset, base=m.base, **resources)
        for m in metrics
    }
    scores: dict[str, dict[str, tuple[float, float]]] = {mid: {} for mid in scorers}
    stems: dict[str, str] = {}
    for set_id, *sentences in sets:
        ref, a, b = (
            PreparedSentence(s, stems) if isinstance(s, TaggedSentence) else PreparedTokens(s, stems)
            for s in sentences
        )
        for mid, score in scorers.items():
            scores[mid][set_id] = (score(ref, a).value, score(ref, b).value)
    return scores
