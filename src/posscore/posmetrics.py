"""POS-aware response metrics: PWE, PTLC, and POSSCORE; the metric registry
(`Metric`) that scores a corpus set by set; and the run pipeline that takes
a corpus to its score table (`prepare_corpus`, `score_corpus`).

All three start from the same partition of a tagged response into POS words
(tokens whose tag is in the chosen TagSet) and the remainder. PWE scores
the POS words with a base metric; PTLC additionally scores the POS tag
sequence; POSSCORE combines average-embedding cosines of both partitions
under an exponential length-ratio weight.
"""

from __future__ import annotations

import math
import os
import pickle
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .basemetrics import (
    MetricScore,
    PreparedTokens,
    SynonymLexicon,
    Tokens,
    _prepared,
    bleu_n,
    embedding_average,
    meteor,
)
from .core import DEFAULT_TAG_SET, EvaluationSet, PosTag, TaggedSentence, TagSet, Token, tokenize
from .embed import EmbeddingTable, cosine, load_vec
from .ingest import _unicode, load_external_scores, reservoir_sample
from .postag import load_model, load_tagged, remap_aux_to_verb, tag as run_tagger

#: Base metrics usable inside PWE and PTLC.
BASE_METRIC_IDS = ("bleu1", "bleu2", "bleu3", "bleu4", "meteor", "ea")

_HARD_BASES = frozenset({"bleu1", "bleu2", "bleu3", "bleu4"})


def _tag_symbol(tag: PosTag) -> Token:
    """tag as a token whose norm keeps its capitals (NOUN), which no casefolded word holds."""
    symbol = Token(tag.value)
    object.__setattr__(symbol, "norm", tag.value)
    return symbol


#: One token per POS tag: PTLC scores tag sequences as token sequences.
_TAG_TOKENS = {tag: _tag_symbol(tag) for tag in PosTag}


@dataclass(frozen=True)
class PosSplit:
    """A response's POS words and other words, and its POS tags as tokens."""

    pos_words: PreparedTokens
    non_pos_words: PreparedTokens
    tag_tokens: tuple[Token, ...]


def pos_split(
    sentence: TaggedSentence, tags: TagSet, stems: dict[str, str] | None = None
) -> PosSplit:
    """Partition a tagged response into POS words (tag in tags) and the rest,
    keeping order, as prepared tokens that share the norm -> stem dict stems.
    Raises ValueError for untagged tokens or a tag set that is not a TagSet.
    """
    if not isinstance(sentence, TaggedSentence):
        raise ValueError("POS metrics need a tagged sentence, got untagged tokens")
    if not isinstance(tags, TagSet):
        raise ValueError(f"tag set must be a TagSet, got {tags!r}")
    pos_words: list[Token] = []
    tag_tokens: list[Token] = []
    non_pos_words: list[Token] = []
    for token, tag in sentence:
        if tag in tags:
            pos_words.append(token)
            tag_tokens.append(_TAG_TOKENS[tag])
        else:
            non_pos_words.append(token)
    return PosSplit(
        PreparedTokens(pos_words, stems), PreparedTokens(non_pos_words, stems), tuple(tag_tokens)
    )


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


def _split(prepared: PreparedTokens, tags: TagSet) -> PosSplit:
    """prepared's POS split on tags, kept on it for every POS metric to share."""
    # tags that are not a TagSet, even unhashable ones, miss so that pos_split refuses them
    split = prepared._splits.get(tags) if isinstance(tags, TagSet) else None
    if split is None:
        split = prepared._splits[tags] = pos_split(prepared.tagged, tags, prepared._stem_dict)
    return split


def pwe(
    reference: Tokens,
    candidate: Tokens,
    tags: TagSet,
    base: str,
    table: EmbeddingTable | None = None,
    synonyms: SynonymLexicon | None = None,
) -> MetricScore:
    """POS Word Extraction: run the base metric on the POS words alone."""
    ref = _split(_prepared(reference), tags)
    cand = _split(_prepared(candidate), tags)
    return Metric(base).score(ref.pos_words, cand.pos_words, table, synonyms)


def ptlc(
    reference: Tokens,
    candidate: Tokens,
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
    ref = _split(_prepared(reference), tags)
    cand = _split(_prepared(candidate), tags)
    if base in _HARD_BASES:
        ref_seq = ref.pos_words.tokens + ref.tag_tokens
        cand_seq = cand.pos_words.tokens + cand.tag_tokens
        return bleu_n(ref_seq, cand_seq, int(base[-1]))
    text = Metric(base).score(ref.pos_words, cand.pos_words, table, synonyms)
    tag_score = bleu_n(ref.tag_tokens, cand.tag_tokens, 1)
    return MetricScore(
        text.value + tag_score.value,
        {"text_score": text.value, "tag_score": tag_score.value},
    )


def _pos_fraction(sentence: PreparedTokens, split: PosSplit, count_punct: bool) -> float:
    """The POS-word fraction of a response; with count_punct off, PUNCT-tagged
    tokens are left out of the denominator.
    """
    if count_punct:
        total = len(sentence.tagged)
    else:
        total = sum(1 for tag in sentence.tagged.tags if tag is not PosTag.PUNCT)
    return len(split.pos_words.tokens) / total if total > 0 else 0.0


def posscore(
    reference: Tokens,
    candidate: Tokens,
    tags: TagSet,
    table: EmbeddingTable,
    count_punct: bool = True,
) -> MetricScore:
    """w * S(pos words) + S(non-POS words), with S the average-embedding cosine.

    w depends only on the two POS-word fractions; the degenerate zero-fraction
    conventions are flagged in the details map.
    """
    reference, candidate = _prepared(reference), _prepared(candidate)
    ref, cand = _split(reference, tags), _split(candidate, tags)
    n_ref = _pos_fraction(reference, ref, count_punct)
    n_cand = _pos_fraction(candidate, cand, count_punct)
    weight = pos_weight(n_ref, n_cand)
    s_pos = cosine(ref.pos_words.average(table), cand.pos_words.average(table))
    s_non_pos = cosine(ref.non_pos_words.average(table), cand.non_pos_words.average(table))
    degenerate = n_ref == 0.0 or n_cand == 0.0
    value = weight * s_pos + s_non_pos
    return MetricScore(
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


@dataclass(frozen=True)
class Metric:
    """One metric: a base metric alone, or a POS metric family with its tag
    set (and, for pwe and ptlc, its base metric). It parses and writes the
    metric id, says what the metric needs, and scores it. Fields that do not
    fit raise ValueError: a base id takes no base and no tag set, posscore a
    TagSet and no base, pwe and ptlc a base from BASE_METRIC_IDS and a TagSet.
    """

    family: str  # a base metric id, "posscore", "pwe" or "ptlc"
    base: str | None = None
    tagset: TagSet | None = None

    def __post_init__(self) -> None:
        takes_base = self.family in ("pwe", "ptlc")
        takes_tags = takes_base or self.family == "posscore"
        if (self.base is not None) != takes_base or (self.tagset is not None) != takes_tags:
            raise ValueError(
                f"metric {self.family!r} takes {'a' if takes_base else 'no'} base metric"
                f" and {'a' if takes_tags else 'no'} tag set"
            )
        if takes_tags and not isinstance(self.tagset, TagSet):
            raise ValueError(f"tag set must be a TagSet, got {self.tagset!r}")
        base = self.base if takes_base else self.family
        if self.family != "posscore" and base not in BASE_METRIC_IDS:
            raise ValueError(
                f"unknown base metric {base!r}; expected one of {', '.join(BASE_METRIC_IDS)}"
            )

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
            return cls(head, rest[0], TagSet.parse(rest[1]) if len(rest) == 2 else default_tagset)
        raise ValueError(f"unknown metric id {spec!r}")

    @property
    def metric_id(self) -> str:
        """The id that `parse` reads back. Every POS metric id names its tag
        set, except plain `posscore`, which is POSSCORE on DEFAULT_TAG_SET.
        """
        if self.tagset is None or (self.base is None and self.tagset == DEFAULT_TAG_SET):
            return self.family
        return ":".join(filter(None, (self.family, self.base, self.tagset.name)))

    @property
    def needs_embeddings(self) -> bool:
        return self.family == "posscore" or "ea" in (self.family, self.base)

    @property
    def needs_tags(self) -> bool:
        return self.tagset is not None

    def score(
        self,
        reference: Tokens,
        candidate: Tokens,
        table: EmbeddingTable | None = None,
        synonyms: SynonymLexicon | None = None,
        count_punct: bool = True,
    ) -> MetricScore:
        """Score one candidate against the reference. Each scorer reads only
        the resources it needs. A POS metric takes tagged sentences and a base
        metric tokens or tagged sentences; a PreparedTokens serves both.
        """
        # each scorer is looked up by its module name at call time, so a
        # wrapper bound to that name (the benchmark's tracer) sees the call
        if self.family == "posscore":
            return posscore(reference, candidate, self.tagset, table, count_punct)
        if self.family == "pwe":
            return pwe(reference, candidate, self.tagset, self.base, table, synonyms)
        if self.family == "ptlc":
            return ptlc(reference, candidate, self.tagset, self.base, table, synonyms)
        if self.family == "meteor":
            return meteor(reference, candidate, synonyms)
        if self.family == "ea":
            return embedding_average(reference, candidate, table)
        return bleu_n(reference, candidate, int(self.family[-1]))


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

    Scoring runs set by set. Each response is prepared once, as one
    PreparedTokens that is dropped when its set is done. The only state
    kept for the whole call is the norm -> stem dict, so each distinct word
    is stemmed once. Returns metric id -> set id -> (score a, score b).
    """
    scores: dict[str, dict[str, tuple[float, float]]] = {m.metric_id: {} for m in metrics}
    targets = [(scores[m.metric_id], m) for m in metrics]
    stems: dict[str, str] = {}
    for set_id, *sentences in sets:
        ref, a, b = (PreparedTokens(s, stems) for s in sentences)
        for out, m in targets:
            out[set_id] = (
                m.score(ref, a, table, synonyms, count_punct).value,
                m.score(ref, b, table, synonyms, count_punct).value,
            )
    return scores


# ---------------------------------------------------------------------------
# the run pipeline; each keyword is the `posscore` flag of the same name

#: One evaluation set with what the metrics score for its reference and its
#: two candidates: tagged sentences when the run has a tag source, else the
#: tokenized texts.
Row = tuple[EvaluationSet, Response, Response, Response]


def _texts(corpus: Iterable[EvaluationSet]) -> Iterator[str]:
    """Reference, candidate a and candidate b of each set, in corpus order."""
    for ev in corpus:
        yield from (ev.reference, ev.candidate_a, ev.candidate_b)


def prepare_corpus(
    corpus: Sequence[EvaluationSet], *, tags: str | Path | None = None,
    tagger_model: str | Path | None = None, aux_as_verb: bool = True,
    sample: int | None = None, seed: int = 0,
) -> list[Row]:
    """One row per set of the corpus, or of `sample` sets drawn with `seed`,
    each response read from the tags file, tagged with the tagger model, or
    else tokenized, once. With a tag source and aux_as_verb, AUX folds into VERB.

    A tags file carries three sentences per evaluation set of the whole
    corpus, in corpus order: reference, candidate a, candidate b. Its
    tokenization is authoritative for all metrics in the run. It is refused when
    most picked sentences differ from their texts, as when shifted by a sentence.
    """
    if tags is not None and tagger_model is not None:
        raise ValueError("give --tags or --tagger-model, not both")
    # the sample depends on positions and the seed only: draw it first, and
    # tag or tokenize only the picked sets
    picked = range(len(corpus)) if sample is None else reservoir_sample(
        range(len(corpus)), sample, seed)
    sampled = [corpus[i] for i in picked]
    if tags is not None:
        sentences = load_tagged(tags)
        if len(sentences) != 3 * len(corpus):
            raise ValueError(
                f"{tags}: expected {3 * len(corpus)} sentences "
                f"(3 per evaluation set), found {len(sentences)}"
            )
        sentences = [sentences[3 * i + k] for i in picked for k in range(3)]
        spelled = ("".join(tok.surface for tok, _ in sentence) for sentence in sentences)
        differ = [j for j, (text, surfaces) in enumerate(zip(_texts(sampled), spelled))
                  if "".join(text.split()).casefold() != "".join(surfaces.split()).casefold()]
        if 2 * len(differ) > len(sentences):
            i, k = divmod(differ[0], 3)
            role = ("reference", "candidate a", "candidate b")[k]
            raise ValueError(f"{tags}: sentence {3 * picked[i] + k + 1} does not match the "
                             f"{role} of set {sampled[i].id!r}; {len(differ)} of {len(sentences)} "
                             "sentences differ from --corpus")
    elif tagger_model is not None:
        model = load_model(tagger_model)
        pairs = {}  # one (token, tag) pair per distinct pair of the run
        sentences = [run_tagger(model, tokenize(text), pairs) for text in _texts(sampled)]
    else:
        sentences = [tokenize(text) for text in _texts(sampled)]
    if (tags is not None or tagger_model is not None) and aux_as_verb:
        # in place, so that a sentence and its folded copy are not both kept
        for j, sentence in enumerate(sentences):
            sentences[j] = remap_aux_to_verb(sentence)
    it = iter(sentences)
    return list(zip(sampled, it, it, it))


def _duplicate_bad(row: Row) -> Row:
    """The bad candidate said twice, as tokenize(f"{text} {text}") would give it."""
    ev, *responses = row
    i = 1 if ev.bad_slot == "a" else 2
    bad = responses[i]
    responses[i] = TaggedSentence(bad.items * 2) if isinstance(bad, TaggedSentence) else bad * 2
    return (ev, *responses)


#: Fewest sets per process; a child's fork and table transfer cost 2-7 ms, as 5-20 short sets do.
_MIN_SETS_PER_PROCESS = 100


def _score_in_slices(metrics: Sequence[Metric], sets: list, *resources):
    """`score_sets` on one contiguous slice of sets per process, as `score_corpus` says."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = min(len(os.sched_getaffinity(0)), len(sets) // _MIN_SETS_PER_PROCESS) if can_fork else 1
    if n < 2:
        return score_sets(metrics, sets, *resources)
    bounds = [len(sets) * k // n for k in range(n + 1)]
    children = []  # (pid, read end of the pipe it writes its outcome to)
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            read, write = os.pipe()
            with warnings.catch_warnings():
                # 3.12+ warns of fork() beside threads: numpy's BLAS pool, never called in a child
                warnings.filterwarnings("ignore", ".*multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # leave by os._exit: run no exit handler, flush no inherited buffer
                try:
                    try:
                        outcome = score_sets(metrics, sets[lo:hi], *resources)
                    except BaseException as exc:  # sent with its innermost frame for cli.main
                        exc.posscore_frame = traceback.extract_tb(exc.__traceback__)[-1]
                        outcome = exc
                    with open(write, "wb") as fh:
                        fh.write(pickle.dumps(outcome))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        scores = score_sets(metrics, sets[:bounds[1]], *resources)
    finally:  # every child is waited for, also when this process's slice raised
        sent = []
        for pid, read in children:
            with open(read, "rb") as fh:
                sent.append(fh.read())
            os.waitpid(pid, 0)
    for data in sent:  # empty when the child was killed before it wrote
        outcome = pickle.loads(data) if data else RuntimeError("a scoring process sent nothing")
        if isinstance(outcome, BaseException):
            raise outcome
        for metric_id, column in outcome.items():
            scores[metric_id].update(column)
    return scores


def score_corpus(
    rows: Sequence[Row], metrics: Sequence[Metric], *,
    embeddings: str | Path | None = None, synonyms: str | Path | None = None,
    external_scores: str | Path | None = None, count_punct: bool = True,
    duplicate_bad: bool = False,
) -> tuple[list[EvaluationSet], dict[str, tuple[str, dict[str, tuple[float, float]]]]]:
    """The rows of `prepare_corpus`, scored by `score_sets`: the sampled
    corpus and the score table, metric id -> (tag set name, set id ->
    (score a, score b)), both in id order. Ids without a tag set are the
    base metrics and the external scores, which join as `ext:<file stem>`.
    Only the `.vec` rows its tokens look up are loaded, and `rows` is left as it is.

    Each CPU the process may run on (`taskset -c 0` gives one) scores a contiguous
    slice of at least _MIN_SETS_PER_PROCESS sets: the first here, each other in a
    forked child that exits before the call ends. The table or error is one process's.
    """
    tagged = all(isinstance(r, TaggedSentence) for row in rows for r in row[1:])
    for m in metrics:
        if m.needs_embeddings and embeddings is None:
            raise ValueError(f"metric {m.metric_id!r} requires --embeddings")
        if m.needs_tags and not tagged:
            raise ValueError(
                f"metric {m.metric_id!r} requires a tag source (--tags or --tagger-model)"
            )
    lexicon = SynonymLexicon.load(synonyms) if synonyms is not None else None
    columns = {}
    if external_scores is not None:
        ext_id = f"ext:{Path(external_scores).stem}"  # a stem that is not UTF-8 has surrogates
        _unicode(ext_id, ext_id, f"--external-scores {str(external_scores)!r}")
        ext = load_external_scores(external_scores)
        for ev, *_ in rows:
            if ev.id not in ext:
                raise ValueError(f"{external_scores}: no scores for set {ev.id!r}")
        columns[ext_id] = ("", ext)
    table = None
    if embeddings is not None and any(m.needs_embeddings for m in metrics):
        vocab = {tok.norm for row in rows for r in row[1:]
                 for tok in (r.tokens if isinstance(r, TaggedSentence) else r)}
        table = load_vec(embeddings, vocab_filter=vocab)
        if not table.index:
            raise ValueError(f"{embeddings}: no token of the run has a vector in this file")
    if duplicate_bad:
        rows = [_duplicate_bad(row) for row in rows]
    sets = [(ev.id, ref, a, b) for ev, ref, a, b in rows]
    scores = _score_in_slices(metrics, sets, table, lexicon, count_punct)
    columns.update((m.metric_id, (m.tagset.name if m.tagset else "", scores[m.metric_id]))
                   for m in metrics)
    return sorted((row[0] for row in rows), key=lambda e: e.id), dict(sorted(columns.items()))
