"""POS tag sources: pre-tagged file ingestion and a small trainable
averaged-perceptron tagger.

Pre-tagged data is the reference path; the perceptron exists so the toolkit
works without external NLP dependencies. Training is greedy left-to-right
with averaged weights and is deterministic under a fixed shuffle seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import PosTag, TaggedSentence, Token

_TAGS = tuple(PosTag)  # weights are keyed by index in this order: ints hash in C

_PRIOR_MIN_COUNT = 5

_BOS = "<s>"
_EOS = "</s>"

MODEL_MAGIC = "posscore-tagger-v1"


def _features(
    norms: Sequence[str], surfaces: Sequence[str], i: int, prev_tag: str
) -> list[str]:
    norm = norms[i]
    prev_norm = norms[i - 1] if i > 0 else _BOS
    next_norm = norms[i + 1] if i + 1 < len(norms) else _EOS
    feats = [
        f"w={norm}",
        f"p3={norm[:3]}",
        f"s3={norm[-3:]}",
        f"t-1={prev_tag}",
        f"w-1={prev_norm}",
        f"w+1={next_norm}",
    ]
    if norm.isdigit():
        feats.append("digit")
    if surfaces[i].istitle():
        feats.append("title")
    return feats


@dataclass(frozen=True)
class TaggerModel:
    """Averaged-perceptron weights plus a prior for unambiguous vocabulary.
    `feature_weights` maps a feature to {tag index in PosTag order: weight}.
    """

    feature_weights: Mapping[str, Mapping[int, float]]
    tag_prior: Mapping[str, PosTag]
    iterations_trained: int


def _predict(weights: Mapping[str, Mapping[int, float]], feats: Sequence[str]) -> int:
    """Index of the highest-scoring tag over feats; unweighted tags score 0, ties go low."""
    scores = [0.0] * len(_TAGS)
    for f in feats:
        for i, w in weights.get(f, {}).items():
            scores[i] += w
    return scores.index(max(scores))


def tag(
    model: TaggerModel,
    tokens: Sequence[Token],
    pairs: dict[tuple[str, str], tuple[Token, PosTag]] | None = None,
) -> TaggedSentence:
    """Tag a token sequence; prior-listed tokens bypass the perceptron.

    The (token, tag) pairs are looked up in `pairs`, a (surface, tag name)
    -> pair dict that callers may share across a run, so that each distinct
    pair is held once however often it occurs.
    """
    pairs = {} if pairs is None else pairs
    norms = [t.norm for t in tokens]
    surfaces = [t.surface for t in tokens]
    prev_tag = _BOS
    out = []
    for i, token in enumerate(tokens):
        chosen = model.tag_prior.get(norms[i])
        if chosen is None:
            chosen = _TAGS[_predict(model.feature_weights, _features(norms, surfaces, i, prev_tag))]
        prev_tag = chosen.value
        pair = pairs.get((surfaces[i], prev_tag))
        if pair is None:
            pair = pairs[surfaces[i], prev_tag] = (token, chosen)
        out.append(pair)
    return TaggedSentence(tuple(out))


class _AveragedWeights:
    """Perceptron weights with the lazy-averaging bookkeeping, by tag index."""

    def __init__(self) -> None:
        self.weights: defaultdict[str, dict[int, float]] = defaultdict(dict)
        self._totals: defaultdict[tuple[str, int], float] = defaultdict(float)
        self._stamps: defaultdict[tuple[str, int], int] = defaultdict(int)
        self.instances = 0

    def update(self, truth: int, guess: int, feats: Sequence[str]) -> None:
        self.instances += 1
        if truth == guess:
            return
        for f in feats:
            self._bump(f, truth, +1.0)
            self._bump(f, guess, -1.0)

    def _bump(self, f: str, t: int, delta: float) -> None:
        key = (f, t)
        w = self.weights[f].get(t, 0.0)
        self._totals[key] += (self.instances - self._stamps[key]) * w
        self._stamps[key] = self.instances
        self.weights[f][t] = w + delta

    def averaged(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {}
        for f, tags in self.weights.items():
            row = {}
            for t, w in tags.items():
                key = (f, t)
                total = self._totals[key] + (self.instances - self._stamps[key]) * w
                avg = total / self.instances if self.instances else 0.0
                if avg != 0.0:
                    row[t] = avg
            if row:
                out[f] = row
        return out


def _build_prior(corpus: Sequence[TaggedSentence]) -> dict[str, PosTag]:
    counts: defaultdict[str, Counter] = defaultdict(Counter)
    for sent in corpus:
        for token, t in sent:
            counts[token.norm][t] += 1
    prior = {}
    for norm, tags in counts.items():
        if len(tags) == 1:
            only_tag, n = next(iter(tags.items()))
            if n >= _PRIOR_MIN_COUNT:
                prior[norm] = only_tag
    return prior


def train(
    corpus: Sequence[TaggedSentence], epochs: int, seed: int = 1
) -> TaggerModel:
    """Train the averaged perceptron; deterministic for a fixed seed."""
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    prior = _build_prior(corpus)
    weights = _AveragedWeights()
    rng = random.Random(seed)
    order = list(range(len(corpus)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            sent = corpus[idx]
            norms = [tok.norm for tok, _ in sent]
            surfaces = [tok.surface for tok, _ in sent]
            prev_tag = _BOS
            for i, (token, truth) in enumerate(sent):
                fixed = prior.get(token.norm)
                if fixed is not None:
                    prev_tag = fixed.value
                    continue
                feats = _features(norms, surfaces, i, prev_tag)
                guess = _predict(weights.weights, feats)
                weights.update(_TAGS.index(truth), guess, feats)
                prev_tag = _TAGS[guess].value
    return TaggerModel(weights.averaged(), prior, epochs)


def save_model(model: TaggerModel, path: str | Path) -> None:
    """Serialize a model as a versioned flat text file (canonically sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC}\t{model.iterations_trained}\n")
        for norm in sorted(model.tag_prior):
            fh.write(f"P\t{norm}\t{model.tag_prior[norm].value}\n")
        for feature, row in sorted(model.feature_weights.items()):
            for name, i in sorted((_TAGS[i].value, i) for i in row):
                fh.write(f"W\t{feature}\t{name}\t{row[i]!r}\n")


def load_model(path: str | Path) -> TaggerModel:
    """Read a model file; a bad epoch count or row raises ValueError naming its line."""
    prior: dict[str, PosTag] = {}
    weights: dict[str, dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 2 or header[0] != MODEL_MAGIC:
            raise ValueError(f"{path}: not a {MODEL_MAGIC} model file")
        if not header[1].isdecimal():
            raise ValueError(f"{path}: line 1: bad iteration count {header[1]!r}")
        for lineno, line in enumerate(fh, start=2):
            kind, *fields = line.rstrip("\n").split("\t")
            try:
                if (kind, len(fields)) not in (("P", 2), ("W", 3)):
                    raise ValueError("malformed model row")
                key, i = fields[0], _TAGS.index(PosTag.parse(fields[1]))
                if kind == "P":
                    if key in prior:
                        raise ValueError(f"repeated P row for {key!r}")
                    prior[key] = _TAGS[i]
                    continue
                row = weights.setdefault(key, {})
                if i in row:
                    raise ValueError(f"repeated W row for {key!r} and {fields[1]}")
                row[i] = float(fields[2])
                if not math.isfinite(row[i]):
                    raise ValueError(f"weight must be finite, got {fields[2]!r}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return TaggerModel(weights, prior, int(header[1]))


def load_tagged(path: str | Path) -> list[TaggedSentence]:
    """Parse tab-separated (index, surface, tag) rows; blank lines split
    sentences; unknown tag strings fall back to X. Equal surfaces share one
    Token object, and equal (surface, tag) rows one (token, tag) pair: past
    the file's distinct pairs, a sentence holds one tuple slot per token.
    """
    path = Path(path)
    sentences: list[TaggedSentence] = []
    current: list[tuple[Token, PosTag]] = []
    tokens: dict[str, Token] = {}
    pairs: dict[tuple[str, str], tuple[Token, PosTag]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                if current:
                    sentences.append(TaggedSentence(tuple(current)))
                    current = []
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not fields[1]:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'index<TAB>surface<TAB>tag'"
                )
            try:
                int(fields[0])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer token index {fields[0]!r}"
                ) from None
            key = (fields[1], fields[2])
            pair = pairs.get(key)
            if pair is None:
                surface, tag_text = key
                if surface not in tokens:
                    tokens[surface] = Token(surface)
                try:
                    pos = PosTag.parse(tag_text)
                except ValueError:
                    pos = PosTag.X
                pair = pairs[key] = (tokens[surface], pos)
            current.append(pair)
    if current:
        sentences.append(TaggedSentence(tuple(current)))
    return sentences


def write_tagged(sentences: Iterable[TaggedSentence], path: str | Path) -> None:
    """Inverse of load_tagged: 1-based index, surface, tag; blank-line breaks.
    An empty sentence, which the format cannot hold, raises before the file is opened.
    """
    sentences = list(sentences)
    for n, sent in enumerate(sentences, start=1):
        if not sent:
            raise ValueError(f"{path}: sentence {n} is empty, which the tagged format cannot hold")
    with open(path, "w", encoding="utf-8") as fh:
        first = True
        for sent in sentences:
            if not first:
                fh.write("\n")
            first = False
            for i, (token, t) in enumerate(sent, start=1):
                fh.write(f"{i}\t{token.surface}\t{t.value}\n")


def remap_aux_to_verb(sentence: TaggedSentence) -> TaggedSentence:
    """Collapse AUX into VERB; some tagging conventions label auxiliaries
    as plain verbs and the metrics follow that usage by default. Every
    non-AUX pair object is kept, and a sentence without AUX is returned as
    it is.
    """
    if PosTag.AUX not in sentence.tags:
        return sentence
    return TaggedSentence(
        tuple((pair[0], PosTag.VERB) if pair[1] is PosTag.AUX else pair for pair in sentence)
    )
