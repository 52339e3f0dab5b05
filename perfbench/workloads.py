"""Workload shapes and the seeded input generator.

Every input file the program reads is written here from a seed. The
generator uses only ``random.Random`` and numpy's PCG64 stream, so the
same seed and shape give byte-identical files. The tagger model for the
``correlate_long`` workload is trained through the library's own
``train``/``save_model``, which are deterministic for a fixed seed.

Generated files are cached per (workload, seed, shape) under the work
directory, because writing a 50k-row embedding file is not free and is
never part of a measurement. Only the newest few seeds of each workload
are kept.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from bisect import bisect
from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

#: Bump when the generator's output changes for an unchanged shape.
GENERATOR_VERSION = 2

#: Generated seeds kept per workload.
CACHE_ENTRIES = 4


@dataclass(frozen=True)
class Shape:
    """What one workload generates and which command it runs."""

    name: str
    command: str
    metrics: str
    sets: int
    ref_len: tuple[int, int]
    cand_len: tuple[int, int]
    content_words: int
    function_share: float
    vec_coverage: float
    vec_filler_rows: int
    dim: int
    tag_source: str  # "file" (--tags) or "model" (--tagger-model)
    duplicate_bad: bool = False
    train_sentences: int = 0


SHAPES: dict[str, Shape] = {
    # Short responses like the paper's TC/PC corpora, scored with the
    # README's metric mix. Scoring dominates: Porter stemming inside METEOR,
    # then METEOR's exact min-chunk search. The .vec holds only the corpus
    # vocabulary, so vocabulary filtering cannot gain anything here.
    "eval_short": Shape(
        name="eval_short",
        command="evaluate",
        metrics="posscore,pwe:meteor,ptlc:bleu1,bleu1,meteor",
        sets=1000,
        ref_len=(5, 30),
        cand_len=(5, 30),
        content_words=5000,
        function_share=1 / 3,
        vec_coverage=0.97,
        vec_filler_rows=0,
        dim=300,
        tag_source="file",
    ),
    # The real embedding file is far larger than any corpus vocabulary:
    # most rows of the .vec are never looked up, so embedding load
    # dominates set-up, wall time and peak RSS. Stemming and METEOR are
    # bypassed.
    "embed_large": Shape(
        name="embed_large",
        command="score",
        metrics="posscore,ea",
        sets=1000,
        ref_len=(5, 30),
        cand_len=(5, 30),
        content_words=5000,
        function_share=1 / 3,
        vec_coverage=0.97,
        vec_filler_rows=47000,
        dim=300,
        tag_source="file",
    ),
    # Long answers (MSDialog-like) with the length-bias probe: METEOR runs
    # above the exact-search limit and takes the matching fallback, the
    # perceptron tags every sentence, and Kendall tau-b fills the matrix.
    "correlate_long": Shape(
        name="correlate_long",
        command="correlate",
        metrics="bleu1,bleu2,bleu4,ea,meteor,posscore,pwe:bleu2,ptlc:ea",
        sets=200,
        ref_len=(40, 120),
        cand_len=(40, 120),
        content_words=5000,
        function_share=1 / 3,
        vec_coverage=0.97,
        vec_filler_rows=0,
        dim=300,
        tag_source="model",
        duplicate_bad=True,
        train_sentences=600,
    ),
}


def tiny(shape: Shape) -> Shape:
    """A few-set version of a shape, for the benchmark's own tests."""
    return replace(
        shape,
        sets=6,
        content_words=300,
        vec_filler_rows=min(shape.vec_filler_rows, 200),
        dim=8,
        train_sentences=min(shape.train_sentences, 60),
    )


# ---------------------------------------------------------------------------
# vocabulary

_FUNCTION_WORDS = {
    "DET": "the a an this that these those some any every each no my your his her its our their",
    "ADP": "of in to on for with at by from about into over after under between through",
    "PRON": "i you he she it we they me him them us who what something",
    "AUX": "is are was were be been has have had do does did can will would should could may might must",
    "CONJ": "and or but",
    "SCONJ": "if because when while although",
    "PART": "not",
}

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fl gr pl pr sh st tr th ch".split()
_NUCLEI = "a e i o u ai ea ou oo ie".split()
_CODAS = ["", "n", "r", "l", "m", "t", "st", "nd", "rk", "ng", "ck", "sh"]

# Suffix families per class; "" and "s" forms of nouns and verbs are tagged
# by context, which gives the perceptron ambiguous words to resolve.
_SUFFIXES = {
    "NOUN": ["", "s", "ness", "ment", "ation", "er", "ers", "ity"],
    "VERB": ["", "s", "ed", "ing", "ize", "izes", "ized"],
    "ADJ": ["", "ful", "able", "ive", "ous", "al", "est"],
    "ADV": ["ly", "fully", "ably"],
}
_CLASS_WEIGHTS = [("NOUN", 45), ("VERB", 30), ("ADJ", 15), ("ADV", 5), ("PROPN", 5)]
_AMBIGUOUS = {"", "s"}
_VERB_CUES = {"to", "i", "you", "he", "she", "it", "we", "they", "will", "can", "would",
              "should", "could", "may", "might", "must", "do", "does", "did", "not"}


@dataclass
class Vocab:
    """Content words (Zipf-ranked), their stem families, and function words."""

    words: list[str]
    classes: list[str]
    ambiguous: list[bool]
    families: list[list[int]]
    family_of: list[int]
    cum: list[float]
    function_words: list[str]
    function_tags: list[str]
    function_cum: list[float]


def _zipf_cum(n: int, offset: int = 0) -> list[float]:
    """Cumulative Zipf-Mandelbrot weights 1 / (rank + offset)."""
    return list(accumulate(1.0 / (r + 1 + offset) for r in range(n)))


def build_vocab(rng: random.Random, content_words: int) -> Vocab:
    words: list[str] = []
    classes: list[str] = []
    ambiguous: list[bool] = []
    families: list[list[int]] = []
    family_of: list[int] = []
    seen = set(w for ws in _FUNCTION_WORDS.values() for w in ws.split())
    names, weights = zip(*_CLASS_WEIGHTS)
    while len(words) < content_words:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(rng.choices((1, 2, 3), (5, 4, 1))[0])
        )
        cls = rng.choices(names, weights)[0]
        if cls == "PROPN":
            forms = [("", stem.title())]
        else:
            suffixes = rng.sample(_SUFFIXES[cls], min(len(_SUFFIXES[cls]), rng.randint(2, 4)))
            forms = [(s, stem + s) for s in suffixes]
        family = []
        for suffix, word in forms:
            if word.casefold() in seen or len(words) >= content_words:
                continue
            seen.add(word.casefold())
            family.append(len(words))
            family_of.append(len(families))
            words.append(word)
            classes.append(cls)
            ambiguous.append(cls in ("NOUN", "VERB") and suffix in _AMBIGUOUS)
        if family:
            families.append(family)
    # Zipf rank is a seeded permutation, so frequent words come from every class
    perm = list(range(len(words)))
    rng.shuffle(perm)
    new_index = {old: new for new, old in enumerate(perm)}
    fwords, ftags = [], []
    for t, ws in _FUNCTION_WORDS.items():
        for w in ws.split():
            fwords.append(w)
            ftags.append(t)
    forder = list(range(len(fwords)))
    rng.shuffle(forder)
    return Vocab(
        words=[words[i] for i in perm],
        classes=[classes[i] for i in perm],
        ambiguous=[ambiguous[i] for i in perm],
        families=[[new_index[i] for i in fam] for fam in families],
        family_of=[family_of[i] for i in perm],
        # one Zipf law over the whole vocabulary: function words hold the top
        # ranks, so content words start below them. Starting content words at
        # rank 1 would make the top few words absurdly frequent, and the
        # repeats they cause would make each seed's METEOR cost a lottery.
        cum=_zipf_cum(len(words), offset=len(fwords)),
        function_words=[fwords[i] for i in forder],
        function_tags=[ftags[i] for i in forder],
        function_cum=_zipf_cum(len(fwords)),
    )


# ---------------------------------------------------------------------------
# sentences: a sentence is a list of (surface, tag) pairs


class _SentenceMaker:
    def __init__(self, rng: random.Random, vocab: Vocab, function_share: float) -> None:
        self.rng = rng
        self.v = vocab
        self.function_share = function_share

    def _draw(self, cum: list[float]) -> int:
        return bisect(cum, self.rng.random() * cum[-1])

    def word(self) -> tuple[str, int]:
        """(surface, content index or -1 - function index)."""
        if self.rng.random() < self.function_share:
            k = self._draw(self.v.function_cum)
            return self.v.function_words[k], -1 - k
        k = self._draw(self.v.cum)
        return self.v.words[k], k

    def sibling(self, k: int) -> int:
        fam = self.v.families[self.v.family_of[k]]
        return self.rng.choice(fam)

    def tagged(self, items: list[tuple[str, int]]) -> list[tuple[str, str]]:
        """Tag a word sequence and capitalize its first word."""
        out = []
        prev = ""
        for i, (surface, k) in enumerate(items):
            if k < 0:
                t = self.v.function_tags[-1 - k]
            elif self.v.ambiguous[k]:
                t = "VERB" if prev in _VERB_CUES else "NOUN"
            else:
                t = self.v.classes[k]
            if i == 0:
                surface = surface[:1].upper() + surface[1:]
            out.append((surface, t))
            prev = surface.casefold()
        return out

    def fresh(self, lo: int, hi: int) -> list[tuple[str, int]]:
        n = self.rng.randint(lo, hi) - 1
        return [self.word() for _ in range(n)]

    def variant(self, ref: list[tuple[str, int]], lo: int, hi: int, keep: float, swap: float):
        """A candidate derived from the reference: kept words, stem siblings,
        fresh words, an optional swap of two halves, then resized."""
        out = []
        for surface, k in ref:
            r = self.rng.random()
            if r < keep:
                out.append((surface, k))
            elif r < keep + 0.1 and k >= 0:
                s = self.sibling(k)
                out.append((self.v.words[s], s))
            else:
                out.append(self.word())
        if len(out) > 2 and self.rng.random() < swap:
            cut = self.rng.randrange(1, len(out))
            out = out[cut:] + out[:cut]
        n = self.rng.randint(lo, hi) - 1
        while len(out) < n:
            out.append(self.word())
        return out[:n]

    def finish(self, items: list[tuple[str, int]]) -> list[tuple[str, str]]:
        sent = self.tagged(items)
        sent.append((self.rng.choice(".?!"), "PUNCT"))
        return sent


def _text(sent: list[tuple[str, str]]) -> str:
    # final punctuation is attached, as in real text; tokenizing detaches it
    words = [s for s, _ in sent]
    return " ".join(words[:-1]) + words[-1]


def _write_tags(path: Path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(
            "".join(f"{i}\t{s}\t{t}\n" for i, (s, t) in enumerate(sent, start=1))
            for sent in sentences
        ))


def _format_rows(values: np.ndarray) -> np.ndarray:
    """Fixed-width 7-character decimals, space separated, one row per line:
    v >= 0 is written "0.ddddd" (v / 1e5), v < 0 is "-0.dddd" (v / 1e5,
    truncated to four digits)."""
    n, dim = values.shape
    neg = values < 0
    mag = np.where(neg, -values // 10, values)
    buf = np.empty((n, dim, 8), dtype=np.uint8)
    # column c in 2..6 holds the digit of 10**(6 - c) in both layouts
    for c in range(2, 7):
        buf[..., c] = mag // 10 ** (6 - c) % 10 + ord("0")
    buf[..., 0] = np.where(neg, ord("-"), ord("0"))
    buf[..., 1] = np.where(neg, ord("0"), ord("."))
    buf[..., 2] = np.where(neg, ord("."), buf[..., 2])
    buf[..., 7] = ord(" ")
    buf[:, -1, 7] = ord("\n")
    return buf.reshape(n, dim * 8)


def _write_vec(path: Path, tokens: list[str], dim: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        fh.write(f"{len(tokens)} {dim}\n".encode())
        for lo in range(0, len(tokens), 4096):
            chunk = tokens[lo : lo + 4096]
            values = rng.integers(-99999, 100000, size=(len(chunk), dim), dtype=np.int64)
            for tok, row in zip(chunk, _format_rows(values)):
                fh.write(tok.encode("utf-8") + b" " + row.tobytes())


def _filler_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        w = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(rng.randint(2, 4))
        ) + rng.choice(["", "s", "ing", "ed", "ly", "ness"])
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# the workload directory


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload and the facts the benchmark needs."""

    root: Path
    shape: Shape
    seed: int

    @property
    def corpus(self) -> Path:
        return self.root / "corpus.jsonl"

    @property
    def tags(self) -> Path:
        return self.root / "corpus.tags.tsv"

    @property
    def model(self) -> Path:
        return self.root / "tagger.model"

    @property
    def vec(self) -> Path:
        return self.root / "emb.vec"

    @property
    def vocab(self) -> Path:
        """Distinct token norms of the run, one per line (benchmark only)."""
        return self.root / "vocab.txt"

    @property
    def info(self) -> dict:
        return json.loads((self.root / "info.json").read_text())

    def cli_args(self, out: Path) -> list[str]:
        s = self.shape
        args = [s.command, "--corpus", str(self.corpus), "--embeddings", str(self.vec)]
        if s.tag_source == "file":
            args += ["--tags", str(self.tags)]
        else:
            args += ["--tagger-model", str(self.model)]
        if s.duplicate_bad:
            args.append("--duplicate-bad")
        return args + ["--metrics", s.metrics, "--out", str(out)]


def shape_key(shape: Shape, seed: int) -> str:
    blob = json.dumps([GENERATOR_VERSION, seed, asdict(shape)], sort_keys=True)
    return f"{shape.name}-{seed}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


def generate(shape: Shape, seed: int, cache: Path) -> Inputs:
    """Write (or reuse) the inputs of one workload for one seed."""
    root = cache / shape_key(shape, seed)
    inputs = Inputs(root, shape, seed)
    if (root / "info.json").exists():
        return inputs
    tmp = root.with_name(root.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    _generate_into(shape, seed, Inputs(tmp, shape, seed))
    shutil.rmtree(root, ignore_errors=True)
    tmp.rename(root)
    # keep the newest few seeds per workload: an embed_large entry is ~120 MB
    entries = sorted(cache.glob(f"{shape.name}-*"), key=lambda p: p.stat().st_mtime)
    for old in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(old, ignore_errors=True)
    return inputs


def _generate_into(shape: Shape, seed: int, out: Inputs) -> None:
    rng = random.Random(seed)
    vocab = build_vocab(rng, shape.content_words)
    maker = _SentenceMaker(rng, vocab, shape.function_share)
    corpus_lines = []
    tagged = []
    for i in range(shape.sets):
        ref = maker.fresh(*shape.ref_len)
        good = maker.variant(ref, *shape.cand_len, keep=0.6, swap=0.3)
        bad = maker.variant(ref, *shape.cand_len, keep=0.3, swap=0.5)
        sents = [maker.finish(ref), maker.finish(good), maker.finish(bad)]
        h_good = round(rng.uniform(3.01, 5.0), 2)
        h_bad = round(rng.uniform(1.0, 2.99), 2)
        if rng.random() < 0.5:
            cands, humans = (sents[1], sents[2]), (h_good, h_bad)
        else:
            cands, humans = (sents[2], sents[1]), (h_bad, h_good)
        tagged += [sents[0], cands[0], cands[1]]
        corpus_lines.append(json.dumps({
            "id": f"s{i:05d}",
            "context": [],
            "reference": _text(sents[0]),
            "candidates": [
                {"text": _text(cands[0]), "human": humans[0]},
                {"text": _text(cands[1]), "human": humans[1]},
            ],
        }))
    out.corpus.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    if shape.tag_source == "file":
        _write_tags(out.tags, tagged)
    else:
        _train_model(maker, shape, seed, out)

    norms = sorted({s.casefold() for sent in tagged for s, _ in sent})
    out.vocab.write_text("\n".join(norms) + "\n", encoding="utf-8")
    covered = [w for w in norms if rng.random() < shape.vec_coverage]
    rows = covered + _filler_words(rng, shape.vec_filler_rows, set(norms))
    rng.shuffle(rows)
    _write_vec(out.vec, rows, shape.dim, seed)
    info = {
        "shape": asdict(shape),
        "seed": seed,
        "sets": shape.sets,
        "tokens": sum(len(s) for s in tagged),
        "distinct_norms": len(norms),
        "vec_rows": len(rows),
        "vec_rows_in_vocab": len(covered),
    }
    (out.root / "info.json").write_text(json.dumps(info, indent=1) + "\n")


def _train_model(maker: _SentenceMaker, shape: Shape, seed: int, out: Inputs) -> None:
    """Write a tagged training file and a model trained on it by the library."""
    from posscore.postag import load_tagged, save_model, train

    train_path = out.root / "train.tags.tsv"
    sents = [maker.finish(maker.fresh(5, 40)) for _ in range(shape.train_sentences)]
    _write_tags(train_path, sents)
    model = train(load_tagged(train_path), epochs=3, seed=seed)
    save_model(model, out.model)
