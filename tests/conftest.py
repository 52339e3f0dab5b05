"""Shared fixtures: toy embeddings, synthetic tagged sentences, and a small
on-disk workspace (corpus, tags, vectors, external scores) for CLI tests.
"""

from __future__ import annotations

import gzip
import json
import random

import numpy as np
import pytest

from posscore.core import PosTag, TaggedSentence, Token, tokenize
from posscore.embed import EmbeddingTable
from posscore.postag import write_tagged

# Fixed single-tag vocabulary used by synthetic sentences and the CLI corpus.
FIXED_TAGS = {
    "the": "DET",
    "a": "DET",
    "cat": "NOUN",
    "dog": "NOUN",
    "bird": "NOUN",
    "mat": "NOUN",
    "roof": "NOUN",
    "sat": "VERB",
    "ran": "VERB",
    "flew": "VERB",
    "quickly": "ADV",
    "slowly": "ADV",
    "very": "ADV",
    "big": "ADJ",
    "small": "ADJ",
    "happy": "ADJ",
    "it": "PRON",
    "she": "PRON",
    "paris": "PROPN",
    "london": "PROPN",
    "on": "ADP",
    "in": "ADP",
    "is": "AUX",
    "was": "AUX",
    ".": "PUNCT",
    ",": "PUNCT",
}

#: Words carrying an adopted tag under the full six-tag set.
ADOPTED_WORDS = [
    w for w, t in FIXED_TAGS.items()
    if t in ("ADJ", "ADV", "VERB", "NOUN", "PRON", "PROPN")
]
NON_ADOPTED_WORDS = [w for w in FIXED_TAGS if w not in ADOPTED_WORDS and w not in (".", ",")]


def tag_text(text: str) -> TaggedSentence:
    """Deterministically tag a text over the fixed vocabulary."""
    pairs = []
    for tok in tokenize(text):
        try:
            tag = FIXED_TAGS[tok.norm]
        except KeyError:
            raise AssertionError(f"fixture text uses unknown word {tok.norm!r}") from None
        pairs.append((tok, PosTag[tag]))
    return TaggedSentence(tuple(pairs))


def random_tagged_sentence(
    rng: random.Random, min_len: int = 1, max_len: int = 10, vocab=None
) -> TaggedSentence:
    words = vocab if vocab is not None else list(FIXED_TAGS)
    n = rng.randint(min_len, max_len)
    picks = [rng.choice(words) for _ in range(n)]
    return TaggedSentence(
        tuple((Token(w), PosTag[FIXED_TAGS[w]]) for w in picks)
    )


@pytest.fixture(scope="session")
def toy_table() -> EmbeddingTable:
    """Deterministic positive vectors for the fixed vocabulary, dim 6."""
    rng = np.random.default_rng(20210915)
    vectors = {
        w: rng.uniform(0.1, 1.0, size=6) for w in FIXED_TAGS if w not in (".", ",")
    }
    # punctuation embedded too, so non-POS partitions stay in-vocabulary
    vectors["."] = rng.uniform(0.1, 1.0, size=6)
    vectors[","] = rng.uniform(0.1, 1.0, size=6)
    return EmbeddingTable.from_dict(vectors)


CORPUS_ROWS = [
    {
        "id": "s1",
        "context": ["where did the cat go ?"],
        "reference": "The cat sat on the mat.",
        "candidates": [
            {"text": "A cat sat on a mat.", "human": 5.0},
            {"text": "It was very happy.", "human": 2.0},
        ],
    },
    {
        "id": "s2",
        "context": ["what about the dog ?"],
        "reference": "The dog ran quickly in Paris.",
        "candidates": [
            {"text": "It slowly flew on the roof.", "human": 1.0},
            {"text": "The dog ran in Paris.", "human": 4.0},
        ],
    },
    {
        "id": "s3",
        "context": [],
        "reference": "A small bird flew on the roof.",
        "candidates": [
            {"text": "The small bird flew quickly.", "human": 4.0},
            {"text": "The big dog sat.", "human": 3.0},
        ],
    },
    {
        "id": "s4",
        "context": ["and in london ?"],
        "reference": "She was very happy in London.",
        "candidates": [
            {"text": "She is happy in London.", "human": 5.0},
            {"text": "A cat ran.", "human": 1.0},
        ],
    },
    {
        "id": "s5",
        "context": [],
        "reference": "The big cat sat on the roof, very slowly.",
        "candidates": [
            {"text": "It sat on the roof.", "human": 2.0},
            {"text": "The big cat sat slowly.", "human": 4.0},
        ],
    },
    {
        "id": "s6",
        "context": [],
        "reference": "The bird is small.",
        "candidates": [
            {"text": "The bird is very small.", "human": 5.0},
            {"text": "Paris is big.", "human": 2.0},
        ],
    },
]


def write_vec_file(path, dim: int = 6) -> None:
    rng = np.random.default_rng(20210915)
    words = [w for w in FIXED_TAGS if w not in (".", ",")]
    rows = {w: rng.uniform(0.1, 1.0, size=dim) for w in words}
    rows["."] = rng.uniform(0.1, 1.0, size=dim)
    rows[","] = rng.uniform(0.1, 1.0, size=dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {dim}\n")
        for w, vec in rows.items():
            fh.write(w + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def vec_words(path) -> set[str]:
    """The casefolded token of every row of a .vec or .vec.gz file: the
    vocabulary with which `load_vec` keeps every row."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        next(fh, None)
        return {line.split(" ", 1)[0].casefold() for line in fh if not line.isspace()}


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """On-disk fixture set: corpus.jsonl, tags.tsv, vectors.vec, external.csv,
    synonyms.tsv, usr.json, forum.json.
    """
    root = tmp_path_factory.mktemp("workspace")

    corpus = root / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for row in CORPUS_ROWS:
            fh.write(json.dumps(row) + "\n")

    tags = root / "tags.tsv"
    sentences = []
    for row in CORPUS_ROWS:
        sentences.append(tag_text(row["reference"]))
        sentences.append(tag_text(row["candidates"][0]["text"]))
        sentences.append(tag_text(row["candidates"][1]["text"]))
    write_tagged(sentences, tags)

    vec = root / "vectors.vec"
    write_vec_file(vec)

    external = root / "external.csv"
    with open(external, "w", encoding="utf-8") as fh:
        fh.write("set_id,slot,score\n")
        rng = random.Random(11)
        for row in CORPUS_ROWS:
            for slot_idx, slot in enumerate(("a", "b")):
                human = row["candidates"][slot_idx]["human"]
                fh.write(f"{row['id']},{slot},{human + rng.uniform(-0.4, 0.4)!r}\n")

    synonyms = root / "synonyms.tsv"
    with open(synonyms, "w", encoding="utf-8") as fh:
        fh.write("big\tlarge\n")
        fh.write("quickly\tfast\n")

    usr = root / "usr.json"
    usr_data = [
        {
            "context": ["how is the weather ?"],
            "reference": "The bird flew on the roof.",
            "responses": [
                {"text": "The bird flew quickly.", "quality": [5, 4, 5]},
                {"text": "A dog sat on the mat.", "quality": [2, 2, 3]},
                {"text": "It was very happy.", "quality": [3, 3, 3]},
            ],
        },
        {
            "context": [],
            "reference": "She ran in London.",
            "responses": [
                {"text": "She ran quickly in London.", "quality": [5, 5, 4]},
                {"text": "The cat sat.", "quality": [1, 2, 2]},
            ],
        },
    ]
    usr.write_text(json.dumps(usr_data), encoding="utf-8")

    forum = root / "forum.json"
    forum_data = [
        {
            "question": "why did the cat sit on the mat ?",
            "answers": [
                {"text": "The cat sat on the mat.", "votes": 9, "is_answer": True},
                {"text": "A big cat sat slowly.", "votes": 7, "is_answer": False},
                {"text": "It flew on the roof.", "votes": 2, "is_answer": False},
                {"text": "Paris is big.", "votes": 0, "is_answer": False},
            ],
        },
        {
            "question": "where is the dog ?",
            "answers": [
                {"text": "The dog ran in Paris.", "votes": 5, "is_answer": True},
                {"text": "The dog is in London.", "votes": 5, "is_answer": False},
                {"text": "A bird flew.", "votes": 1, "is_answer": False},
            ],
        },
    ]
    forum.write_text(json.dumps(forum_data), encoding="utf-8")

    return root
