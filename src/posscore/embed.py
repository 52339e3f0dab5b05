"""Word-embedding table and sentence-level average-embedding cosine.

Tables use the fastText text format: a "<count> <dim>" header followed by
one "<token> <v1> ... <vdim>" row per word. Files ending in .gz are
transparently decompressed.
"""

from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .core import Token


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable norm-token → vector map. OOV tokens are skipped on lookup."""

    dim: int
    vectors: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")

    def __contains__(self, norm: str) -> bool:
        return norm in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, norm: str) -> np.ndarray | None:
        return self.vectors.get(norm)

    @classmethod
    def from_dict(cls, vectors: Mapping[str, Iterable[float]]) -> "EmbeddingTable":
        """Build a small table from plain python data; used by tests and demos.
        Rows are checked as `load_vec` checks them.
        """
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}
        dims = {a.shape for a in arrays.values()}
        if len(dims) > 1:
            raise ValueError(f"inconsistent vector lengths: {sorted(dims)}")
        dim = next(iter(dims))[0] if arrays else 1
        for k, a in arrays.items():
            problem = _row_problem(a)
            if problem:
                raise ValueError(f"{problem} in {k!r}")
            a.setflags(write=False)
        return cls(dim=dim, vectors=arrays)


def _row_problem(vec: np.ndarray) -> str | None:
    """Why `cosine` could not use this row (it squares the values), or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(vec @ vec):
            return None
    return "squared norm past the float range" if np.isfinite(vec).all() else "non-finite value"


@dataclass(frozen=True)
class SentenceVector:
    """Average embedding of a token sequence plus its in-vocabulary count."""

    values: np.ndarray
    support: int

    def __post_init__(self) -> None:
        if self.support < 0:
            raise ValueError("support must be >= 0")
        if self.support == 0 and np.any(self.values != 0.0):
            raise ValueError("zero-support vector must be all zeros")


def load_vec(path: str | Path, vocab_filter: set[str] | None = None) -> EmbeddingTable:
    """Load a fastText-style text embedding file.

    Token keys are casefolded; when casefolding collides, the first
    occurrence wins. With `vocab_filter` set, only rows whose casefolded
    token is in it are kept, and the values of the other rows are never
    parsed. Every row's value count is still checked against the header
    dimension: a mismatch, or in a kept row a non-numeric or non-finite
    value or a squared norm past the float range, raises ValueError naming
    the line.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    vectors: dict[str, np.ndarray] = {}
    with opener(path, "rb") as raw:
        text = io.TextIOWrapper(raw, encoding="utf-8")
        header = text.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
        try:
            dim = int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line 1: non-integer dimension {parts[1]!r}") from None
        if dim < 1:
            raise ValueError(f"{path}: line 1: dimension must be >= 1")
        for lineno, line in enumerate(text, start=2):
            if line.isspace():
                continue
            # one value per separator after the token; fastText pads some
            # rows with a trailing space before the newline, which adds none
            count = line.count(" ") - line.endswith((" \n", " "))
            if count != dim:
                raise ValueError(f"{path}: line {lineno}: expected {dim} values, got {count}")
            cut = line.find(" ")
            token = line[:cut].casefold()
            if vocab_filter is not None and token not in vocab_filter:
                continue
            if token in vectors:
                continue
            fields = line[cut + 1 :].rstrip("\n").split(" ", dim)[:dim]
            try:
                vec = np.fromiter(map(float, fields), dtype=np.float64, count=dim)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            problem = _row_problem(vec)
            if problem:
                raise ValueError(f"{path}: line {lineno}: {problem} in {token!r}")
            vec.setflags(write=False)
            vectors[token] = vec
    return EmbeddingTable(dim=dim, vectors=vectors)


def average_embedding(tokens: Iterable[Token], table: EmbeddingTable) -> SentenceVector:
    """Arithmetic mean of in-vocabulary token vectors; OOV tokens are skipped.

    The sum is grouped by distinct norm (first-occurrence order) with integer
    counts, so duplicating the whole sequence scales every intermediate by an
    exact power of two and the result is bit-for-bit unchanged.
    """
    counts: dict[str, int] = {}
    for tok in tokens:
        if tok.norm in table:
            counts[tok.norm] = counts.get(tok.norm, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return SentenceVector(values=np.zeros(table.dim, dtype=np.float64), support=0)
    acc = np.zeros(table.dim, dtype=np.float64)
    for norm, count in counts.items():
        acc += count * table.vectors[norm]
    acc /= total
    acc.setflags(write=False)
    return SentenceVector(values=acc, support=total)


def cosine(u: SentenceVector, v: SentenceVector) -> float:
    """Cosine similarity in [-1, 1]; 0 when either side is empty or near-zero.
    Values whose norms or dot product leave the float range raise ValueError.
    """
    if u.values.shape != v.values.shape:
        raise ValueError(
            f"dimension mismatch: {u.values.shape[0]} vs {v.values.shape[0]}"
        )
    if u.support == 0 or v.support == 0:
        return 0.0
    nu = float(np.linalg.norm(u.values))
    nv = float(np.linalg.norm(v.values))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    denominator = nu * nv
    value = float(np.dot(u.values, v.values)) / denominator
    if not (math.isfinite(denominator) and math.isfinite(value)):
        raise ValueError("cosine: vector values leave the float range")
    return max(-1.0, min(1.0, value))
