"""Word-embedding table and sentence-level average-embedding cosine.

Tables use the fastText text format: a "<count> <dim>" header followed by
one "<token> <v1> ... <vdim>" row per word. Files ending in .gz are
transparently decompressed.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .core import Token, open_text


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable norm-token → vector map: norm's vector is row index[norm] of
    one read-only (V, dim) float64 matrix. OOV tokens are skipped on lookup."""

    index: Mapping[str, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.index) or not self.dim:
            raise ValueError(f"need {len(self.index)} rows of dim >= 1, got {self.matrix.shape}")
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, norm: str) -> bool:
        return norm in self.index

    def __len__(self) -> int:
        return len(self.index)

    def get(self, norm: str) -> np.ndarray | None:
        """A read-only view of the row of norm; None when it is out of vocabulary."""
        row = self.index.get(norm)
        return None if row is None else self.matrix[row]

    @classmethod
    def from_dict(cls, vectors: Mapping[str, Iterable[float]]) -> "EmbeddingTable":
        """Build a small table from plain python data; used by tests and demos.
        Each row must be a non-empty flat list of numbers, and is checked as
        `load_vec` checks its rows.
        """
        rows = []
        for word, values in vectors.items():
            try:
                row = np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError):
                row = np.empty(0)
            flat = row.ndim == 1 and row.size
            problem = _row_problem(row) if flat else "not a non-empty flat list of numbers"
            if problem:
                raise ValueError(f"{problem} in {word!r}")
            rows.append(row)
        if len({len(row) for row in rows}) > 1:
            raise ValueError(f"inconsistent vector lengths: {sorted({len(row) for row in rows})}")
        matrix = np.array(rows) if rows else np.zeros((0, 1))
        return cls({word: i for i, word in enumerate(vectors)}, matrix)


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
    the line. Values follow Python `float()` syntax. Kept rows are parsed a
    block at a time into a matrix of one row per `vocab_filter` word
    (without one, it doubles when full), cut at the end.
    """
    path = Path(path)
    index: dict[str, int] = {}
    pending: list[tuple[int, str, str]] = []  # line, token and values of kept rows not parsed yet
    with open_text(path, opener=gzip.open if path.suffix == ".gz" else open) as text:
        parts = text.readline().split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
        try:
            dim = int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line 1: non-integer dimension {parts[1]!r}") from None
        if dim < 1:
            raise ValueError(f"{path}: line 1: dimension must be >= 1")
        matrix = np.empty((1024 if vocab_filter is None else len(vocab_filter), dim))
        for lineno, line in enumerate(text, start=2):
            if line.isspace():
                continue
            # one value per separator after the token; fastText pads some
            # rows with a trailing space before the newline, which adds none
            padded = line.endswith((" \n", " "))
            count = line.count(" ") - padded
            if count != dim:  # a bad value on an earlier line is reported first
                _parse_rows(path, matrix, len(index), pending)
                raise ValueError(f"{path}: line {lineno}: expected {dim} values, got {count}")
            cut = line.find(" ")
            token = line[:cut].casefold()
            if (vocab_filter is not None and token not in vocab_filter) or token in index:
                continue
            row = len(index)
            if row == len(matrix):  # only without vocab_filter; no view of matrix is alive
                matrix.resize((2 * row, dim), refcheck=False)
            index[token] = row
            values = line[cut + 1 : len(line) - padded - line.endswith("\n")]
            pending.append((lineno, token, values))
            if len(pending) == _BLOCK_ROWS:
                _parse_rows(path, matrix, len(index), pending)
        _parse_rows(path, matrix, len(index), pending)
    matrix.resize((len(index), dim), refcheck=False)
    return EmbeddingTable(index, matrix)


#: Kept rows parsed per np.loadtxt call: enough to pay its fixed cost, few
#: enough that the text held next to the matrix stays small.
_BLOCK_ROWS = 64


def _parse_rows(
    path: Path, matrix: np.ndarray, stop: int, pending: list[tuple[int, str, str]]
) -> None:
    """Parse the pending rows into the rows of matrix that end at stop, check
    each in order, then empty pending.

    np.loadtxt parses a block of non-empty printable-ASCII text in one call;
    on such text it accepts no value that float() refuses, with the same
    bits. Any other block, or one loadtxt refuses, is parsed row by row with
    float(), so the syntax and the message of the first bad line are
    float()'s. Elsewhere loadtxt would strip characters such as \x1c, and it
    skips empty rows.
    """
    rows = matrix[stop - len(pending) : stop]
    texts = [values for _, _, values in pending]
    parsed = None
    if texts and all(t and t.isascii() and t.isprintable() for t in texts):
        try:
            parsed = np.loadtxt(
                texts, dtype=np.float64, delimiter=" ", ndmin=2, comments=None, quotechar=None
            )
        except ValueError:
            pass
    bulk = parsed is not None and parsed.shape == rows.shape  # a skipped row would broadcast
    if bulk:
        rows[:] = parsed
    for row, (lineno, token, values) in zip(rows, pending):
        if not bulk:
            try:
                row[:] = np.fromiter(map(float, values.split(" ")), np.float64, count=len(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        problem = _row_problem(row)
        if problem:
            raise ValueError(f"{path}: line {lineno}: {problem} in {token!r}")
    pending.clear()


def average_embedding(tokens: Iterable[Token], table: EmbeddingTable) -> SentenceVector:
    """Arithmetic mean of in-vocabulary token vectors; OOV tokens are skipped.

    The rows of the distinct norms, in first-occurrence order, are scaled by
    their integer counts and summed in that order from +0.0, so duplicating
    the whole sequence scales every intermediate by an exact power of two
    and the result is bit-for-bit unchanged.
    """
    if table is None:
        raise ValueError("average embeddings need an embedding table, got none")
    counts: dict[int, int] = {}
    for tok in tokens:
        if (row := table.index.get(tok.norm)) is not None:
            counts[row] = counts.get(row, 0) + 1
    if not counts:
        return SentenceVector(values=np.zeros(table.dim, dtype=np.float64), support=0)
    total = sum(counts.values())
    rows = table.matrix.take(list(counts), axis=0)
    rows *= np.fromiter(counts.values(), dtype=np.float64, count=len(counts))[:, None]
    acc = np.add.reduce(rows, axis=0, initial=0.0)
    if table.dim == 1:  # reduce sums a lone column pairwise; accumulate keeps the order,
        acc = np.add.accumulate(rows)[-1] + 0.0  # and + 0.0 turns a -0.0 total into +0.0
    acc /= total
    acc.setflags(write=False)
    return SentenceVector(values=acc, support=total)


def cosine(u: SentenceVector, v: SentenceVector) -> float:
    """Cosine similarity in [-1, 1]; 0 when either side is empty or near-zero.
    Values whose norms or dot product leave the float range raise ValueError.
    """
    if u.values.shape != v.values.shape:
        raise ValueError(f"dimension mismatch: {u.values.shape[0]} vs {v.values.shape[0]}")
    if u.support == 0 or v.support == 0:
        return 0.0
    nu = math.sqrt(u.values @ u.values)  # as np.linalg.norm computes it
    nv = math.sqrt(v.values @ v.values)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    denominator = nu * nv
    value = float(u.values @ v.values) / denominator
    if not (math.isfinite(denominator) and math.isfinite(value)):
        raise ValueError("cosine: vector values leave the float range")
    return max(-1.0, min(1.0, value))
