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
    one read-only (V, dim) matrix divided by scale; the matrix holds float64
    values with scale 1.0, or int32 codes with a power-of-ten scale (see
    `_store`). OOV tokens are skipped on lookup."""

    index: Mapping[str, int]
    matrix: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.index) or not self.dim:
            raise ValueError(f"need {len(self.index)} rows of dim >= 1, got {self.matrix.shape}")
        dtype, scale = self.matrix.dtype, self.scale
        if not (dtype == np.float64 and scale == 1.0 or dtype == np.int32 and scale in _SCALES):
            raise ValueError(f"need a float64 matrix with scale 1.0 or an int32 one with scale "
                             f"10**d, d in 0..9; got {dtype} with scale {scale!r}")
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, norm: str) -> bool:
        return norm in self.index

    def __len__(self) -> int:
        return len(self.index)

    def get(self, norm: str) -> np.ndarray | None:
        """A read-only float64 copy of norm's decoded row; None when it is out
        of vocabulary."""
        row = self.index.get(norm)
        if row is None:
            return None
        values = self.matrix[row] / self.scale
        values.setflags(write=False)
        return values

    @classmethod
    def from_dict(cls, vectors: Mapping[str, Iterable[float]]) -> "EmbeddingTable":
        """Build a small table from plain python data; used by tests and demos.
        Each key must be casefolded, as the norms that look it up are, and
        each row a non-empty flat list of numbers, checked as `load_vec`
        checks its rows.
        """
        rows = []
        for word, values in vectors.items():
            if word != word.casefold():
                raise ValueError(f"{word!r} is not casefolded, so no token could look it up")
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


def load_vec(path: str | Path, vocab_filter: set[str]) -> EmbeddingTable:
    """Load a fastText-style text embedding file.

    Token keys are casefolded; when casefolding collides, the first
    occurrence wins. Only rows whose casefolded token is in `vocab_filter`
    are kept, and the values of the other rows are never parsed. Every
    row's value count is still checked against the header dimension: a
    mismatch, or in a kept row a non-numeric or non-finite value or a
    squared norm past the float range, raises ValueError naming the line.
    Values follow Python `float()` syntax. Kept rows are parsed a block at a
    time and stored in a matrix of one row per `vocab_filter` word, cut at
    the end: as int32 codes when a power-of-ten scale holds every value
    exactly, as in a file of decimals, else as float64 (`_store`).
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
        matrix = np.empty((0, dim), np.int32)
        scale = 1.0  # picked by the first block
        for lineno, line in enumerate(text, start=2):
            if line.isspace():
                continue
            # one value per separator after the token; fastText pads some
            # rows with a trailing space before the newline, which adds none
            padded = line.endswith((" \n", " "))
            count = line.count(" ") - padded
            if count != dim:  # a bad value on an earlier line is reported first
                _parse_rows(path, dim, pending)
                raise ValueError(f"{path}: line {lineno}: expected {dim} values, got {count}")
            cut = line.find(" ")
            token = line[:cut].casefold()
            if token not in vocab_filter or token in index:
                continue
            row = len(index)
            if not row:  # allocated only once a row has passed its value-count check
                matrix = np.empty((len(vocab_filter), dim), np.int32)
            index[token] = row
            values = line[cut + 1 : len(line) - padded - line.endswith("\n")]
            pending.append((lineno, token, values))
            if len(pending) == _BLOCK_ROWS:
                matrix, scale = _store(matrix, scale, len(index), _parse_rows(path, dim, pending))
        matrix, scale = _store(matrix, scale, len(index), _parse_rows(path, dim, pending))
    matrix.resize((len(index), dim), refcheck=False)
    return EmbeddingTable(index, matrix, scale)


#: Kept rows parsed per np.loadtxt call: enough to pay its fixed cost, few
#: enough that the text held next to the matrix stays small.
_BLOCK_ROWS = 64


def _parse_rows(path: Path, dim: int, pending: list[tuple[int, str, str]]) -> np.ndarray:
    """Parse the pending rows into a float64 (len(pending), dim) array, check
    each in order, empty pending and return the array.

    np.loadtxt parses a block of non-empty printable-ASCII text in one call;
    on such text it accepts no value that float() refuses, with the same
    bits. Any other block, or one loadtxt refuses, is parsed row by row with
    float(), so the syntax and the message of the first bad line are
    float()'s. Elsewhere loadtxt would strip characters such as \x1c, and it
    skips empty rows.
    """
    texts = [values for _, _, values in pending]
    rows = None
    if texts and all(t and t.isascii() and t.isprintable() for t in texts):
        try:
            rows = np.loadtxt(
                texts, dtype=np.float64, delimiter=" ", ndmin=2, comments=None, quotechar=None
            )
        except ValueError:
            pass
    bulk = rows is not None and rows.shape == (len(pending), dim)  # loadtxt skips an empty row
    if not bulk:
        rows = np.empty((len(pending), dim))
    for row, (lineno, token, values) in zip(rows, pending):
        if not bulk:
            try:
                row[:] = np.fromiter(map(float, values.split(" ")), np.float64, count=dim)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        problem = _row_problem(row)
        if problem:
            raise ValueError(f"{path}: line {lineno}: {problem} in {token!r}")
    pending.clear()
    return rows


#: The scales of an int32 matrix: 10**d for d in 0..9, each an exact double.
_SCALES = tuple(float(10**d) for d in range(10))


def _store(
    matrix: np.ndarray, scale: float, stop: int, rows: np.ndarray
) -> tuple[np.ndarray, float]:
    """Store the parsed rows in the rows of matrix that end at stop; return
    the matrix and its scale, both of which may change.

    An int32 matrix holds a value v as the code q = rint(v * scale), kept
    only when |q| < 2**31 and q / scale == v, so dividing by the scale gives
    v back exactly; a -0.0 comes back as 0.0, which no sum from +0.0 can
    tell apart. The first block (it ends at stop == len(rows)) picks the
    smallest scale in _SCALES that holds all its values. When none does, or a
    later block does not fit the scale, the matrix turns float64 with scale
    1.0, the rows stored so far decoded exactly, and stays so.
    """
    start = stop - len(rows)
    if matrix.dtype == np.int32:
        for s in _SCALES if start == 0 else (scale,):
            codes = np.rint(rows * s)
            if (np.abs(codes) < 2**31).all() and (codes / s == rows).all():
                matrix[start:stop] = codes
                return matrix, s
        matrix = matrix / scale if start else np.empty(matrix.shape)
    matrix[start:stop] = rows
    return matrix, 1.0


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
    rows = table.matrix.take(list(counts), axis=0) / table.scale  # the values as parsed
    if total > len(counts):  # some word repeats
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
    nu = math.sqrt(u.values @ u.values)  # as np.linalg.norm computes it
    nv = math.sqrt(v.values @ v.values)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    denominator = nu * nv
    value = float(u.values @ v.values) / denominator
    if not (math.isfinite(denominator) and math.isfinite(value)):
        raise ValueError("cosine: vector values leave the float range")
    return max(-1.0, min(1.0, value))
