"""Core domain types: tokens, POS tags, tag sets, and evaluation sets.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import gzip
import io
import re
import string
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator


class PosTag(Enum):
    """Universal coarse part-of-speech tag."""

    ADJ = "ADJ"
    ADV = "ADV"
    VERB = "VERB"
    NOUN = "NOUN"
    PRON = "PRON"
    PROPN = "PROPN"
    AUX = "AUX"
    CONJ = "CONJ"
    DET = "DET"
    INTJ = "INTJ"
    NUM = "NUM"
    PART = "PART"
    PUNCT = "PUNCT"
    SCONJ = "SCONJ"
    SYM = "SYM"
    ADP = "ADP"
    X = "X"

    @classmethod
    def parse(cls, text: str) -> "PosTag":
        """Parse an exact tag symbol; raises ValueError for unknown strings."""
        try:
            return cls[text]
        except KeyError:
            raise ValueError(f"unknown POS tag {text!r}") from None


#: Display order used for canonical TagSet names and report columns.
TAG_DISPLAY_ORDER = (
    PosTag.ADJ,
    PosTag.ADV,
    PosTag.VERB,
    PosTag.PROPN,
    PosTag.NOUN,
    PosTag.PRON,
)

#: The informative and interpretable tags; only these may appear in a TagSet.
ADOPTED_TAGS = frozenset(TAG_DISPLAY_ORDER)


@dataclass(frozen=True)
class TagSet:
    """A subset of the adopted POS tags that parameterizes the POS metrics."""

    members: frozenset[PosTag]

    def __post_init__(self) -> None:
        # any iterable of tags is held as a frozenset, so that the tag set hashes
        members = tuple(self.members) if isinstance(self.members, Iterable) else None
        if members is None or not all(isinstance(t, PosTag) for t in members):
            raise ValueError(f"tag set members must be PosTag values, got {self.members!r}")
        object.__setattr__(self, "members", frozenset(members))
        if not self.members:
            raise ValueError("tag set must not be empty")
        bad = self.members - ADOPTED_TAGS
        if bad:
            names = ", ".join(sorted(t.value for t in bad))
            raise ValueError(f"tag set may only contain adopted tags; got {names}")

    def __contains__(self, tag: PosTag) -> bool:
        return tag in self.members

    @property
    def name(self) -> str:
        """The members in display order, joined by '+', e.g. ``adj+verb``."""
        return "+".join(t.value.lower() for t in TAG_DISPLAY_ORDER if t in self.members)

    @classmethod
    def parse(cls, spec: str) -> "TagSet":
        """Parse a '+'-separated tag list, e.g. ``adj+verb+propn+noun``.

        Names are case-insensitive, and the order given does not matter.
        """
        parts = [p.strip() for p in spec.split("+") if p.strip()]
        return cls(frozenset(PosTag.parse(p.upper()) for p in parts))


#: The tag-set grid used by the experiments, keyed by canonical name.
#: NOUN and PROPN always travel together here because both are nominal.
CANONICAL_TAG_SETS = {
    ts.name: ts
    for ts in map(TagSet.parse, (
        "adj", "adv", "verb", "pron", "propn+noun", "adv+verb", "verb+propn+noun",
        "propn+noun+pron", "adj+propn+noun", "adj+verb+propn+noun", "adj+propn+noun+pron",
        "adv+verb+propn+noun", "adj+adv+propn+noun", "adv+propn+noun+pron",
        "verb+propn+noun+pron", "adj+adv+verb+propn+noun", "adj+adv+verb+propn+noun+pron",
    ))
}

#: Recommended default for the POS metrics.
DEFAULT_TAG_SET = CANONICAL_TAG_SETS["adj+adv+verb+propn+noun"]

#: All six adopted tags.
FULL_TAG_SET = CANONICAL_TAG_SETS["adj+adv+verb+propn+noun+pron"]


@dataclass(frozen=True, slots=True)
class Token:
    """A surface token plus its case-folded form used for matching and lookups."""

    surface: str
    norm: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("token surface must be nonempty")
        object.__setattr__(self, "norm", self.surface.casefold())


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    """An ordered sequence of (token, tag) pairs."""

    items: tuple[tuple[Token, PosTag], ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[tuple[Token, PosTag]]:
        return iter(self.items)

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(tok for tok, _ in self.items)

    @property
    def tags(self) -> tuple[PosTag, ...]:
        return tuple(tag for _, tag in self.items)

    @classmethod
    def from_strings(cls, pairs: Iterable[tuple[str, str]]) -> "TaggedSentence":
        """Build from (surface, tag-name) string pairs; convenient for fixtures."""
        return cls(tuple((Token(s), PosTag.parse(t)) for s, t in pairs))


@dataclass(frozen=True, slots=True)
class EvaluationSet:
    """One ⟨context, reference, candidate pair⟩ unit with human quality signals.

    The two human scores must differ; tied pairs carry no preference signal
    and are excluded upstream.
    """

    id: str
    context: tuple[str, ...]
    reference: str
    candidate_a: str
    candidate_b: str
    human_a: float
    human_b: float

    def __post_init__(self) -> None:
        if self.human_a == self.human_b:
            raise ValueError(f"evaluation set {self.id!r} has tied human scores")

    @property
    def good_slot(self) -> str:
        """Slot letter of the higher-human-score candidate."""
        return "a" if self.human_a > self.human_b else "b"

    @property
    def bad_slot(self) -> str:
        """Slot letter of the lower-human-score candidate."""
        return "b" if self.human_a > self.human_b else "a"


_PUNCT_CHARS = frozenset(string.punctuation)


def tokenize(text: str) -> list[Token]:
    """Split on whitespace, then detach leading/trailing ASCII punctuation.

    Internal punctuation (contractions, hyphenated compounds) stays inside
    the token. Deterministic; empty input yields an empty list. Equal chunks
    share their Token objects, which are immutable; the list is new.
    """
    return [token for chunk in text.split() for token in _chunk_tokens(chunk)]


@lru_cache(maxsize=1 << 14)
def _chunk_tokens(chunk: str) -> tuple[Token, ...]:
    """The tokens of one whitespace chunk; a bounded cache, so each distinct
    word of a run is usually built once.
    """
    start, end = 0, len(chunk)
    while start < end and chunk[start] in _PUNCT_CHARS:
        start += 1
    while end > start and chunk[end - 1] in _PUNCT_CHARS:
        end -= 1
    return tuple(Token(part) for part in (*chunk[:start], chunk[start:end], *chunk[end:]) if part)


@contextmanager
def open_text(
    path, newline: str | None = None, opener: Callable = open
) -> Iterator[io.TextIOWrapper]:
    """Open an input file as UTF-8 text; `opener` opens it in binary (gzip.open
    for a .vec.gz). A byte that is not UTF-8, or gzip data that is cut short
    or damaged, raises ValueError naming the file (and the line of the byte).
    """
    try:
        try:
            with opener(path, "rb") as raw:
                yield io.TextIOWrapper(raw, encoding="utf-8", newline=newline)
        except UnicodeDecodeError as exc:
            # read it again, each bad byte kept as a surrogate, to find its line
            with opener(path, "rb") as raw:
                text = io.TextIOWrapper(raw, "utf-8", "surrogateescape", newline)
                bad = (n for n, line in enumerate(text, 1) if re.search("[\udc80-\udcff]", line))
                lineno = next(bad, "?")
            why = f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
            raise ValueError(f"{path}: line {lineno}: not UTF-8 text ({why})") from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: not a valid gzip file ({exc})") from None
