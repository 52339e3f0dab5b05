"""Core domain types: tokens, POS tags, tag sets, and evaluation sets.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


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


#: The informative and interpretable tags; only these may appear in a TagSet.
ADOPTED_TAGS = frozenset(
    {PosTag.ADJ, PosTag.ADV, PosTag.VERB, PosTag.NOUN, PosTag.PRON, PosTag.PROPN}
)

#: Display order used for canonical TagSet names and report columns.
TAG_DISPLAY_ORDER = (
    PosTag.ADJ,
    PosTag.ADV,
    PosTag.VERB,
    PosTag.PROPN,
    PosTag.NOUN,
    PosTag.PRON,
)


@dataclass(frozen=True)
class TagSet:
    """A named subset of the adopted POS tags that parameterizes the POS metrics."""

    name: str
    members: frozenset[PosTag]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("tag set must not be empty")
        bad = self.members - ADOPTED_TAGS
        if bad:
            names = ", ".join(sorted(t.value for t in bad))
            raise ValueError(f"tag set may only contain adopted tags; got {names}")

    def __contains__(self, tag: PosTag) -> bool:
        return tag in self.members

    @staticmethod
    def canonical_name(members: Iterable[PosTag]) -> str:
        ordered = [t for t in TAG_DISPLAY_ORDER if t in set(members)]
        return "+".join(t.value.lower() for t in ordered)

    @classmethod
    def parse(cls, spec: str) -> "TagSet":
        """Parse a '+'-separated tag list, e.g. ``adj+verb+propn+noun``.

        Names are case-insensitive and the result carries the canonical name
        regardless of the order given.
        """
        parts = [p.strip() for p in spec.split("+") if p.strip()]
        if not parts:
            raise ValueError("empty tag set string")
        members = frozenset(PosTag.parse(p.upper()) for p in parts)
        return cls(cls.canonical_name(members), members)


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


@dataclass(frozen=True)
class Token:
    """A surface token plus its case-folded form used for matching and lookups."""

    surface: str
    norm: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("token surface must be nonempty")
        object.__setattr__(self, "norm", self.surface.casefold())


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    the token. Deterministic; empty input yields an empty list.
    """
    out: list[Token] = []
    for chunk in text.split():
        start, end = 0, len(chunk)
        while start < end and chunk[start] in _PUNCT_CHARS:
            start += 1
        while end > start and chunk[end - 1] in _PUNCT_CHARS:
            end -= 1
        out.extend(Token(c) for c in chunk[:start])
        if start < end:
            out.append(Token(chunk[start:end]))
        out.extend(Token(c) for c in chunk[end:])
    return out
