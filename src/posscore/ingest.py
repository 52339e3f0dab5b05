"""Corpus ingestion: the canonical JSONL interchange format plus one-way
converters from USR-style annotated JSON and forum-style (vote-based) JSON.

Every loader enforces the global tie-exclusion invariant: no emitted
EvaluationSet has equal human scores.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

from .core import EvaluationSet

log = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class AnnotatedResponse:
    """A response with per-annotator quality scores (1-5 scale)."""

    text: str
    quality_scores: tuple[float, ...]
    is_reference: bool = False

    def __post_init__(self) -> None:
        if not self.is_reference and not self.quality_scores:
            raise ValueError("non-reference response needs at least one quality score")

    @property
    def final_score(self) -> float:
        """The mean score. When the plain sum leaves the float range, the
        scores are scaled by their largest magnitude first, which keeps every
        partial sum within the count and so cannot overflow.
        """
        n = len(self.quality_scores)
        mean = sum(self.quality_scores) / n
        if math.isfinite(mean):
            return mean
        top = max(abs(q) for q in self.quality_scores)
        return top * (sum(q / top for q in self.quality_scores) / n)


@dataclass(frozen=True)
class ForumAnswer:
    """A forum answer with community votes and the accepted-answer flag."""

    text: str
    votes: int
    is_answer: bool

    def __post_init__(self) -> None:
        if self.votes < 0:
            raise ValueError("votes must be >= 0")


def _field(obj, key: str, where: str):
    """obj[key], where obj must be a JSON object holding key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


def _text(obj, key: str, where: str) -> str:
    """obj[key], which must be a JSON string: str() would read null as "None"."""
    value = _field(obj, key, where)
    if not isinstance(value, str):
        raise ValueError(f"{where}: {key!r} must be a string, got {value!r}")
    return value


def _score(value, where: str) -> float:
    """A finite float, parsed as float() parses it (numeric strings and bools
    included); a NaN or infinite score would order its pair silently wrong.
    """
    try:
        score = float(value)
    except (TypeError, ValueError, OverflowError):
        score = math.nan
    if not math.isfinite(score):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return score


def _flag(obj: dict, key: str, where: str) -> bool:
    """obj[key], false when absent; only a JSON boolean is a flag (the string
    "false" would otherwise count as true).
    """
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{where}: {key!r} must be true or false, got {value!r}")
    return value


def _malformed(path: Path, text: str, exc: ValueError, first_line: int = 1) -> ValueError:
    """The error naming the line of path where json.loads rejected text,
    which starts on first_line.

    Besides JSONDecodeError, json.loads raises a plain ValueError without a
    position for an integer longer than CPython's digit limit; the line of
    the first run of that many digits is reported for it.
    """
    if isinstance(exc, json.JSONDecodeError):
        line, msg = exc.lineno, exc.msg
    else:
        long_int = re.search(r"\d{%d}" % (sys.get_int_max_str_digits() + 1), text)
        line, msg = text.count("\n", 0, long_int.start() if long_int else 0) + 1, str(exc)
    return ValueError(f"{path}: line {first_line + line - 1}: malformed JSON ({msg})")


def _json_items(path: Path) -> Iterator[tuple[str, object]]:
    """Each item of the top-level JSON array in path, with its location."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise _malformed(path, text, exc) from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a top-level JSON array")
    for k, item in enumerate(data):
        yield f"{path}: item {k}", item


def _as_context(value, where: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ValueError(f"{where}: 'context' must be a string or a list of strings")


def load_jsonl(path: str | Path) -> list[EvaluationSet]:
    """Load the canonical corpus format: one evaluation set per line.

    Lines whose two human scores are equal are skipped (counted and logged);
    malformed lines raise with their line number, and a repeated set id
    raises naming both lines. An empty result is an error.
    """
    path = Path(path)
    sets: list[EvaluationSet] = []
    first_line: dict[str, int] = {}
    skipped_ties = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise _malformed(path, line, exc, lineno) from None
            set_id = _text(obj, "id", where)
            if set_id in first_line:
                raise ValueError(
                    f"{where}: duplicate set id {set_id!r} (first on line {first_line[set_id]})"
                )
            first_line[set_id] = lineno
            context = _as_context(obj.get("context"), where)
            reference = _text(obj, "reference", where)
            candidates = _field(obj, "candidates", where)
            if not isinstance(candidates, list) or len(candidates) != 2:
                raise ValueError(f"{where}: 'candidates' must list exactly 2 entries")
            texts = []
            humans = []
            for k, cand in enumerate(candidates):
                cwhere = f"{where}: candidates[{k}]"
                texts.append(_text(cand, "text", cwhere))
                humans.append(_score(_field(cand, "human", cwhere), f"{cwhere}: human"))
            if humans[0] == humans[1]:
                skipped_ties += 1
                continue
            sets.append(
                EvaluationSet(
                    id=set_id,
                    context=context,
                    reference=reference,
                    candidate_a=texts[0],
                    candidate_b=texts[1],
                    human_a=humans[0],
                    human_b=humans[1],
                )
            )
    if skipped_ties:
        log.warning("%s: skipped %d tied-score line(s)", path, skipped_ties)
    if not sets:
        raise ValueError(f"{path}: no evaluation sets")
    return sets


def write_jsonl(sets: Sequence[EvaluationSet], path: str | Path) -> None:
    """Write evaluation sets in the canonical JSONL format."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in sets:
            obj = {
                "id": ev.id,
                "context": list(ev.context),
                "reference": ev.reference,
                "candidates": [
                    {"text": ev.candidate_a, "human": ev.human_a},
                    {"text": ev.candidate_b, "human": ev.human_b},
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _pair_sets(
    prefix: str,
    context: tuple[str, ...],
    reference: str,
    scored: Sequence[tuple[int, str, float]],
) -> list[EvaluationSet]:
    """One set `<prefix>-<i>-<j>` per pair of (position, text, score)
    responses with distinct scores, the higher-scored one in slot a.
    """
    sets = []
    for first, second in combinations(scored, 2):
        if first[2] == second[2]:
            continue
        good, bad = (first, second) if first[2] > second[2] else (second, first)
        set_id = f"{prefix}-{first[0]}-{second[0]}"
        sets.append(EvaluationSet(set_id, context, reference, good[1], bad[1], good[2], bad[2]))
    return sets


def build_usr_sets(
    contexts: Sequence[tuple[tuple[str, ...], str, Sequence[AnnotatedResponse]]],
) -> list[EvaluationSet]:
    """Pair up annotated responses per context into evaluation sets.

    Final score = mean of the quality scores. Every unordered pair with
    distinct final scores becomes one set, higher-scored response in slot a.
    Reference-flagged responses never enter pairs; contexts with fewer than
    two scoreable responses are skipped (counted).
    """
    sets: list[EvaluationSet] = []
    skipped_contexts = 0
    for ci, (context, reference, responses) in enumerate(contexts):
        scored = [(k, r.text, r.final_score) for k, r in enumerate(responses) if not r.is_reference]
        if len(scored) < 2:
            skipped_contexts += 1
            continue
        sets += _pair_sets(f"usr-{ci}", context, reference, scored)
    if skipped_contexts:
        log.warning("skipped %d context(s) with < 2 scoreable responses", skipped_contexts)
    return sets


def reservoir_sample(items: Iterable[T], k: int, seed: int) -> list[T]:
    """Uniform sample of k items in stream order (classic Algorithm R)."""
    if k < 1:
        raise ValueError("sample size must be >= 1")
    rng = random.Random(seed)
    reservoir: list[tuple[int, T]] = []
    for idx, item in enumerate(items):
        if idx < k:
            reservoir.append((idx, item))
        else:
            j = rng.randint(0, idx)
            if j < k:
                reservoir[j] = (idx, item)
    reservoir.sort(key=lambda pair: pair[0])
    return [item for _, item in reservoir]


def build_forum_sets(
    dialogues: Sequence[tuple[str, Sequence[ForumAnswer]]],
) -> list[EvaluationSet]:
    """Build evaluation sets from vote-annotated forum dialogues.

    The first accepted answer is the reference; any further accepted answers
    are held out of the candidate pool. Candidate pairs need distinct vote
    counts; the higher-voted answer goes in slot a with raw votes as the
    human scores. Dialogues without a reference or without two distinct-vote
    candidates are skipped (counted).
    """
    sets: list[EvaluationSet] = []
    skipped = 0
    for di, (question, answers) in enumerate(dialogues):
        reference = next((a for a in answers if a.is_answer), None)
        scored = [(k, a.text, float(a.votes)) for k, a in enumerate(answers) if not a.is_answer]
        pairs = []
        if reference is not None:
            context = (question,) if question else ()
            pairs = _pair_sets(f"forum-{di}", context, reference.text, scored)
        if not pairs:
            skipped += 1
        sets += pairs
    if skipped:
        log.warning("skipped %d dialogue(s) unusable for pairing", skipped)
    return sets


def vote_gt_curve(
    dialogues: Sequence[tuple[str, Sequence[ForumAnswer]]],
) -> list[tuple[float, float]]:
    """Fraction of accepted answers per normalized-vote bin.

    An answer's normalized vote is its votes divided by the most votes in its
    dialogue (0 when that is 0). Ten equal-width bins over [0, 1]; each row
    is (bin lower edge, fraction of that bin's answers flagged is_answer).
    Empty bins report 0.
    """
    totals = [0] * 10
    hits = [0] * 10
    for _, answers in dialogues:
        max_votes = max((a.votes for a in answers), default=0)
        for a in answers:
            normalized = a.votes / max_votes if max_votes > 0 else 0.0
            b = min(int(normalized * 10), 9)
            totals[b] += 1
            if a.is_answer:
                hits[b] += 1
    return [
        (b / 10, hits[b] / totals[b] if totals[b] else 0.0) for b in range(10)
    ]


def load_usr_json(
    path: str | Path,
) -> list[tuple[tuple[str, ...], str, list[AnnotatedResponse]]]:
    """Read USR-style annotated data: a JSON array of context objects.

    Each object holds `context` (string or list), `responses` (each with
    `text` and a `quality` score list), and the reference either as a
    top-level `reference` string or as the single response flagged
    `is_reference` (which is then excluded from pairing).
    """
    out = []
    for where, obj in _json_items(Path(path)):
        raw_responses = _field(obj, "responses", where)
        if not isinstance(raw_responses, list):
            raise ValueError(f"{where}: 'responses' must be a list")
        context = _as_context(obj.get("context"), where)
        responses = []
        for k, r in enumerate(raw_responses):
            rwhere = f"{where}: responses[{k}]"
            text = _text(r, "text", rwhere)
            is_ref = _flag(r, "is_reference", rwhere)
            quality = r.get("quality", [])
            if not isinstance(quality, list) or not (quality or is_ref):
                raise ValueError(f"{rwhere}: 'quality' must list one score per annotator")
            responses.append(AnnotatedResponse(
                text=text,
                quality_scores=tuple(
                    _score(q, f"{rwhere}: quality[{i}]") for i, q in enumerate(quality)
                ),
                is_reference=is_ref,
            ))
        if "reference" in obj:
            reference = _text(obj, "reference", where)
        else:
            flagged = [r for r in responses if r.is_reference]
            if len(flagged) != 1:
                raise ValueError(
                    f"{where}: needs a 'reference' field or exactly one "
                    f"is_reference response, found {len(flagged)}"
                )
            reference = flagged[0].text
        out.append((context, reference, responses))
    return out


def load_forum_json(
    path: str | Path,
) -> list[tuple[str, list[ForumAnswer]]]:
    """Read forum-style data: a JSON array of dialogue objects.

    Each object holds `question` (string) and `answers`, each answer with
    `text`, integer `votes`, and boolean `is_answer`.
    """
    out = []
    for where, obj in _json_items(Path(path)):
        raw_answers = _field(obj, "answers", where)
        if not isinstance(raw_answers, list):
            raise ValueError(f"{where}: 'answers' must be a list")
        question = _text(obj, "question", where) if "question" in obj else ""
        answers = []
        for k, a in enumerate(raw_answers):
            awhere = f"{where}: answers[{k}]"
            text = _text(a, "text", awhere)
            votes = _field(a, "votes", awhere)
            if not isinstance(votes, int) or isinstance(votes, bool) or votes < 0:
                raise ValueError(f"{awhere}: 'votes' must be a non-negative integer")
            # the votes become float human scores, so they must fit a float
            _score(votes, f"{awhere}: votes")
            answers.append(ForumAnswer(text, votes, _flag(a, "is_answer", awhere)))
        out.append((question, answers))
    return out
