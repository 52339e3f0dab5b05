"""Meta-evaluation statistics for response metrics.

Predictive power counts per-set sign agreement between a metric's score
difference and the human score difference; paired t-tests compare two
metrics' agreement vectors; Kendall's tau-b correlates two metrics' raw
scores; a POS distribution helper backs the corpus analyses.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .core import EvaluationSet, PosTag, TaggedSentence, TagSet


@dataclass(frozen=True)
class AgreementVector:
    """Per-set {0,1} correctness indicators, aligned with set_ids."""

    set_ids: tuple[str, ...]
    correct: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.set_ids) != len(self.correct):
            raise ValueError("set_ids and correct must have equal length")
        if any(c not in (0, 1) for c in self.correct):
            raise ValueError("correctness indicators must be 0 or 1")

    def __len__(self) -> int:
        return len(self.set_ids)


@dataclass(frozen=True)
class PowerResult:
    """Fraction of evaluation sets where a metric agrees with the human order."""

    metric_id: str
    power: float
    total: int
    correct: int


def predictive_power(
    corpus: Sequence[EvaluationSet],
    scores: Mapping[str, tuple[float, float]],
    metric_id: str = "metric",
) -> tuple[PowerResult, AgreementVector]:
    """Sign-agreement power of one metric over a corpus.

    ``scores`` maps set id to the (candidate_a, candidate_b) metric values.
    A set counts as correct iff the metric difference and the human
    difference have the same strict sign; metric ties are incorrect.
    """
    if not corpus:
        raise ValueError("no evaluation sets")
    ids = []
    flags = []
    n_correct = 0
    for ev in corpus:
        try:
            score_a, score_b = scores[ev.id]
        except KeyError:
            raise ValueError(f"missing scores for evaluation set {ev.id!r}") from None
        delta_x = score_a - score_b
        delta_h = ev.human_a - ev.human_b
        ok = 1 if delta_x * delta_h > 0 else 0
        n_correct += ok
        ids.append(ev.id)
        flags.append(ok)
    total = len(corpus)
    result = PowerResult(
        metric_id=metric_id, power=n_correct / total, total=total, correct=n_correct
    )
    return result, AgreementVector(set_ids=tuple(ids), correct=tuple(flags))


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    # _reg_inc_beta passes x <= (a+1)/(a+b+2), so this d >= 2/(a+b+2) > 0.
    d = 1.0 / (1.0 - qab * x / qap)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + num * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log(1.0 - x) - _log_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t with df > 0."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return _reg_inc_beta(x, df / 2.0, 0.5)


def paired_ttest(a: AgreementVector, b: AgreementVector) -> float:
    """Two-sided paired t-test p-value on per-set indicator differences.

    Reads only n and the counts of +1 and -1 differences, not their order. By
    convention p = 1.0 for identical vectors; 0.0 if all differences are +1 (or -1).
    """
    if a.set_ids != b.set_ids:
        raise ValueError("agreement vectors cover different evaluation sets")
    n = len(a)
    if n < 2:
        raise ValueError("insufficient pairs for a paired t-test (need >= 2)")
    n_plus = sum(ai > bi for ai, bi in zip(a.correct, b.correct))
    n_minus = sum(ai < bi for ai, bi in zip(a.correct, b.correct))
    mean = (n_plus - n_minus) / n
    # n+ (1 - mean)^2 + n- (1 + mean)^2 + n0 mean^2 over an exact integer numerator
    ss = ((n_plus + n_minus) * n - (n_plus - n_minus) ** 2) / n
    if ss == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    sd = math.sqrt(ss / (n - 1))
    t = mean / (sd / math.sqrt(n))
    return student_t_sf2(t, n - 1)


def bonferroni(p: float, comparisons: int) -> float:
    """Bonferroni-corrected p-value, capped at 1."""
    if comparisons < 1:
        raise ValueError("comparisons must be >= 1")
    return min(1.0, p * comparisons)


def _tied_pairs(values: Iterable) -> int:
    return sum(k * (k - 1) // 2 for k in Counter(values).values())


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b (tie-corrected), computed in O(n log n) via Knight's
    algorithm. Degenerate input (all x tied or all y tied) returns 0.0.
    Raises ValueError for values that are not finite.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 observations")
    if not all(map(math.isfinite, chain(x, y))):
        raise ValueError("kendall_tau needs finite values")
    pairs = sorted(zip(x, y))
    n0 = n * (n - 1) // 2
    n1, n2, n3 = _tied_pairs(x), _tied_pairs(y), _tied_pairs(pairs)

    # Discordant pairs = inversions of y after sorting by (x, y); pairs tied
    # in x contribute no inversions because their y values are pre-sorted.
    # A Fenwick tree over the ranks of y counts the earlier values at or below each y.
    rank = {v: r for r, v in enumerate(sorted(set(y)), 1)}
    tree = [0] * (len(rank) + 1)
    discordant = 0
    for seen, (_, value) in enumerate(pairs):
        i = r = rank[value]
        while i:
            discordant -= tree[i]
            i &= i - 1
        discordant += seen
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    concordant_minus_discordant = n0 - n1 - n2 + n3 - 2 * discordant

    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        return 0.0
    return concordant_minus_discordant / denom


def pos_distribution(
    responses: Sequence[TaggedSentence], tags: TagSet
) -> dict[PosTag, float]:
    """Mean per-response count of each tag in the TagSet."""
    if not responses:
        raise ValueError("no responses")
    totals = {tag: 0 for tag in tags.members}
    for sent in responses:
        for _, tag in sent:
            if tag in totals:
                totals[tag] += 1
    n = len(responses)
    return {tag: totals[tag] / n for tag in totals}
