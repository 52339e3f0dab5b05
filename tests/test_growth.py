"""How METEOR's cost grows with input length.

The cost is counted, not timed: the number of line events that
`sys.settrace` sees in the package's own frames while one `meteor` call
runs. The inputs are fixed, so the counts repeat exactly on any machine.
Doubling both sides from 60 to 120 tokens may multiply the count by about
4 where the number of match edges grows quadratically, and by about 2 where
it grows linearly. A search that rescans what it has already visited shows
up as a larger factor.
"""

import sys
from pathlib import Path

import pytest

import posscore
from posscore.basemetrics import meteor
from posscore.core import tokenize

PACKAGE = str(Path(posscore.__file__).parent)


def line_events(call) -> int:
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def outer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(outer)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def cost(reference: str, candidate: str) -> int:
    ref, cand = tokenize(reference), tokenize(candidate)
    return line_events(lambda: meteor(ref, cand))


def repeat(pattern: str, n: int) -> str:
    words = pattern.split()
    return " ".join(words[i % len(words)] for i in range(n))


def distinct(n: int) -> list[str]:
    return [f"w{i:03d}" for i in range(n)]


FAMILIES = {
    # (reference, candidate) at n tokens a side, and the largest factor per doubling
    "a b / b a": (lambda n: (repeat("a b", n), repeat("b a", n)), 4.5),
    "a a b / b a a": (lambda n: (repeat("a a b", n), repeat("b a a", n)), 4.5),
    "one word repeated": (lambda n: (repeat("a", n), repeat("a", n)), 4.5),
    "distinct words reversed": (
        lambda n: (" ".join(distinct(n)), " ".join(reversed(distinct(n)))), 2.5),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_meteor_cost_per_doubling(family):
    make, bound = FAMILIES[family]
    small, large = cost(*make(60)), cost(*make(120))
    assert large / small <= bound, (family, small, large, large / small)
