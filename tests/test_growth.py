"""How each scorer's cost grows with input length.

The cost is counted, not timed: the number of line events that
`sys.settrace` sees in the package's own frames while one call runs. The
inputs are fixed, so the counts repeat exactly on any machine. Doubling
both sides from 60 to 120 tokens (or a statistic's input from 200 to 400
values) may multiply the count by about 4 where the number of match edges
grows quadratically, and by about 2 where the work grows linearly. A search
that rescans what it has already visited shows up as a larger factor.
Tables, lexicons, models and files are built outside the counted call.

Not covered: the worst-case time of METEOR's branch-and-bound search at
its node budget (`basemetrics._ALIGN_NODE_BUDGET`).
"""

import random
import sys
from itertools import product
from pathlib import Path

import pytest

import posscore
from posscore.basemetrics import SynonymLexicon, bleu_n, embedding_average, meteor
from posscore.core import DEFAULT_TAG_SET, TaggedSentence, _chunk_tokens, tokenize
from posscore.embed import EmbeddingTable, load_vec
from posscore.metaeval import AgreementVector, kendall_tau, paired_ttest
from posscore.posmetrics import posscore as posscore_metric, ptlc, pwe
from posscore.postag import load_tagged, tag, train, write_tagged
from posscore.stem import porter_stem

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


def table_for(*texts: str) -> EmbeddingTable:
    """A small table with a distinct row for every word of texts."""
    words = sorted({t.norm for text in texts for t in tokenize(text)})
    rows = {w: [1.0 + k % 7, 2.0 + k % 3, 0.5] for k, w in enumerate(words)}
    return EmbeddingTable.from_dict(rows)


def one_tag(text: str, name: str = "NOUN") -> TaggedSentence:
    return TaggedSentence.from_strings((t.surface, name) for t in tokenize(text))


def on_pair(score, family: str, tagged: bool = False):
    """make(n, tmp_path): the call of score(reference, candidate, table) on family's
    pair at n tokens a side, every token tagged NOUN when tagged.
    """
    def make(n, tmp_path):
        texts = FAMILIES[family][0](n)
        table = table_for(*texts)
        ref, cand = (one_tag(t) if tagged else tokenize(t) for t in texts)
        return lambda: score(ref, cand, table)
    return make


def meteor_every_word_related(n, tmp_path):
    # disjoint words on the two sides, each related to every word of the other
    ref, cand = [f"r{i:03d}" for i in range(n)], [f"c{i:03d}" for i in range(n)]
    lexicon = SynonymLexicon(list(product(ref, cand)))
    ref_tokens, cand_tokens = tokenize(" ".join(ref)), tokenize(" ".join(reversed(cand)))
    return lambda: meteor(ref_tokens, cand_tokens, lexicon)


def values(n, seed, levels=None):
    rng = random.Random(f"{seed}:{n}")
    return [rng.randrange(levels) if levels else rng.random() for _ in range(n)]


def kendall(levels=None):
    def make(n, tmp_path):
        x, y = values(n, 1, levels), values(n, 2, levels)
        return lambda: kendall_tau(x, y)
    return make


def ttest(n, tmp_path):
    ids = tuple(f"s{i}" for i in range(n))
    a, b = (AgreementVector(ids, tuple(values(n, seed, 2))) for seed in (1, 2))
    return lambda: paired_ttest(a, b)


def tokenize_text(n, tmp_path):
    text = " ".join(f"({w}), {w}!" for w in distinct(n // 2))
    _chunk_tokens.cache_clear()  # so that the large text finds no word of the small one cached
    return lambda: tokenize(text)


def tagged_file(n, tmp_path):
    path = tmp_path / f"tags-{n}.tsv"
    write_tagged([one_tag(" ".join(distinct(n)))], path)
    return lambda: load_tagged(path)


def tagger(n, tmp_path):
    model = train([one_tag("the cat sat on a mat", "X"), one_tag("w000 w001 w002")], epochs=1)
    tokens = tokenize(" ".join(distinct(n)))
    return lambda: tag(model, tokens)


def vec_file(n, tmp_path):
    path = tmp_path / f"vectors-{n}.vec"
    words = distinct(n)
    path.write_text(f"{n} 3\n" + "".join(f"{w} 0.5 {k}.25 -1\n" for k, w in enumerate(words)),
                    encoding="utf-8")
    return lambda: load_vec(path, set(words))


def stem_y_run(n, tmp_path):
    word = "y" * n + "ness"
    return lambda: porter_stem(word)


def bleu4(ref, cand, table):
    return bleu_n(ref, cand, 4)


def posscore_default(ref, cand, table):
    return posscore_metric(ref, cand, DEFAULT_TAG_SET, table)


def ptlc_bleu2(ref, cand, table):
    return ptlc(ref, cand, DEFAULT_TAG_SET, "bleu2")


def over_meteor(variant):
    """variant (pwe or ptlc) with METEOR as its base, on the default tag set."""
    return lambda ref, cand, table: variant(ref, cand, DEFAULT_TAG_SET, "meteor", table)


#: scorer and family -> (make(n, tmp_path), n, the largest factor per doubling)
SCORERS = {
    **{f"{name}, {family}": (on_pair(score, family), 60, 2.5)
       for name, score in (("bleu_n 4", bleu4), ("embedding_average", embedding_average))
       for family in ("one word repeated", "distinct words reversed")},
    "posscore, one tag for every token": (
        on_pair(posscore_default, "distinct words reversed", tagged=True), 60, 2.5),
    "ptlc:bleu2, one tag for every token": (
        on_pair(ptlc_bleu2, "distinct words reversed", tagged=True), 60, 2.5),
    **{f"{variant.__name__}:meteor, {family}": (
        on_pair(over_meteor(variant), family, tagged=True), 60, bound)
       for variant in (pwe, ptlc)
       for family, bound in (("a b / b a", 4.5), ("one word repeated", 4.5),
                             ("distinct words reversed", 2.5))},
    "meteor, a lexicon that relates every word": (meteor_every_word_related, 60, 4.5),
    "kendall_tau": (kendall(), 200, 2.5),
    "kendall_tau, with ties": (kendall(levels=5), 200, 2.5),
    "paired_ttest": (ttest, 200, 2.5),
    "tokenize": (tokenize_text, 60, 2.5),
    "load_tagged": (tagged_file, 60, 2.5),
    "postag.tag": (tagger, 60, 2.5),
    "load_vec": (vec_file, 60, 2.5),
    "porter_stem, a run of y": (stem_y_run, 60, 2.5),
}


@pytest.mark.parametrize("case", SCORERS)
def test_cost_per_doubling(case, tmp_path):
    make, n, bound = SCORERS[case]
    small = line_events(make(n, tmp_path))
    large = line_events(make(2 * n, tmp_path))
    assert 0 < small and large / small <= bound, (case, small, large, large / small)
