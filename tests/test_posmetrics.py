import math
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from posscore.basemetrics import PreparedTokens, bleu_n, embedding_average, meteor
from posscore.core import ADOPTED_TAGS, PosTag, TaggedSentence, TagSet, Token
from posscore.embed import EmbeddingTable
from posscore.posmetrics import (
    BASE_METRIC_IDS,
    Metric,
    pos_split,
    pos_weight,
    posscore,
    ptlc,
    pwe,
    score_sets,
)

from conftest import random_tagged_sentence, tag_text

NOUN_VERB = TagSet.parse("verb+noun")
FULL = TagSet.parse("adj+adv+verb+propn+noun+pron")
DEFAULT = TagSet.parse("adj+adv+verb+propn+noun")


def tagged(*pairs):
    return TaggedSentence(tuple((Token(w), PosTag[t]) for w, t in pairs))


class TestPosSplit:
    def test_fraction_and_partition(self, toy_table):
        s = tag_text("The big cat sat on the mat .")
        split = pos_split(s, DEFAULT)
        assert [t.norm for t in split.pos_words.tokens] == ["big", "cat", "sat", "mat"]
        assert len(split.pos_words.tokens) + len(split.non_pos_words.tokens) == len(s) == 8
        details = posscore(s, s, DEFAULT, toy_table).details
        assert details["n_ref"] == details["n_cand"] == pytest.approx(0.5)

    def test_count_punct_off_shrinks_denominator(self, toy_table):
        s = tag_text("The cat sat .")
        assert len(s) == 4 and len(pos_split(s, DEFAULT).pos_words.tokens) == 2
        on = posscore(s, s, DEFAULT, toy_table).details
        off = posscore(s, s, DEFAULT, toy_table, count_punct=False).details
        assert off["n_ref"] == off["n_cand"] == pytest.approx(2 / 3)
        assert on["n_ref"] == on["n_cand"] == pytest.approx(0.5)

    def test_true_partition_preserving_order(self):
        sent = TaggedSentence.from_strings(
            [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB"), (".", "PUNCT")]
        )
        split = pos_split(sent, TagSet.parse("noun+verb"))
        assert [t.surface for t in split.pos_words.tokens] == ["cat", "sat"]
        assert [t.norm for t in split.tag_tokens] == ["NOUN", "VERB"]
        assert [t.surface for t in split.non_pos_words.tokens] == ["the", "."]
        # every token lands on exactly one side
        assert len(split.pos_words.tokens) + len(split.non_pos_words.tokens) == len(sent)

    def test_monotone_in_tagset(self):
        sent = TaggedSentence.from_strings(
            [("big", "ADJ"), ("dogs", "NOUN"), ("run", "VERB"), ("fast", "ADV")]
        )
        small = pos_split(sent, TagSet.parse("noun")).pos_words.tokens
        large = pos_split(sent, TagSet.parse("noun+verb+adj+adv")).pos_words.tokens
        assert {t.surface for t in small} <= {t.surface for t in large}

    def test_empty_sentence(self, toy_table):
        empty = TaggedSentence(())
        for count_punct in (True, False):
            details = posscore(empty, empty, DEFAULT, toy_table, count_punct).details
            assert details["n_ref"] == 0.0 and details["n_cand"] == 0.0

    def test_empty_sentence_splits_to_nothing(self):
        split = pos_split(TaggedSentence(()), DEFAULT)
        assert split.pos_words.tokens == () and split.tag_tokens == () and split.non_pos_words.tokens == ()


class TestPosWeight:
    def test_equal_fractions(self):
        assert pos_weight(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        assert pos_weight(0.4, 0.8) == pytest.approx(1.6487, abs=1e-4)

    def test_zero_candidate(self):
        assert pos_weight(0.6, 0.0) == 0.0

    def test_both_zero_neutral(self):
        assert pos_weight(0.0, 0.0) == 1.0

    def test_zero_reference(self):
        assert pos_weight(0.0, 0.7) == math.e

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pos_weight(1.5, 0.5)
        with pytest.raises(ValueError):
            pos_weight(0.5, -0.1)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @example(n_ref=0.9999999999999999, n_cand=1.0)
    def test_branch_law(self, n_ref, n_cand):
        w = pos_weight(n_ref, n_cand)
        assert w == math.exp(1 - n_ref / n_cand)
        # within an ulp or so of 1, exp(1 - n_ref/n_cand) rounds to exactly 1.0
        strict = abs(1 - n_ref / n_cand) > 1e-15
        if n_ref > n_cand:
            assert w < 1.0 if strict else w <= 1.0
        elif n_ref == n_cand:
            assert w == pytest.approx(1.0)
        else:
            assert w > 1.0 if strict else w >= 1.0
        assert 0.0 < w < math.e or w == pytest.approx(math.e)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.9),
    )
    def test_monotone(self, n_ref, n_cand):
        # increasing in n_cand, decreasing in n_ref
        assert pos_weight(n_ref, n_cand + 0.05) > pos_weight(n_ref, n_cand)
        assert pos_weight(n_ref + 0.05, n_cand) < pos_weight(n_ref, n_cand)


WATER_PAIRS = [
    ("it", "PRON"), ("is", "VERB"), ("from", "ADP"), ("our", "PRON"),
    ("evolution", "NOUN"), ("when", "ADV"), ("land", "NOUN"),
    ("animals", "NOUN"), ("had", "VERB"), ("both", "DET"),
    ("gills", "NOUN"), ("and", "CONJ"), ("lungs", "NOUN"),
]


class TestPwe:
    def test_no_pos_words_either_side(self):
        ref = tagged(("the", "DET"), ("on", "ADP"))
        cand = tagged(("a", "DET"))
        assert pwe(ref, cand, NOUN_VERB, "bleu1").value == 0.0

    def test_identity_ea(self, toy_table):
        s = tag_text("the big cat sat quickly .")
        score = pwe(s, s, FULL, "ea", table=toy_table)
        assert score.value == pytest.approx(1.0, abs=1e-12)
        assert Metric("pwe", "ea", FULL).metric_id == f"pwe:ea:{FULL.name}"

    def test_noun_deletion_brevity(self):
        ref = TaggedSentence(tuple((Token(w), PosTag[t]) for w, t in WATER_PAIRS))
        cand = TaggedSentence(
            tuple((Token(w), PosTag[t]) for w, t in WATER_PAIRS if w != "gills")
        )
        score = pwe(ref, cand, NOUN_VERB, "bleu1")
        # 7 POS words vs 6, perfect precision, pure brevity penalty
        assert score.value == pytest.approx(0.846, abs=1e-3)
        assert score.value == pytest.approx(math.exp(1 - 7 / 6), abs=1e-12)

    def test_metric_id_embeds_base_and_tagset(self):
        s = tag_text("the cat sat")
        m = Metric("pwe", "bleu2", NOUN_VERB)
        assert m.metric_id == "pwe:bleu2:verb+noun"
        assert m.score(s, s) == pwe(s, s, NOUN_VERB, "bleu2")

    def test_unknown_base(self):
        s = tag_text("the cat")
        with pytest.raises(ValueError):
            pwe(s, s, NOUN_VERB, "rouge")

    def test_ea_requires_table(self):
        s = tag_text("the cat")
        with pytest.raises(ValueError):
            pwe(s, s, NOUN_VERB, "ea")


class TestNoEmbeddingTable:
    """Every scorer that averages embeddings refuses a missing table with a
    ValueError from the one function that reads it.
    """

    MESSAGE = "average embeddings need an embedding table"

    def test_ea_metric(self):
        tokens = tag_text("the cat sat").tokens
        with pytest.raises(ValueError, match=self.MESSAGE):
            Metric("ea").score(tokens, tokens)

    def test_posscore(self):
        s = tag_text("the cat sat")
        with pytest.raises(ValueError, match=self.MESSAGE):
            posscore(s, s, DEFAULT, None)

    def test_score_sets(self):
        s = tag_text("the cat sat")
        with pytest.raises(ValueError, match=self.MESSAGE):
            score_sets([Metric.parse("posscore", DEFAULT)], [("s1", s, s, s)])

    def test_embedding_average(self):
        tokens = tag_text("the cat sat").tokens
        with pytest.raises(ValueError, match=self.MESSAGE):
            embedding_average(tokens, tokens, None)


class TestPtlc:
    def test_identity_soft_ea(self, toy_table):
        s = tag_text("the big cat sat .")
        score = ptlc(s, s, FULL, "ea", table=toy_table)
        assert score.value == pytest.approx(2.0, abs=1e-12)
        assert score.details["text_score"] == pytest.approx(1.0)
        assert score.details["tag_score"] == pytest.approx(1.0)

    def test_identity_hard_bleu1(self):
        s = tag_text("the big cat sat .")
        score = ptlc(s, s, FULL, "bleu1")
        assert score.value == pytest.approx(1.0, abs=1e-12)

    def test_soft_tag_deletion(self):
        table = EmbeddingTable.from_dict({"a": [1.0, 2.0, 3.0]})
        ref = tagged(("a", "VERB"), ("a", "NOUN"), ("a", "NOUN"))
        cand = tagged(("a", "NOUN"), ("a", "NOUN"))
        score = ptlc(ref, cand, NOUN_VERB, "ea", table=table)
        # text cosine 1.0 plus tag BLEU1 = 1.0 * exp(1 - 3/2)
        assert score.value == pytest.approx(1.6065, abs=1e-3)
        assert score.details["text_score"] == pytest.approx(1.0)
        assert score.details["tag_score"] == pytest.approx(math.exp(-0.5))

    def test_hard_concatenation_sees_tags(self):
        # same POS words, different tags: hard PTLC must drop below 1
        ref = tagged(("run", "NOUN"), ("cat", "NOUN"))
        cand = tagged(("run", "VERB"), ("cat", "NOUN"))
        score = ptlc(ref, cand, NOUN_VERB, "bleu1")
        assert score.value < 1.0
        assert pwe(ref, cand, NOUN_VERB, "bleu1").value == pytest.approx(1.0)

    def test_the_example_where_a_word_spelled_verb_met_the_verb_symbol(self):
        ref = tagged(("verb", "NOUN"), ("long", "ADJ"))
        cand = tagged(("run", "VERB"), ("short", "ADJ"))
        assert ptlc(ref, cand, DEFAULT, "bleu1").details["p1"] == 0.25

    @pytest.mark.parametrize("tag", sorted(ADOPTED_TAGS, key=lambda t: t.value))
    @pytest.mark.parametrize("spell", [str.lower, str.upper], ids=["lower", "upper"])
    def test_a_word_spelled_like_a_tag_never_matches_its_symbol(self, tag, spell):
        # the reference word is the tag's name, tagged otherwise: it scores
        # as any other word would, though the candidate holds that tag
        other = PosTag.ADJ if tag is not PosTag.ADJ else PosTag.ADV
        cand = tagged(("zzz", tag.value))
        named = ptlc(tagged((spell(tag.value), other.value)), cand, FULL, "bleu1")
        assert named == ptlc(tagged(("cat", other.value)), cand, FULL, "bleu1")

    def test_metric_id(self):
        s = tag_text("the cat sat")
        m = Metric("ptlc", "meteor", NOUN_VERB)
        assert m.metric_id == "ptlc:meteor:verb+noun"
        assert m.score(s, s) == ptlc(s, s, NOUN_VERB, "meteor")

    def test_unknown_base(self):
        s = tag_text("the cat")
        with pytest.raises(ValueError):
            ptlc(s, s, NOUN_VERB, "chrf")


class TestPosscore:
    def test_identity(self, toy_table):
        s = tag_text("the big cat sat on the mat .")
        score = posscore(s, s, DEFAULT, toy_table)
        assert score.value == pytest.approx(2.0, abs=1e-12)
        assert score.details["w"] == pytest.approx(1.0)
        assert score.details["s_pos"] == pytest.approx(1.0)
        assert score.details["s_non_pos"] == pytest.approx(1.0)
        assert score.details["degenerate_weight"] == 0.0

    def test_no_pos_words_reduces_to_non_pos_cosine(self, toy_table):
        ref = tag_text("the on .")
        cand = tag_text("a in .")
        score = posscore(ref, cand, NOUN_VERB, toy_table)
        assert score.value == pytest.approx(score.details["s_non_pos"], abs=1e-12)
        assert score.details["w"] == 1.0
        assert score.details["degenerate_weight"] == 1.0

    def test_toy_closed_form(self):
        table = EmbeddingTable.from_dict({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        ref = tagged(("a", "NOUN"), ("b", "DET"))
        cand = tagged(("a", "NOUN"), ("a", "NOUN"))
        score = posscore(ref, cand, TagSet.parse("propn+noun"), table)
        assert score.value == pytest.approx(1.6487, abs=1e-4)
        assert score.details["n_ref"] == pytest.approx(0.5)
        assert score.details["n_cand"] == pytest.approx(1.0)
        assert score.details["s_pos"] == pytest.approx(1.0)
        assert score.details["s_non_pos"] == 0.0

    def test_duplication_invariance_exact(self, toy_table):
        rng = random.Random(99)
        for _ in range(50):
            ref = random_tagged_sentence(rng, 2, 8)
            cand = random_tagged_sentence(rng, 2, 8)
            doubled = TaggedSentence(cand.items + cand.items)
            once = posscore(ref, cand, DEFAULT, toy_table)
            twice = posscore(ref, doubled, DEFAULT, toy_table)
            assert once.value == twice.value, (ref, cand)

    def test_range_bound(self, toy_table):
        rng = random.Random(5)
        for _ in range(100):
            ref = random_tagged_sentence(rng, 1, 9)
            cand = random_tagged_sentence(rng, 1, 9)
            v = posscore(ref, cand, DEFAULT, toy_table).value
            assert -(1 + math.e) <= v <= 1 + math.e
            # toy vectors are strictly positive, so cosines are too
            assert v >= 0.0

    def test_pwe_ea_matches_s_pos_detail(self, toy_table):
        rng = random.Random(31)
        for _ in range(40):
            ref = random_tagged_sentence(rng, 1, 9)
            cand = random_tagged_sentence(rng, 1, 9)
            full = posscore(ref, cand, DEFAULT, toy_table)
            part = pwe(ref, cand, DEFAULT, "ea", table=toy_table)
            assert part.value == full.details["s_pos"], (ref, cand)

    def test_count_punct_changes_weight_only(self, toy_table):
        ref = tag_text("the cat sat .")
        cand = tag_text("a dog ran quickly .")
        on = posscore(ref, cand, DEFAULT, toy_table)
        off = posscore(ref, cand, DEFAULT, toy_table, count_punct=False)
        assert on.details["s_pos"] == off.details["s_pos"]
        assert on.details["s_non_pos"] == off.details["s_non_pos"]
        assert on.details["w"] != off.details["w"]


class TestBaseMetricRoster:
    def test_all_bases_run_under_pwe(self, toy_table):
        ref = tag_text("the big cat sat on the mat .")
        cand = tag_text("a small dog sat on the mat .")
        for base in BASE_METRIC_IDS:
            score = pwe(ref, cand, DEFAULT, base, table=toy_table)
            assert 0.0 <= score.value <= 1.0

    def test_all_bases_run_under_ptlc(self, toy_table):
        ref = tag_text("the big cat sat on the mat .")
        cand = tag_text("a small dog sat on the mat .")
        for base in BASE_METRIC_IDS:
            score = ptlc(ref, cand, DEFAULT, base, table=toy_table)
            assert score.value >= 0.0


class TestPreparedSentence:
    def test_prepared_input_scores_like_plain_input(self, toy_table):
        # one prepared pair serves every tag set, count_punct and base in
        # turn, so each score also reads memos filled by the scores before it
        rng = random.Random(5)
        stems = {}
        for _ in range(40):
            ref, cand = random_tagged_sentence(rng), random_tagged_sentence(rng)
            p_ref, p_cand = PreparedTokens(ref, stems), PreparedTokens(cand, stems)
            for tags in (DEFAULT, NOUN_VERB, FULL):
                for count_punct in (False, True):
                    assert posscore(p_ref, p_cand, tags, toy_table, count_punct) == posscore(
                        ref, cand, tags, toy_table, count_punct
                    )
                for base in BASE_METRIC_IDS:
                    for fn in (pwe, ptlc):
                        assert fn(p_ref, p_cand, tags, base, toy_table) == fn(
                            ref, cand, tags, base, toy_table
                        )
            plain = (list(ref.tokens), list(cand.tokens))
            assert meteor(p_ref, p_cand) == meteor(*plain)
            assert embedding_average(p_ref, p_cand, toy_table) == embedding_average(*plain, toy_table)
            for n in (1, 2, 3, 4):
                assert bleu_n(p_ref, p_cand, n) == bleu_n(*plain, n)


class TestMetricParse:
    @pytest.mark.parametrize("tags", [DEFAULT, NOUN_VERB])
    def test_round_trips_metric_id(self, tags):
        for base in BASE_METRIC_IDS:
            assert Metric.parse(base, tags) == Metric(base)
            for family in ("pwe", "ptlc"):
                m = Metric(family, base, tags)
                assert Metric.parse(m.metric_id, FULL) == m
                assert Metric.parse(f"{family}:{base}", tags) == m
        m = Metric("posscore", tagset=tags)
        assert Metric.parse("posscore", tags) == m
        assert Metric.parse(f"posscore:{tags.name}", FULL) == m
        # the id names every tag set but DEFAULT_TAG_SET, the one that plain
        # posscore means in an output
        assert m.metric_id == ("posscore" if tags == DEFAULT else f"posscore:{tags.name}")
        assert Metric.parse(m.metric_id, DEFAULT) == m

    @pytest.mark.parametrize("spec, message", [
        ("pwe", "pwe needs the form pwe:<base>[:<tagset>], got 'pwe'"),
        ("pwe:rouge", "unknown base metric 'rouge'; expected one of " + ", ".join(BASE_METRIC_IDS)),
        ("posscore:a:b", "malformed metric id 'posscore:a:b'"),
        ("posscore:det", "tag set may only contain adopted tags; got DET"),
        ("foo", "unknown metric id 'foo'"),
        ("bleu1:x", "unknown metric id 'bleu1:x'"),
        ("ptlc:bleu1:verb:x", "ptlc needs the form ptlc:<base>[:<tagset>], got 'ptlc:bleu1:verb:x'"),
    ])
    def test_malformed_id_raises(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Metric.parse(spec, DEFAULT)


class TestInputThatDoesNotFit:
    """Library calls with input a metric cannot take raise ValueError, never
    an internal AttributeError or TypeError.
    """

    def test_base_metrics_score_a_tagged_sentence_as_its_tokens(self, toy_table):
        ref, cand = tag_text("the big cat sat on the mat ."), tag_text("a cat sat .")
        plain = (list(ref.tokens), list(cand.tokens))
        for n in (1, 2, 3, 4):
            assert Metric(f"bleu{n}").score(ref, cand) == Metric(f"bleu{n}").score(*plain)
            assert bleu_n(ref, cand, n) == bleu_n(*plain, n)
        assert Metric("meteor").score(ref, cand) == meteor(ref, cand) == meteor(*plain)
        assert embedding_average(ref, cand, toy_table) == embedding_average(*plain, toy_table)

    @pytest.mark.parametrize("call", [
        lambda s, table: posscore(s, s, DEFAULT, table),
        lambda s, table: pwe(s, s, DEFAULT, "bleu1"),
        lambda s, table: ptlc(s, s, DEFAULT, "meteor"),
        lambda s, table: Metric.parse("pwe:bleu1", DEFAULT).score(s, s),
        lambda s, table: score_sets([Metric.parse("posscore", DEFAULT)], [("s1", s, s, s)], table),
    ], ids=["posscore", "pwe", "ptlc", "metric-score", "score_sets"])
    def test_pos_metrics_refuse_untagged_tokens(self, call, toy_table):
        tokens = list(tag_text("the cat sat .").tokens)
        with pytest.raises(ValueError, match="^POS metrics need a tagged sentence, got untagged tokens$"):
            call(tokens, toy_table)

    @pytest.mark.parametrize("fields, message", [
        (("pwe", "bleu1"), "metric 'pwe' takes a base metric and a tag set"),
        (("ptlc", None, DEFAULT), "metric 'ptlc' takes a base metric and a tag set"),
        (("posscore",), "metric 'posscore' takes no base metric and a tag set"),
        (("posscore", "bleu1", DEFAULT), "metric 'posscore' takes no base metric and a tag set"),
        (("bleu1", None, DEFAULT), "metric 'bleu1' takes no base metric and no tag set"),
        (("meteor", "bleu1"), "metric 'meteor' takes no base metric and no tag set"),
        (("rouge",), "unknown base metric 'rouge'; expected one of " + ", ".join(BASE_METRIC_IDS)),
        (("pwe", "posscore", DEFAULT), "unknown base metric 'posscore'; expected one of "
         + ", ".join(BASE_METRIC_IDS)),
        (("pwe", "bleu1", "verb+noun"), "tag set must be a TagSet, got 'verb+noun'"),
        (("posscore", None, "noun"), "tag set must be a TagSet, got 'noun'"),
    ])
    def test_constructor_refuses_fields_that_do_not_fit(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Metric(*fields)

    @pytest.mark.parametrize("tags", ["noun", ["noun"]], ids=["name", "list"])
    @pytest.mark.parametrize("call", [
        lambda s, tags, table: pos_split(s, tags),
        lambda s, tags, table: posscore(s, s, tags, table),
        lambda s, tags, table: pwe(s, s, tags, "bleu1"),
        lambda s, tags, table: ptlc(s, s, tags, "meteor"),
    ], ids=["pos_split", "posscore", "pwe", "ptlc"])
    def test_pos_metrics_refuse_tags_that_are_not_a_tag_set(self, call, tags, toy_table):
        # these once died with TypeError in the split or its cache lookup
        message = f"tag set must be a TagSet, got {tags!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(tag_text("the cat sat ."), tags, toy_table)

    def test_unknown_base_has_one_message(self):
        s = tag_text("the cat sat")
        raised = []
        for call in (
            lambda: Metric.parse("pwe:rouge", DEFAULT),
            lambda: pwe(s, s, DEFAULT, "rouge"),
            lambda: ptlc(s, s, DEFAULT, "rouge"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            raised.append(str(info.value))
        assert raised[0] == "unknown base metric 'rouge'; expected one of " + ", ".join(BASE_METRIC_IDS)
        assert raised == [raised[0]] * 3
