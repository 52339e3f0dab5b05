import pytest
from hypothesis import given, strategies as st

from posscore.core import (
    ADOPTED_TAGS,
    CANONICAL_TAG_SETS,
    DEFAULT_TAG_SET,
    FULL_TAG_SET,
    EvaluationSet,
    PosTag,
    TaggedSentence,
    TagSet,
    Token,
    tokenize,
)
from posscore.posmetrics import posscore

from oracles import chunkwise_tokenize


class TestPosTag:
    def test_alphabet_has_17_tags(self):
        assert len(PosTag) == 17

    def test_adopted_tags(self):
        expected = {"ADJ", "ADV", "VERB", "NOUN", "PRON", "PROPN"}
        assert {t.value for t in ADOPTED_TAGS} == expected
        for t in PosTag:
            assert (t in ADOPTED_TAGS) == (t.value in expected)

    def test_parse_exact(self):
        assert PosTag.parse("AUX") is PosTag.AUX
        with pytest.raises(ValueError):
            PosTag.parse("FOO")


class TestTagSet:
    def test_parse_is_order_insensitive(self):
        a = TagSet.parse("noun+verb")
        b = TagSet.parse("VERB+NOUN")
        assert a == b
        assert a.name == "verb+noun"

    def test_rejects_non_adopted(self):
        with pytest.raises(ValueError):
            TagSet.parse("noun+det")
        with pytest.raises(ValueError):
            TagSet.parse("")

    def test_rejects_an_empty_set(self):
        with pytest.raises(ValueError, match="tag set must not be empty"):
            TagSet(frozenset())

    @pytest.mark.parametrize(
        "members", [{PosTag.NOUN, PosTag.ADJ}, [PosTag.ADJ, PosTag.NOUN, PosTag.NOUN]],
        ids=["set", "list"],
    )
    def test_any_iterable_of_tags_is_held_as_a_frozenset(self, members, toy_table):
        ts = TagSet(members)
        assert type(ts.members) is frozenset and ts.members == {PosTag.ADJ, PosTag.NOUN}
        assert ts == TagSet.parse("adj+noun") and hash(ts) == hash(TagSet.parse("adj+noun"))
        s = TaggedSentence.from_strings([("big", "ADJ"), ("cat", "NOUN")])
        assert posscore(s, s, ts, toy_table) == posscore(s, s, TagSet.parse("adj+noun"), toy_table)

    @pytest.mark.parametrize(
        "members", ["NOUN", {PosTag.NOUN, "VERB"}, PosTag.NOUN],
        ids=["string", "stray-member", "lone-tag"],
    )
    def test_refuses_members_that_are_not_tags(self, members):
        with pytest.raises(ValueError, match="tag set members must be PosTag values"):
            TagSet(members)

    def test_name_is_its_members_in_display_order(self):
        # no name is stored, so none can disagree with the members scored
        ts = TagSet(frozenset({PosTag.NOUN, PosTag.ADJ, PosTag.PROPN}))
        assert ts.name == "adj+propn+noun"
        assert ts == TagSet.parse("noun+adj+propn") and hash(ts) == hash(TagSet.parse(ts.name))

    def test_membership(self):
        ts = TagSet.parse("adj+noun")
        assert PosTag.ADJ in ts and PosTag.NOUN in ts
        assert PosTag.VERB not in ts

    def test_canonical_grid(self):
        assert len(CANONICAL_TAG_SETS) == 17
        # singletons for the four non-nominal tags
        for single in ("adj", "adv", "verb", "pron"):
            assert single in CANONICAL_TAG_SETS
        # nominal tags always travel together
        for name, ts in CANONICAL_TAG_SETS.items():
            has_noun = PosTag.NOUN in ts
            has_propn = PosTag.PROPN in ts
            assert has_noun == has_propn, name
        assert DEFAULT_TAG_SET.name == "adj+adv+verb+propn+noun"
        assert FULL_TAG_SET.members == ADOPTED_TAGS

    def test_all_canonical_sets_distinct(self):
        members = [ts.members for ts in CANONICAL_TAG_SETS.values()]
        assert len(set(members)) == len(members)


class TestToken:
    def test_norm_is_casefold(self):
        assert Token("Paris").norm == "paris"
        assert Token("DON'T").norm == "don't"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Token("")


class TestTokenize:
    def test_basic_split(self):
        assert [t.surface for t in tokenize("the cat sat")] == ["the", "cat", "sat"]

    def test_detaches_edge_punctuation(self):
        assert [t.surface for t in tokenize("Hello, world!")] == [
            "Hello", ",", "world", "!",
        ]

    def test_contractions_stay_whole(self):
        assert [t.surface for t in tokenize("don't stop")] == ["don't", "stop"]
        assert [t.surface for t in tokenize("it's fine")] == ["it's", "fine"]

    def test_internal_hyphen_kept(self):
        assert [t.surface for t in tokenize("state-of-the-art")] == ["state-of-the-art"]

    def test_all_punct_chunk(self):
        assert [t.surface for t in tokenize("...")] == [".", ".", "."]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    @given(st.text(max_size=80) | st.text(alphabet="aB.,!'-\"é \t\n\u2003", max_size=80))
    def test_matches_chunkwise_oracle(self, text):
        assert tokenize(text) == chunkwise_tokenize(text)

    def test_returned_list_is_the_callers_own(self):
        text = "the cat, the cat"
        first = tokenize(text)
        first[0] = Token("dog")
        first.append(Token("!"))
        assert [t.surface for t in tokenize(text)] == ["the", "cat", ",", "the", "cat"]

    @given(st.text(max_size=80))
    def test_never_emits_empty_tokens(self, text):
        for tok in tokenize(text):
            assert tok.surface
            assert not tok.surface[0].isspace()


class TestEvaluationSet:
    def test_tied_scores_rejected(self):
        with pytest.raises(ValueError):
            EvaluationSet(
                id="x", context=(), reference="r",
                candidate_a="a", candidate_b="b", human_a=3.0, human_b=3.0,
            )

    def test_good_slot(self):
        ev = EvaluationSet(
            id="x", context=(), reference="r",
            candidate_a="a", candidate_b="b", human_a=2.0, human_b=4.0,
        )
        assert ev.good_slot == "b"

    def test_bad_slot(self):
        for human_a, human_b, bad in ((2.0, 4.0, "a"), (4.0, 2.0, "b")):
            ev = EvaluationSet(
                id="x", context=(), reference="r",
                candidate_a="a", candidate_b="b", human_a=human_a, human_b=human_b,
            )
            assert ev.bad_slot == bad
            assert {ev.good_slot, ev.bad_slot} == {"a", "b"}


def test_corpus_types_keep_no_instance_dict():
    # one instance of each is kept per token, sentence or set of a run
    instances = [
        Token("cat"),
        TaggedSentence.from_strings([("the", "DET"), ("cat", "NOUN")]),
        EvaluationSet(
            id="x", context=(), reference="r",
            candidate_a="a", candidate_b="b", human_a=2.0, human_b=4.0,
        ),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    with pytest.raises(AttributeError):
        instances[0].norm = "dog"
