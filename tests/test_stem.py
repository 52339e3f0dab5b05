import pytest
from hypothesis import given, settings, strategies as st

from posscore.stem import (
    _contains_vowel, _cv, _ends_cvc, _ends_double_consonant, _measure, porter_stem,
)

from oracles import PORTER_VECTORS, porter_conditions, recursive_is_consonant


@pytest.mark.parametrize("word,expected", PORTER_VECTORS)
def test_published_vectors(word, expected):
    assert porter_stem(word) == expected


def test_short_words_unchanged():
    for w in ("a", "is", "by", "on", ""):
        assert porter_stem(w) == w


def test_idempotent_on_common_stems():
    # stems of ordinary vocabulary do not shrink further
    for w in ("run", "cat", "fast", "depend", "hope"):
        assert porter_stem(porter_stem(w)) == porter_stem(w)


def test_step4_keeps_ion_after_a_letter_other_than_s_or_t():
    # "opin" has measure 2, so only the s/t condition keeps the suffix
    assert porter_stem("opinion") == "opinion"
    assert porter_stem("adoption") == "adopt"


def test_shared_stem_pairs():
    assert porter_stem("running") == porter_stem("runs") == "run"
    assert porter_stem("connected") == porter_stem("connection") == "connect"


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="aeiouybcdlstwxz", max_size=40))
def test_consonant_pass_matches_the_recursive_rule(word):
    # y-heavy words: a run of y alternates consonant and vowel from its first letter's state
    expected = "".join("c" if recursive_is_consonant(word, i) else "v" for i in range(len(word)))
    assert _cv(word) == expected
    conditions = _measure(word), _contains_vowel(word), _ends_double_consonant(word), _ends_cvc(word)
    assert conditions == porter_conditions(word)
