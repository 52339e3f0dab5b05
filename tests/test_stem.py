import pytest

from posscore.stem import porter_stem

from oracles import PORTER_VECTORS


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
