"""Classic Porter stemmer (1980 algorithm).

Implements the original five-step suffix-stripping procedure, including the
published quirks (e.g. step 1a maps "ss" to "ss" but "s" is dropped only
after another letter). Input is expected lowercase; callers pass casefolded
norms.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _cv(word: str) -> str:
    """word written as "c" for each consonant and "v" for each vowel, in one
    left-to-right pass: every letter but a, e, i, o and u is a consonant,
    except a y that follows a consonant.
    """
    letters = []
    prev = "v"  # so that a leading y is a consonant
    for c in word:
        prev = "v" if c in _VOWELS or (c == "y" and prev == "c") else "c"
        letters.append(prev)
    return "".join(letters)


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC)^m[V]."""
    return _cv(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _cv(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _cv(word).endswith("c")


def _ends_cvc(word: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, last not w, x, or y."""
    return _cv(word).endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _rule_pass(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + repl
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word[:-1]) > 1:
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem one lowercase word. Words of length <= 2 are returned unchanged."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _rule_pass(word, _STEP2, 0)
    word = _rule_pass(word, _STEP3, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
