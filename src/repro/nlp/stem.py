"""A light rule-based stemmer (a tiny Porter-style suffix stripper).

Good enough for matching schema vocabulary ("audiences" -> "audience",
"created" -> "create"), without external models. The important property is
*consistency*: plural and verb suffixes are stripped in sequence, so
``stem("paintings") == stem("painting") == "paint"`` — both sides of a
schema-linking comparison land on the same stem.
"""

from __future__ import annotations

import functools

#: How many distinct words :func:`stem` keeps stemmed. A full set-up plus
#: one sweep stems 537 distinct words; the rest is room for ``serve``.
STEM_MEMO_SIZE = 4096

_IRREGULAR = {
    "people": "person",
    "children": "child",
    "men": "man",
    "women": "woman",
    "feet": "foot",
    "mice": "mouse",
    "geese": "goose",
    "movies": "movie",
    "countries": "country",
    "cities": "city",
    "criteria": "criterion",
    "data": "data",
    "media": "media",
    "series": "series",
    "status": "status",
    "has": "have",
}


def _strip_plural(word: str) -> str:
    if len(word) <= 3:
        return word
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith(("xes", "ches", "shes")):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s") and not word.endswith(("us", "is")):
        return word[:-1]
    return word


def _strip_verb_suffix(word: str) -> str:
    if word.endswith("ing") and len(word) > 5:
        base = word[:-3]
        if len(base) >= 3 and base[-1] == base[-2]:
            base = base[:-1]
        return base if len(base) >= 3 else word
    if word.endswith("ed") and len(word) > 4:
        base = word[:-2]
        if len(base) >= 3 and base[-1] == base[-2]:
            base = base[:-1]
        if base.endswith(("at", "iz", "bl", "creat")):
            base += "e"
        return base if len(base) >= 3 else word
    return word


@functools.lru_cache(maxsize=STEM_MEMO_SIZE)
def stem(word: str) -> str:
    """Return a crude stem of ``word`` (lower-cased), memoized per word."""
    word = word.lower()
    if word in _IRREGULAR:
        return _IRREGULAR[word]
    if len(word) <= 3:
        return word
    base = _strip_plural(word)
    if base in _IRREGULAR:
        return _IRREGULAR[base]
    return _strip_verb_suffix(base)


def stem_tokens(tokens: list[str]) -> list[str]:
    """Stem every token in a list."""
    return [stem(token) for token in tokens]
