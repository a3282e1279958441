"""Word tokenization and normalization for questions and feedback."""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+(?:\.\d+)?|'[^']*'|\"[^\"]*\"")
_SPACE_RE = re.compile(r"\s+")
_SINGLE_QUOTED_RE = re.compile(r"'([^']*)'")
_DOUBLE_QUOTED_RE = re.compile(r'"([^"]*)"')
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")

#: Words that carry no schema-linking signal.
STOPWORDS = frozenset(
    """
    a an the of for to in on at by with and or is are was were be been am
    do does did done can could shall should will would may might must
    what which who whom whose when where why how many much there their
    this that these those it its i we you they he she
    me my your our his her them us
    show list give find get tell return display
    please all each every any some
    """.split()
)


def normalize(text: str) -> str:
    """Lower-case and collapse whitespace."""
    return _SPACE_RE.sub(" ", text.strip().lower())


def tokenize(text: str) -> list[str]:
    """Split text into lower-cased word/number/quoted-string tokens.

    Quoted substrings stay intact (with quotes stripped) so that literal
    values like 'ABC segment' survive as a single token.
    """
    tokens = []
    for match in _WORD_RE.finditer(text):
        token = match.group(0)
        if token.startswith(("'", '"')):
            tokens.append(token[1:-1])
        else:
            tokens.append(token.lower())
    return tokens


def content_tokens(text: str) -> list[str]:
    """Tokens with stopwords removed."""
    return [token for token in tokenize(text) if token not in STOPWORDS]


def ngrams(tokens: list[str], max_n: int = 3) -> list[tuple[int, int, str]]:
    """All n-grams up to ``max_n`` as (start, end, phrase) triples."""
    grams = []
    for n in range(1, max_n + 1):
        for start in range(0, len(tokens) - n + 1):
            phrase = " ".join(tokens[start : start + n])
            grams.append((start, start + n, phrase))
    return grams


def quoted_strings(text: str) -> list[str]:
    """Extract quoted literals (single or double quotes) from text."""
    return _SINGLE_QUOTED_RE.findall(text) + _DOUBLE_QUOTED_RE.findall(text)


def numbers_in(text: str) -> list[float]:
    """Extract numeric values mentioned in text."""
    return [float(m) for m in _NUMBER_RE.findall(text)]
