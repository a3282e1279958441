"""The similarity score from profiles, and its edit-distance-free bound.

The score must equal the formula as it was written before profiles, with
floats compared by ``==``, and the bound must never be under the score.
The pairs include identifier-alphabet text, empty strings, pairs equal
after normalization and pairs equal once squashed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.similarity import (
    jaccard,
    normalized_edit_similarity,
    profile,
    similarity_bound,
    string_similarity,
)
from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize


def _reference_similarity(a: str, b: str) -> float:
    """The pair score as it was computed from the two strings directly."""
    a_norm = a.lower().replace("_", " ")
    b_norm = b.lower().replace("_", " ")
    if a_norm == b_norm:
        return 1.0
    if a_norm.replace(" ", "") == b_norm.replace(" ", ""):
        return 1.0
    a_tokens = {stem(t) for t in tokenize(a_norm)}
    b_tokens = {stem(t) for t in tokenize(b_norm)}
    token_score = jaccard(a_tokens, b_tokens)
    containment = 0.0
    if a_tokens and b_tokens:
        overlap = len(a_tokens & b_tokens)
        containment = overlap / min(len(a_tokens), len(b_tokens))
    edit_score = normalized_edit_similarity(
        a_norm.replace(" ", ""), b_norm.replace(" ", "")
    )
    return max(0.6 * token_score + 0.4 * edit_score, 0.85 * containment)


_IDENTIFIER_CHARS = "abcdefghijklmnopqrstuvwxyz_ "
_WORDS = (
    "release year releases song singer singers count profile status name "
    "names id created creating"
).split()
_text = st.one_of(
    st.text(alphabet=_IDENTIFIER_CHARS, max_size=30),
    st.text(alphabet="ab_ ", max_size=8),
    st.text(max_size=12),
    st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join),
    st.just(""),
)


def _squashed_alike(text: str, cuts: list[int]) -> str:
    """The text with its spaces dropped and others added: equal to it once
    squashed, not after normalization."""
    squashed = text.replace(" ", "").replace("_", "")
    places = {cut % (len(squashed) + 1) for cut in cuts}
    for cut in sorted(places, reverse=True):
        squashed = squashed[:cut] + " " + squashed[cut:]
    return squashed


_pairs = st.one_of(
    st.tuples(_text, _text),
    # Equal after normalization: upper-cased, spaces spelled "_".
    _text.map(lambda a: (a, a.upper().replace(" ", "_"))),
    st.builds(
        lambda a, c: (a, _squashed_alike(a, c)),
        _text,
        st.lists(st.integers(0, 40), max_size=3),
    ),
)


@given(_pairs)
@settings(max_examples=500, deadline=None)
def test_the_score_is_the_reference_formula(pair):
    a, b = pair
    assert string_similarity(a, b) == _reference_similarity(a, b)
    assert string_similarity(b, a) == _reference_similarity(b, a)


@given(_pairs)
@settings(max_examples=500, deadline=None)
def test_the_bound_is_never_under_the_score(pair):
    a, b = pair
    bound = similarity_bound(profile(a), profile(b))
    assert bound >= string_similarity(a, b)
    assert similarity_bound(profile(b), profile(a)) == bound


def test_the_bound_is_the_score_when_the_distance_is_the_length_gap():
    # "year" is "releaseyear" less 7 letters: no substitution needed.
    assert similarity_bound(profile("year"), profile("release_year")) == (
        string_similarity("year", "release_year")
    )
    assert similarity_bound(profile("profile count"), profile("profilecount")) == 1
    # Same length, one letter apart: the bound misses the substitution.
    assert similarity_bound(profile("cat"), profile("cot")) > (
        string_similarity("cat", "cot")
    )


def test_examples_keep_their_scores():
    assert string_similarity("", "") == 1.0
    assert string_similarity("", "name") == 0.0
    assert string_similarity("Song_Release", "song release") == 1.0
    assert string_similarity("a b", "ab") == 1.0
