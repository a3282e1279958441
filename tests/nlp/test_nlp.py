"""NLP toolkit tests: tokenizer, stemmer, similarity, TF-IDF."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import similarity
from repro.nlp.similarity import (
    jaccard,
    levenshtein,
    normalized_edit_similarity,
    string_similarity,
)
from repro.nlp.stem import stem, stem_tokens
from repro.nlp.tokenize import (
    content_tokens,
    ngrams,
    normalize,
    numbers_in,
    quoted_strings,
    tokenize,
)
from repro.nlp.vectorize import TfidfVectorizer, cosine_top_k


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("How many singers are there?") == [
            "how", "many", "singers", "are", "there",
        ]

    def test_quoted_strings_survive(self):
        assert "ABC Segment" in tokenize("the 'ABC Segment' audience")

    def test_numbers(self):
        assert tokenize("top 5 by 2.5") == ["top", "5", "by", "2.5"]

    def test_normalize(self):
        assert normalize("  Hello   WORLD  ") == "hello world"

    def test_content_tokens_drop_stopwords(self):
        assert content_tokens("show me the singers") == ["singers"]

    def test_ngrams(self):
        grams = ngrams(["a", "b", "c"], max_n=2)
        phrases = [g[2] for g in grams]
        assert phrases == ["a", "b", "c", "a b", "b c"]

    def test_quoted_strings_helper(self):
        assert quoted_strings("use 'x' and \"y\"") == ["x", "y"]

    def test_numbers_in(self):
        assert numbers_in("we are in 2024, top 5") == [2024.0, 5.0]


class TestStem:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("audiences", "audience"),
            ("segments", "segment"),
            ("countries", "country"),
            ("movies", "movie"),
            ("coaches", "coach"),
            ("created", "create"),
            ("status", "status"),
            ("dishes", "dish"),
        ],
    )
    def test_known_stems(self, word, expected):
        assert stem(word) == expected

    def test_plural_and_singular_agree(self):
        pairs = [("painting", "paintings"), ("rating", "ratings"), ("company", "companies")]
        for singular, plural in pairs:
            assert stem(singular) == stem(plural)

    def test_short_words_untouched(self):
        assert stem("age") == "age"
        assert stem("is") == "is"

    def test_stem_tokens(self):
        assert stem_tokens(["Singers", "created"]) == ["singer", "create"]


class TestNormalizationEdgeCases:
    """Inputs the semantic cache leans on: unicode, empties, numerics."""

    def test_non_ascii_text_yields_no_tokens(self):
        # Fully non-ASCII questions tokenize to nothing — the semcache
        # treats them as unsignable rather than colliding them.
        assert tokenize("你好吗") == []
        assert tokenize("？！。") == []

    def test_accented_words_split_deterministically(self):
        # The word regex is ASCII-only; accented characters split words
        # into their ASCII runs, the same way on every call.
        assert tokenize("créé café naïve") == ["cr", "caf", "na", "ve"]
        assert tokenize("créé café naïve") == tokenize("créé café naïve")

    def test_normalize_preserves_unicode_but_lowers_it(self):
        assert normalize("  Ünïcode   TEXT ") == "ünïcode text"

    def test_empty_and_whitespace_inputs(self):
        for text in ("", "   ", "\t\n"):
            assert tokenize(text) == []
            assert content_tokens(text) == []
            assert numbers_in(text) == []
        assert normalize("") == ""
        assert stem("") == ""

    def test_numeric_literal_vs_limit_keyword(self):
        # "top" is a ranking keyword, not a stopword: both it and the
        # digit survive tokenization for downstream limit extraction.
        assert content_tokens("top 5 audiences") == ["top", "5", "audiences"]
        # Spelled-out numbers are words here — digit mapping is the
        # signature layer's job, not the tokenizer's.
        assert numbers_in("top five audiences") == []
        assert numbers_in("top 5 audiences") == [5.0]

    @pytest.mark.parametrize(
        "pair",
        [
            ("audiences", "audience"),
            ("created", "creates"),
            ("segments", "segment"),
            ("companies", "company"),
        ],
    )
    def test_stemming_is_stable_across_paraphrase_pairs(self, pair):
        left, right = pair
        assert stem(left) == stem(right)

    @pytest.mark.parametrize(
        "word", ["audiences", "created", "companies", "status", "flight"]
    )
    def test_stemming_is_idempotent(self, word):
        assert stem(stem(word)) == stem(word)


class TestSimilarity:
    def test_levenshtein_basics(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("abc", "abd") == 1
        assert levenshtein("abc", "") == 3

    def test_edit_similarity_bounds(self):
        assert normalized_edit_similarity("same", "same") == 1.0
        assert 0.0 <= normalized_edit_similarity("abc", "xyz") <= 1.0

    def test_jaccard(self):
        assert jaccard({"a"}, {"a"}) == 1.0
        assert jaccard({"a"}, {"b"}) == 0.0
        assert jaccard(set(), set()) == 1.0

    def test_schema_linking_cases(self):
        assert string_similarity("release year", "Song_release_year") > 0.5
        assert string_similarity("profile count", "profilecount") > 0.6
        assert string_similarity("price", "description") < 0.4

    def test_identical_is_one(self):
        assert string_similarity("name", "name") == 1.0


def _oracle_levenshtein(a, b) -> int:
    """The textbook O(n·m) dynamic program the bit-parallel kernel replaced."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


_IDENTIFIER_CHARS = "abcdefghijklmnopqrstuvwxyz_ "


class TestLevenshteinMatchesOracle:
    """The bit-parallel kernel returns exactly the dynamic program's value."""

    @given(
        st.text(alphabet=_IDENTIFIER_CHARS, min_size=65, max_size=150),
        st.text(alphabet=_IDENTIFIER_CHARS, min_size=65, max_size=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_strings_past_a_machine_word(self, a, b):
        # Both sides are longer than 64, so the pattern's bit vectors are too.
        assert levenshtein(a, b) == _oracle_levenshtein(a, b)
        assert levenshtein(b, a) == _oracle_levenshtein(b, a)

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_unicode_text(self, a, b):
        assert levenshtein(a, b) == _oracle_levenshtein(a, b)

    @given(st.text(alphabet="ab", max_size=100), st.text(alphabet="ab", max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_two_letter_alphabet(self, a, b):
        assert levenshtein(a, b) == _oracle_levenshtein(a, b)

    @given(st.text(max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_empty_strings(self, text):
        assert levenshtein(text, "") == _oracle_levenshtein(text, "") == len(text)
        assert levenshtein("", text) == _oracle_levenshtein("", text) == len(text)

    def test_other_hashable_sequences(self):
        assert levenshtein(("select", "name"), ("select", "age", "name")) == 1
        assert levenshtein([1, 2, 3], [3, 2, 1]) == 2

    @given(
        st.text(alphabet=_IDENTIFIER_CHARS, max_size=40),
        st.text(alphabet=_IDENTIFIER_CHARS, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_string_similarity_is_bit_identical(self, a, b):
        with mock.patch.object(similarity, "levenshtein", _oracle_levenshtein):
            expected = string_similarity(a, b)
        assert string_similarity(a, b) == expected


@given(st.text(max_size=12), st.text(max_size=12))
@settings(max_examples=200, deadline=None)
def test_levenshtein_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
@settings(max_examples=100, deadline=None)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestTfidf:
    CORPUS = [
        "how many singers are there",
        "list the names of all songs",
        "what is the average age of singers",
        "count the stadiums in the city",
    ]

    def test_fit_transform_shape(self):
        vec = TfidfVectorizer()
        matrix = vec.fit_transform(self.CORPUS)
        assert matrix.shape == (4, len(vec._vocabulary))

    def test_rows_are_normalized(self):
        matrix = TfidfVectorizer().fit_transform(self.CORPUS)
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_self_retrieval(self):
        vec = TfidfVectorizer()
        matrix = vec.fit_transform(self.CORPUS)
        query = vec.transform(["how many singers are there"])[0]
        top = cosine_top_k(query, matrix, 1)
        assert top[0][0] == 0

    def test_related_query_retrieval(self):
        vec = TfidfVectorizer()
        matrix = vec.fit_transform(self.CORPUS)
        query = vec.transform(["average age of the singers"])[0]
        top = cosine_top_k(query, matrix, 2)
        assert top[0][0] == 2

    def test_out_of_vocabulary_query(self):
        vec = TfidfVectorizer()
        matrix = vec.fit_transform(self.CORPUS)
        query = vec.transform(["zzz qqq"])[0]
        assert np.allclose(query, 0)

    def test_unfitted_raises(self):
        with pytest.raises(ValueError):
            TfidfVectorizer().transform(["x"])

    def test_empty_matrix_top_k(self):
        assert cosine_top_k(np.zeros(3), np.zeros((0, 3)), 5) == []

    def test_top_k_pairs_are_python_numbers_of_the_old_conversion(self):
        def per_element(query, matrix, k):
            scores = matrix @ query
            k = min(k, matrix.shape[0])
            top = np.argpartition(-scores, k - 1)[:k]
            ranked = top[np.argsort(-scores[top], kind="stable")]
            return [(int(i), float(scores[i])) for i in ranked]

        vec = TfidfVectorizer()
        matrix = vec.fit_transform(self.CORPUS * 3)
        for question in ("how many singers", "average age of songs", "zzz"):
            query = vec.transform([question])[0]
            for k in (1, 4, 12, 20):
                top = cosine_top_k(query, matrix, k)
                assert top == per_element(query, matrix, k)
                for index, score in top:
                    assert type(index) is int and type(score) is float
