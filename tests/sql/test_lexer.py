"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenType


def kinds(sql):
    return [t.type for t in tokenize(sql)[:-1]]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        assert values("Song_Name") == ["Song_Name"]
        assert kinds("Song_Name") == [TokenType.IDENTIFIER]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.INTEGER
        assert tokens[0].value == "42"

    def test_float_literal(self):
        assert kinds("3.14") == [TokenType.FLOAT]

    def test_float_with_exponent(self):
        assert kinds("1e5") == [TokenType.FLOAT]
        assert kinds("2.5E-3") == [TokenType.FLOAT]

    def test_leading_dot_float(self):
        assert kinds(".5") == [TokenType.FLOAT]

    def test_eof_token_always_last(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].type is TokenType.EOF


class TestStrings:
    def test_simple_string(self):
        tokens = tokenize("'hello'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "hello"

    def test_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_string_keeps_case(self):
        assert tokenize("'MiXeD'")[0].value == "MiXeD"


class TestQuotedIdentifiers:
    def test_double_quoted(self):
        tokens = tokenize('"weird name"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "weird name"

    def test_backtick_quoted(self):
        assert tokenize("`order`")[0].value == "order"

    def test_doubled_quote_is_one_quote(self):
        tokens = tokenize('"a""b" """"')
        assert [token.value for token in tokens[:2]] == ['a"b', '"']
        assert tokenize("`a``b`")[0].value == "a`b"
        with pytest.raises(LexError):
            tokenize('"a""')

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')


class TestOperatorsAndPunctuation:
    @pytest.mark.parametrize("op", ["<>", "!=", ">=", "<=", "=", "<", ">", "+", "-", "*", "/", "%", "||"])
    def test_operator(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].type is TokenType.OPERATOR
        assert tokens[1].value == op

    def test_greedy_two_char_operators(self):
        assert values("a<=b") == ["a", "<=", "b"]

    def test_punctuation(self):
        assert values("(a, b.c);") == ["(", "a", ",", "b", ".", "c", ")", ";"]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestTrivia:
    def test_line_comment_skipped(self):
        assert values("SELECT -- comment\n 1") == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        assert values("SELECT /* x */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("SELECT /* oops")

    def test_whitespace_variants(self):
        assert values("SELECT\t1\r\nFROM\tt") == ["SELECT", "1", "FROM", "t"]

    def test_positions_recorded(self):
        tokens = tokenize("SELECT a")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestRealQueries:
    def test_full_query_token_count(self):
        sql = (
            "SELECT Name, Song_release_year FROM singer "
            "WHERE Age = (SELECT min(Age) FROM singer)"
        )
        tokens = tokenize(sql)
        assert tokens[-1].type is TokenType.EOF
        assert len(tokens) == 19

    def test_is_keyword_helper(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")
