"""Hand-written lexer for the SQL dialect.

The lexer is a single forward pass over the input producing
:class:`~repro.sql.tokens.Token` objects. Identifiers may be bare
(``singer``), quoted with double quotes (``"Song Name"``) or backticks.
String literals use single quotes with ``''`` as the escape for a literal
quote, following standard SQL.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.sql.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenType

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_BODY = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_WHITESPACE = frozenset(" \t\r\n")


class Lexer:
    """Tokenizes SQL text.

    Example:
        >>> [t.value for t in Lexer("SELECT 1").tokens()][:2]
        ['SELECT', '1']
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._length = len(text)

    def tokens(self) -> list[Token]:
        """Lex the whole input and return tokens ending with an EOF token."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= self._length:
            return ""
        return self._text[index]

    def _skip_trivia(self) -> None:
        """Skip whitespace and ``--`` line comments and ``/* */`` blocks."""
        while self._pos < self._length:
            char = self._text[self._pos]
            if char in _WHITESPACE:
                self._pos += 1
            elif char == "-" and self._peek(1) == "-":
                while self._pos < self._length and self._text[self._pos] != "\n":
                    self._pos += 1
            elif char == "/" and self._peek(1) == "*":
                end = self._text.find("*/", self._pos + 2)
                if end == -1:
                    raise LexError("unterminated block comment", self._pos)
                self._pos = end + 2
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        if self._pos >= self._length:
            return Token(TokenType.EOF, "", self._pos)

        start = self._pos
        char = self._text[start]

        if char in _IDENT_START:
            return self._lex_word(start)
        if char in _DIGITS or (char == "." and self._peek(1) in _DIGITS):
            return self._lex_number(start)
        if char == "'":
            return self._lex_string(start)
        if char in ('"', "`"):
            return self._lex_quoted_identifier(start, char)

        for op in OPERATORS:
            if self._text.startswith(op, start):
                self._pos = start + len(op)
                return Token(TokenType.OPERATOR, op, start)
        if char in PUNCTUATION:
            self._pos = start + 1
            return Token(TokenType.PUNCTUATION, char, start)

        raise LexError(f"unexpected character {char!r}", start)

    def _lex_word(self, start: int) -> Token:
        end = start
        while end < self._length and self._text[end] in _IDENT_BODY:
            end += 1
        self._pos = end
        word = self._text[start:end]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, start)
        return Token(TokenType.IDENTIFIER, word, start)

    def _lex_number(self, start: int) -> Token:
        end = start
        seen_dot = False
        seen_exp = False
        while end < self._length:
            char = self._text[end]
            if char in _DIGITS:
                end += 1
            elif char == "." and not seen_dot and not seen_exp:
                seen_dot = True
                end += 1
            elif char in "eE" and not seen_exp and end > start:
                nxt = self._text[end + 1 : end + 2]
                if nxt in _DIGITS or (
                    nxt in "+-" and self._text[end + 2 : end + 3] in _DIGITS
                ):
                    seen_exp = True
                    end += 2 if nxt in "+-" else 1
                else:
                    break
            else:
                break
        self._pos = end
        text = self._text[start:end]
        if seen_dot or seen_exp:
            return Token(TokenType.FLOAT, text, start)
        return Token(TokenType.INTEGER, text, start)

    def _lex_string(self, start: int) -> Token:
        parts: list[str] = []
        pos = start + 1
        while True:
            if pos >= self._length:
                raise LexError("unterminated string literal", start)
            char = self._text[pos]
            if char == "'":
                if self._text[pos + 1 : pos + 2] == "'":
                    parts.append("'")
                    pos += 2
                    continue
                pos += 1
                break
            parts.append(char)
            pos += 1
        self._pos = pos
        return Token(TokenType.STRING, "".join(parts), start)

    def _lex_quoted_identifier(self, start: int, quote: str) -> Token:
        # A doubled quote inside the name stands for one (SQLite's rule).
        parts: list[str] = []
        pos = start + 1
        while True:
            end = self._text.find(quote, pos)
            if end == -1:
                raise LexError("unterminated quoted identifier", start)
            parts.append(self._text[pos:end])
            if self._text[end + 1 : end + 2] != quote:
                break
            parts.append(quote)
            pos = end + 2
        self._pos = end + 1
        return Token(TokenType.IDENTIFIER, "".join(parts), start)


def tokenize(text: str) -> list[Token]:
    """Convenience wrapper: lex ``text`` into a token list (EOF-terminated)."""
    return Lexer(text).tokens()
