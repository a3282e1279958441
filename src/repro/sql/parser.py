"""Recursive-descent parser for the SQL dialect.

Entry points:

* :func:`parse_statement` — any supported statement.
* :func:`parse_query` — SELECT or set-operation query (the common case),
  memoized by text.
* :func:`parse_select` — a plain SELECT, or None for anything else.
* :func:`parse_expression` — a standalone expression (used by the editor).
"""

from __future__ import annotations

import functools
import re
from dataclasses import replace
from typing import Optional

from repro.errors import ParseError, SqlError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

_COMPARISON_OPS = {
    "=": ast.BinaryOperator.EQ,
    "!=": ast.BinaryOperator.NE,
    "<>": ast.BinaryOperator.NE,
    "<": ast.BinaryOperator.LT,
    "<=": ast.BinaryOperator.LE,
    ">": ast.BinaryOperator.GT,
    ">=": ast.BinaryOperator.GE,
}

_ADDITIVE_OPS = {
    "+": ast.BinaryOperator.ADD,
    "-": ast.BinaryOperator.SUB,
    "||": ast.BinaryOperator.CONCAT,
}

_MULTIPLICATIVE_OPS = {
    "*": ast.BinaryOperator.MUL,
    "/": ast.BinaryOperator.DIV,
    "%": ast.BinaryOperator.MOD,
}


class Parser:
    """Parses a token stream into AST nodes."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._index = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _check_keyword(self, *words: str) -> bool:
        return self._current.is_keyword(*words)

    def _accept_keyword(self, *words: str) -> bool:
        if self._check_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        if not self._check_keyword(word):
            raise ParseError(
                f"expected {word}, found {self._current.value!r} "
                f"at offset {self._current.position}"
            )
        return self._advance()

    def _accept_punct(self, value: str) -> bool:
        token = self._current
        if token.type is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise ParseError(
                f"expected {value!r}, found {self._current.value!r} "
                f"at offset {self._current.position}"
            )

    def _expect_identifier(self) -> str:
        token = self._current
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        # Non-reserved use of soft keywords as identifiers is common in
        # generated schemas (e.g. a column literally named "date").
        if token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS:
            self._advance()
            return token.value.lower()
        raise ParseError(
            f"expected identifier, found {token.value!r} at offset {token.position}"
        )

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement and require end of input."""
        stmt = self._statement()
        self._accept_punct(";")
        if self._current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input at offset {self._current.position}: "
                f"{self._current.value!r}"
            )
        return stmt

    def _statement(self) -> ast.Statement:
        if self._check_keyword("SELECT") or (
            self._current.type is TokenType.PUNCTUATION and self._current.value == "("
        ):
            return self._query()
        if self._check_keyword("CREATE"):
            return self._create_table()
        if self._check_keyword("INSERT"):
            return self._insert()
        if self._check_keyword("UPDATE"):
            return self._update()
        if self._check_keyword("DELETE"):
            return self._delete()
        if self._check_keyword("DROP"):
            return self._drop_table()
        raise ParseError(
            f"expected a statement, found {self._current.value!r} "
            f"at offset {self._current.position}"
        )

    # -- queries ------------------------------------------------------------

    def parse_query(self) -> ast.Query:
        """Parse a SELECT / set-operation query and require end of input."""
        query = self._query()
        self._accept_punct(";")
        if self._current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input at offset {self._current.position}: "
                f"{self._current.value!r}"
            )
        return query

    def _query(self) -> ast.Query:
        left: ast.Query = self._select_core()
        while self._check_keyword("UNION", "INTERSECT", "EXCEPT"):
            word = self._advance().value
            if word == "UNION" and self._accept_keyword("ALL"):
                op = ast.SetOperator.UNION_ALL
            else:
                op = ast.SetOperator[word]
            parenthesized = (
                self._current.type is TokenType.PUNCTUATION
                and self._current.value == "("
            )
            right = self._select_core()
            order_by: tuple[ast.OrderItem, ...] = ()
            limit: Optional[int] = None
            if not parenthesized:
                # A trailing ORDER BY / LIMIT binds to the whole compound
                # query (standard semantics); the bare right SELECT consumed
                # it greedily, so hoist it. A parenthesized operand keeps
                # its own.
                order_by, limit = right.order_by, right.limit
                if order_by or limit is not None:
                    right = replace(right, order_by=(), limit=None)
            left = ast.SetOperation(
                op=op, left=left, right=right, order_by=order_by, limit=limit
            )
        if isinstance(left, ast.SetOperation):
            if self._accept_keyword("ORDER"):
                self._expect_keyword("BY")
                left = replace(left, order_by=self._order_items())
            if self._accept_keyword("LIMIT"):
                left = replace(left, limit=self._integer_literal())
        return left

    def _select_core(self) -> ast.Select:
        if self._accept_punct("("):
            query = self._query()
            self._expect_punct(")")
            if not isinstance(query, ast.Select):
                raise ParseError("parenthesized set operations are not supported")
            return query
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        self._accept_keyword("ALL")
        items = self._select_items()
        source: Optional[ast.TableExpression] = None
        where: Optional[ast.Expression] = None
        having: Optional[ast.Expression] = None
        group_by: tuple[ast.Expression, ...] = ()
        order_by: tuple[ast.OrderItem, ...] = ()
        limit: Optional[int] = None
        offset: Optional[int] = None
        if self._accept_keyword("FROM"):
            source = self._table_expression()
        if self._accept_keyword("WHERE"):
            where = self._expression()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._expression_list()
        if self._accept_keyword("HAVING"):
            having = self._expression()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._order_items()
        if self._accept_keyword("LIMIT"):
            limit = self._integer_literal()
            if self._accept_keyword("OFFSET"):
                offset = self._integer_literal()
        return ast.Select(
            items=items,
            source=source,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _select_items(self) -> tuple[ast.SelectItem, ...]:
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> ast.SelectItem:
        expr = self._expression()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression=expr, alias=alias)

    def _order_items(self) -> tuple[ast.OrderItem, ...]:
        items = [self._order_item()]
        while self._accept_punct(","):
            items.append(self._order_item())
        return tuple(items)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        order = ast.SortOrder.ASC
        if self._accept_keyword("DESC"):
            order = ast.SortOrder.DESC
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expression=expr, order=order)

    def _integer_literal(self) -> int:
        token = self._current
        if token.type is not TokenType.INTEGER:
            raise ParseError(
                f"expected integer, found {token.value!r} at offset {token.position}"
            )
        self._advance()
        return int(token.value)

    def _expression_list(self) -> tuple[ast.Expression, ...]:
        exprs = [self._expression()]
        while self._accept_punct(","):
            exprs.append(self._expression())
        return tuple(exprs)

    # -- FROM clause --------------------------------------------------------

    def _table_expression(self) -> ast.TableExpression:
        left = self._table_primary()
        while True:
            if self._accept_punct(","):
                right = self._table_primary()
                left = ast.Join(kind=ast.JoinKind.CROSS, left=left, right=right)
                continue
            kind = self._join_kind()
            if kind is None:
                return left
            right = self._table_primary()
            condition: Optional[ast.Expression] = None
            if kind is not ast.JoinKind.CROSS:
                self._expect_keyword("ON")
                condition = self._expression()
            left = ast.Join(kind=kind, left=left, right=right, condition=condition)

    def _join_kind(self) -> Optional[ast.JoinKind]:
        if self._accept_keyword("JOIN"):
            return ast.JoinKind.INNER
        if self._check_keyword("INNER") and self._peek().is_keyword("JOIN"):
            self._advance()
            self._advance()
            return ast.JoinKind.INNER
        if self._check_keyword("LEFT"):
            self._advance()
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return ast.JoinKind.LEFT
        if self._check_keyword("CROSS") and self._peek().is_keyword("JOIN"):
            self._advance()
            self._advance()
            return ast.JoinKind.CROSS
        return None

    def _table_primary(self) -> ast.TableExpression:
        if self._accept_punct("("):
            if self._check_keyword("SELECT"):
                subquery = self._query()
                self._expect_punct(")")
                if not isinstance(subquery, ast.Select):
                    raise ParseError("set operations in FROM are not supported")
                self._accept_keyword("AS")
                alias = self._expect_identifier()
                return ast.SubquerySource(subquery=subquery, alias=alias)
            inner = self._table_expression()
            self._expect_punct(")")
            return inner
        name = self._expect_identifier()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(name=name, alias=alias)

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """Parse a standalone expression and require end of input."""
        expr = self._expression()
        if self._current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input at offset {self._current.position}"
            )
        return expr

    def _expression(self) -> ast.Expression:
        return self._or_expr()

    def _or_expr(self) -> ast.Expression:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            right = self._and_expr()
            left = ast.BinaryOp(ast.BinaryOperator.OR, left, right)
        return left

    def _and_expr(self) -> ast.Expression:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            right = self._not_expr()
            left = ast.BinaryOp(ast.BinaryOperator.AND, left, right)
        return left

    def _not_expr(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp(ast.UnaryOperator.NOT, self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expression:
        left = self._additive()
        if self._current.type is TokenType.OPERATOR and (
            self._current.value in _COMPARISON_OPS
        ):
            op = _COMPARISON_OPS[self._advance().value]
            right = self._additive()
            return ast.BinaryOp(op, left, right)

        negated = False
        if self._check_keyword("NOT") and self._peek().is_keyword(
            "LIKE", "IN", "BETWEEN"
        ):
            self._advance()
            negated = True

        if self._accept_keyword("LIKE"):
            pattern = self._additive()
            return ast.Like(operand=left, pattern=pattern, negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.Between(operand=left, low=low, high=high, negated=negated)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            if self._check_keyword("SELECT"):
                subquery = self._query()
                self._expect_punct(")")
                if not isinstance(subquery, ast.Select):
                    raise ParseError("set operations inside IN are not supported")
                return ast.InSubquery(operand=left, subquery=subquery, negated=negated)
            items = self._expression_list()
            self._expect_punct(")")
            return ast.InList(operand=left, items=items, negated=negated)
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(operand=left, negated=is_negated)
        if negated:
            raise ParseError("dangling NOT in predicate")
        return left

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in _ADDITIVE_OPS
        ):
            op = _ADDITIVE_OPS[self._advance().value]
            right = self._multiplicative()
            left = ast.BinaryOp(op, left, right)
        return left

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in _MULTIPLICATIVE_OPS
        ):
            op = _MULTIPLICATIVE_OPS[self._advance().value]
            right = self._unary()
            left = ast.BinaryOp(op, left, right)
        return left

    def _unary(self) -> ast.Expression:
        if self._current.type is TokenType.OPERATOR and self._current.value == "-":
            self._advance()
            return ast.UnaryOp(ast.UnaryOperator.NEG, self._unary())
        if self._current.type is TokenType.OPERATOR and self._current.value == "+":
            self._advance()
            return ast.UnaryOp(ast.UnaryOperator.POS, self._unary())
        return self._primary()

    def _primary(self) -> ast.Expression:
        token = self._current

        if token.type is TokenType.INTEGER:
            self._advance()
            return ast.Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self._advance()
            return ast.Literal(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self._query()
            self._expect_punct(")")
            if not isinstance(subquery, ast.Select):
                raise ParseError("set operations inside EXISTS are not supported")
            return ast.Exists(subquery=subquery)
        if token.is_keyword("CASE"):
            return self._case_when()
        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            if self._check_keyword("SELECT"):
                subquery = self._query()
                self._expect_punct(")")
                if not isinstance(subquery, ast.Select):
                    raise ParseError("set operations as scalars are not supported")
                return ast.ScalarSubquery(subquery=subquery)
            expr = self._expression()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.Star()
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS
        ):
            return self._identifier_expression()
        raise ParseError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def _case_when(self) -> ast.Expression:
        self._expect_keyword("CASE")
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            cond = self._expression()
            self._expect_keyword("THEN")
            value = self._expression()
            branches.append((cond, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        default: Optional[ast.Expression] = None
        if self._accept_keyword("ELSE"):
            default = self._expression()
        self._expect_keyword("END")
        return ast.CaseWhen(branches=tuple(branches), default=default)

    def _identifier_expression(self) -> ast.Expression:
        name = self._expect_identifier()
        if self._accept_punct("("):
            return self._function_call(name)
        if self._accept_punct("."):
            if self._current.type is TokenType.OPERATOR and self._current.value == "*":
                self._advance()
                return ast.Star(table=name)
            column = self._expect_identifier()
            return ast.ColumnRef(column=column, table=name)
        return ast.ColumnRef(column=name)

    def _function_call(self, name: str) -> ast.Expression:
        distinct = False
        args: list[ast.Expression] = []
        if not self._accept_punct(")"):
            distinct = self._accept_keyword("DISTINCT")
            if self._current.type is TokenType.OPERATOR and self._current.value == "*":
                self._advance()
                args.append(ast.Star())
            else:
                args.append(self._expression())
            while self._accept_punct(","):
                args.append(self._expression())
            self._expect_punct(")")
        return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)

    # -- DDL / DML ----------------------------------------------------------

    def _create_table(self) -> ast.CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_identifier()
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        foreign_keys: list[ast.ForeignKeyDef] = []
        while True:
            if self._check_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                self._expect_punct("(")
                pk_col = self._expect_identifier()
                self._expect_punct(")")
                for index, col in enumerate(columns):
                    if col.name.lower() == pk_col.lower():
                        columns[index] = replace(col, primary_key=True)
                        break
            elif self._check_keyword("FOREIGN"):
                self._advance()
                self._expect_keyword("KEY")
                self._expect_punct("(")
                fk_col = self._expect_identifier()
                self._expect_punct(")")
                self._expect_keyword("REFERENCES")
                ref_table = self._expect_identifier()
                self._expect_punct("(")
                ref_col = self._expect_identifier()
                self._expect_punct(")")
                foreign_keys.append(ast.ForeignKeyDef(fk_col, ref_table, ref_col))
            else:
                columns.append(self._column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateTable(
            name=name, columns=tuple(columns), foreign_keys=tuple(foreign_keys)
        )

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        token = self._current
        if token.type is TokenType.KEYWORD and token.value in _TYPE_KEYWORDS:
            self._advance()
            type_name = token.value
        elif token.type is TokenType.IDENTIFIER:
            self._advance()
            type_name = token.value.upper()
        else:
            raise ParseError(
                f"expected column type, found {token.value!r} "
                f"at offset {token.position}"
            )
        # optional (length) such as VARCHAR(255)
        if self._accept_punct("("):
            self._integer_literal()
            self._expect_punct(")")
        primary = False
        if self._accept_keyword("PRIMARY"):
            self._expect_keyword("KEY")
            primary = True
        return ast.ColumnDef(name=name, type_name=type_name, primary_key=primary)

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        columns: list[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_identifier())
            while self._accept_punct(","):
                columns.append(self._expect_identifier())
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows: list[tuple[ast.Expression, ...]] = []
        while True:
            self._expect_punct("(")
            rows.append(self._expression_list())
            self._expect_punct(")")
            if not self._accept_punct(","):
                break
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier()
        self._expect_keyword("SET")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self._expect_identifier()
            if not (
                self._current.type is TokenType.OPERATOR
                and self._current.value == "="
            ):
                raise ParseError("expected = in UPDATE assignment")
            self._advance()
            assignments.append((column, self._expression()))
            if not self._accept_punct(","):
                break
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    def _drop_table(self) -> ast.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._check_keyword("IS"):
            raise ParseError("malformed DROP TABLE")
        if self._current.type is TokenType.IDENTIFIER and (
            self._current.value.upper() == "IF"
        ):
            self._advance()
            if not (
                self._current.type is TokenType.KEYWORD
                and self._current.value == "EXISTS"
            ):
                raise ParseError("expected EXISTS after IF in DROP TABLE")
            self._advance()
            if_exists = True
        name = self._expect_identifier()
        return ast.DropTable(name=name, if_exists=if_exists)


#: Keywords that may double as identifiers in schemas (column named "date").
_SOFT_KEYWORDS = frozenset(
    {"DATE", "TEXT", "INTEGER", "INT", "REAL", "FLOAT", "BOOLEAN", "BOOL", "KEY", "ALL", "SET"}
)

_TYPE_KEYWORDS = frozenset(
    {"INTEGER", "INT", "REAL", "FLOAT", "TEXT", "VARCHAR", "DATE", "BOOLEAN", "BOOL"}
)


#: How many distinct query texts :func:`parse_query` keeps parsed. A full
#: set-up plus one sweep parses 2,104 distinct texts; twice that leaves
#: room for ``serve`` traffic on top.
PARSE_MEMO_SIZE = 4096


#: A statement text that starts like a query: :func:`parse_statement`
#: hands it to the query memo. A query behind a leading comment parses
#: unmemoized, which costs only the parse.
_QUERY_START = re.compile(r"\s*(?:\(|SELECT\b)", re.IGNORECASE)


def parse_statement(text: str) -> ast.Statement:
    """Parse one SQL statement.

    A query shares :func:`parse_query`'s memo, so a repeated query text
    gets the same tree; DDL and DML are rare and are not memoized.
    """
    parse = _parse_query if _QUERY_START.match(text) else _parse_statement
    return _counted_parse(parse, text)


def parse_query(text: str) -> ast.Query:
    """Parse a SELECT (or set-operation) query.

    Each distinct text is parsed once per process and its frozen tree is
    shared by every caller, up to :data:`PARSE_MEMO_SIZE` texts (least
    recently used first out). A text that does not parse is not
    memoized: it raises, and is counted, on every call.
    """
    return _counted_parse(_parse_query, text)


def parse_select(text: str) -> Optional[ast.Select]:
    """The text's plain SELECT, or None when it does not parse or is a set
    operation (the shape every generated, edited or judged query has)."""
    try:
        parsed = parse_query(text)
    except SqlError:
        return None
    return parsed if isinstance(parsed, ast.Select) else None


def _parse_statement(text: str) -> ast.Statement:
    from repro import obs

    obs.count("sql.parse.misses")
    return Parser(text).parse_statement()


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_query(text: str) -> ast.Query:
    from repro import obs

    # Runs only when the memo misses, so this counts real parses.
    obs.count("sql.parse.misses")
    return Parser(text).parse_query()


def _counted_parse(parse, text: str):
    from repro import obs

    if not obs.is_enabled():
        return parse(text)
    obs.count("sql.parse.calls")
    try:
        return parse(text)
    except SqlError:
        obs.count("sql.parse.failures")
        raise


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone SQL expression."""
    return Parser(text).parse_expression()
