"""Printer tests including the parse∘print round-trip property."""

import math
import sqlite3
import sys
import threading
import time

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sql import ast
from repro.sql.engine import Database
from repro.sql.parser import parse_expression, parse_query, parse_statement
from repro.sql.tokens import KEYWORDS
from repro.sql.printer import (
    IDENTIFIER_MEMO_SIZE,
    SQLITE_RESERVED,
    format_identifier,
    format_literal,
    print_expression,
    print_query,
    print_statement,
)


class TestLiterals:
    def test_null(self):
        assert format_literal(None) == "NULL"

    def test_booleans(self):
        assert format_literal(True) == "TRUE"
        assert format_literal(False) == "FALSE"

    def test_string_escaping(self):
        assert format_literal("it's") == "'it''s'"

    def test_numbers(self):
        assert format_literal(42) == "42"
        assert format_literal(2.5) == "2.5"

    def test_infinity_round_trips(self):
        # The lexer reads 1e999 as an infinite float literal.
        tree = parse_query("SELECT 1e999")
        assert tree.items[0].expression == ast.Literal(math.inf)
        assert print_query(tree) == "SELECT 1e999"
        assert parse_query(print_query(tree)) == tree

    def test_negative_infinity_reparses_as_a_negation(self):
        select = ast.Select(items=(ast.SelectItem(ast.Literal(-math.inf)),))
        assert print_query(select) == "SELECT -1e999"
        # As every negative literal does: -5.0 reads back as -(5.0).
        assert parse_query(print_query(select)).items[0].expression == (
            ast.UnaryOp(ast.UnaryOperator.NEG, ast.Literal(math.inf))
        )

    def test_sqlite_runs_the_printed_infinities(self):
        database = Database.from_ddl("inf", "CREATE TABLE t (id INTEGER, x REAL)")
        assert database.query("SELECT 1e999, -1e999").rows == [
            (math.inf, -math.inf)
        ]
        database.execute("INSERT INTO t VALUES (2, -1e999)")
        assert database.query("SELECT id, x FROM t").rows == [(2, -math.inf)]

    def test_nan_prints_as_null_and_answers_like_a_bound_nan(self):
        # SQL has no NaN literal, and SQLite turns every NaN into NULL.
        select = ast.Select(items=(ast.SelectItem(ast.Literal(math.nan)),))
        assert print_query(select) == "SELECT NULL"
        bound = sqlite3.connect(":memory:")
        try:
            answer = bound.execute("SELECT ?", (math.nan,)).fetchall()
            assert bound.execute("SELECT 1e999 - 1e999").fetchall() == answer
        finally:
            bound.close()
        database = Database.from_ddl("nan", "CREATE TABLE t (x REAL)")
        assert database.query(print_query(select)).rows == answer == [(None,)]


class TestIdentifiers:
    def test_plain(self):
        assert format_identifier("name") == "name"

    def test_spaces_quoted(self):
        assert format_identifier("two words") == '"two words"'

    def test_leading_digit_quoted(self):
        assert format_identifier("1abc") == '"1abc"'

    def test_empty(self):
        assert format_identifier("") == '""'

    def test_keywords_quoted(self):
        assert format_identifier("order") == '"order"'  # the lexer's keyword
        assert format_identifier("Date") == '"Date"'  # a soft keyword
        assert format_identifier("index") == '"index"'  # SQLite's keyword
        assert format_identifier("match") == "match"  # works bare in SQLite

    def test_embedded_quote_doubled(self):
        assert format_identifier('a"b') == '"a""b"'
        assert format_identifier('"') == '""""'

    def test_embedded_quote_roundtrip_runs(self):
        query = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef('a"b')),),
            source=ast.TableRef('q"t'),
        )
        sql = print_query(query)
        assert sql == 'SELECT "a""b" FROM "q""t"'
        assert parse_query(sql) == query
        database = Database.from_ddl("quotes", 'CREATE TABLE "q""t" ("a""b" INTEGER)')
        database.data('q"t').insert((7,))
        assert database.execute_ast(parse_query(sql)).rows == [(7,)]

    def test_keyword_identifiers_roundtrip(self):
        sql = (
            'SELECT "order", "index".match FROM "select" AS "index" '
            'WHERE "date" > 3 ORDER BY "order" ASC'
        )
        query = parse_query(sql)
        assert print_query(query) == sql
        assert parse_query(print_query(query)) == query


def _reference_format_identifier(name):
    """The quoting rule, applied to the name anew on every call."""
    if (
        not name
        or any(ch in " -+/*().,;'\"`" for ch in name)
        or not (name[0].isalpha() or name[0] == "_")
        or name.upper() in KEYWORDS | SQLITE_RESERVED
    ):
        return '"' + name.replace('"', '""') + '"'
    return name


_KEYWORD_NAMES = sorted(KEYWORDS | SQLITE_RESERVED)
_IDENTIFIER_NAMES = (
    _KEYWORD_NAMES
    + [word.lower() for word in _KEYWORD_NAMES]
    + [word.capitalize() for word in _KEYWORD_NAMES]
    + ['a"b', '"', '""x', "two words", " lead", "1abc", "9", "_x", "x1", ""]
    + ["été", "Ünïcode", "naïve_col", "名前", "Ωmega", "²x", "ǅz", "x-y", "ab`c"]
    + ["MiXeD", "camelCase", "Song_Name", "singer_id", "SELECTED", "orders"]
)


class TestIdentifierMemo:
    """``format_identifier`` keeps each name's quoting, bounded."""

    def test_every_name_is_quoted_by_the_rule(self):
        for name in _IDENTIFIER_NAMES:
            expected = _reference_format_identifier(name)
            # The first call may miss and the second hits.
            assert format_identifier(name) == expected, name
            assert format_identifier(name) == expected, name

    @given(
        st.one_of(
            st.text(max_size=8),
            st.text(alphabet="aZ_1 \"é-", max_size=6),
            st.sampled_from(_KEYWORD_NAMES).map(str.title),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_memo_equals_the_rule(self, name):
        assert format_identifier(name) == _reference_format_identifier(name)
        assert format_identifier(name) == _reference_format_identifier(name)

    def test_threads_keep_the_memo_within_its_cap(self):
        # Every third name needs quotes; 2,048 more names than the memo holds.
        names = [
            f"col_{i}" if i % 3 else f"Col {i}"
            for i in range(IDENTIFIER_MEMO_SIZE + 2048)
        ]
        format_identifier.cache_clear()
        deadline = time.monotonic() + 30.0
        problems: list[str] = []

        def worker(offset: int) -> None:
            order = (names[offset:] + names[:offset])[: len(names) // 4]
            for name in order:
                if time.monotonic() > deadline:
                    return
                if format_identifier(name) != _reference_format_identifier(name):
                    problems.append(f"wrong quoting for {name!r}")
                size = format_identifier.cache_info().currsize
                if size > IDENTIFIER_MEMO_SIZE:
                    problems.append(f"memo holds {size} names")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k * len(names) // 8,))
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            info = format_identifier.cache_info()
            format_identifier.cache_clear()
        assert not any(thread.is_alive() for thread in threads)
        assert not problems, problems[:5]
        assert info.currsize == IDENTIFIER_MEMO_SIZE
        assert info.misses > IDENTIFIER_MEMO_SIZE


#: SQLite 3.40.1's keywords (https://www.sqlite.org/lang_keywords.html).
SQLITE_KEYWORDS = tuple(
    word.lower()
    for word in """
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH
    AUTOINCREMENT BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED
    DELETE DESC DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUDE
    EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM
    FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX
    INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS ISNULL JOIN KEY
    LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING NOTNULL
    NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS
    SAVEPOINT SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION
    TRIGGER UNBOUNDED UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL
    WHEN WHERE WINDOW WITH WITHOUT
    """.split()
)


class TestKeywordIdentifiersOnSqlite:
    """Printed SQL names keyword columns and tables so SQLite reads names."""

    def test_keyword_list(self):
        assert len(SQLITE_KEYWORDS) == len(set(SQLITE_KEYWORDS)) == 147
        assert {word.upper() for word in SQLITE_KEYWORDS} >= SQLITE_RESERVED

    def test_every_keyword_names_a_column(self):
        columns = ", ".join(f'"{word}" INTEGER' for word in SQLITE_KEYWORDS)
        database = Database.from_ddl("keywords", f"CREATE TABLE t ({columns})")
        database.data("t").insert(range(len(SQLITE_KEYWORDS)))
        for value, word in enumerate(SQLITE_KEYWORDS):
            query = parse_query(
                f'SELECT "{word}", t."{word}" FROM t '
                f'WHERE "{word}" = {value} ORDER BY "{word}"'
            )
            assert database.execute_ast(query).rows == [(value, value)], word

    def test_every_keyword_names_a_table(self):
        database = Database.from_ddl(
            "keywords",
            "; ".join(
                f'CREATE TABLE "{word}" (x INTEGER)' for word in SQLITE_KEYWORDS
            ),
        )
        for value, word in enumerate(SQLITE_KEYWORDS):
            database.data(word).insert((value,))
        for value, word in enumerate(SQLITE_KEYWORDS):
            query = parse_query(
                f'SELECT "{word}".x FROM "{word}" JOIN "{word}" AS other '
                f'ON "{word}".x = other.x'
            )
            assert database.execute_ast(query).rows == [(value,)], word


class TestCanonicalForms:
    def test_simple_select(self):
        sql = "SELECT a FROM t WHERE a > 3"
        assert print_query(parse_query(sql)) == sql

    def test_join_printing(self):
        sql = "SELECT T1.a, T2.b FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id"
        assert print_query(parse_query(sql)) == sql

    def test_precedence_parens_preserved_semantically(self):
        expr = parse_expression("(1 + 2) * 3")
        printed = print_expression(expr)
        assert parse_expression(printed) == expr

    def test_arithmetic_under_concat_is_parenthesized(self):
        # SQLite binds || tighter than * and +; the parentheses keep the
        # printed text meaning the tree the parser built.
        for text, printed in (
            ("2 * 3 || 'x'", "(2 * 3) || 'x'"),
            ("1 + 2 || 'x'", "(1 + 2) || 'x'"),
            ("'x' || 1 + 2", "'x' || 1 + 2"),
        ):
            expr = parse_expression(text)
            assert print_expression(expr) == printed
            assert parse_expression(printed) == expr

    def test_statement_printing(self):
        sql = "INSERT INTO t (a, b) VALUES (1, 'x')"
        assert print_statement(parse_statement(sql)) == sql

    def test_create_table_roundtrip(self):
        sql = (
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, "
            "FOREIGN KEY (pid) REFERENCES p(id))"
        )
        assert parse_statement(print_statement(parse_statement(sql))) == (
            parse_statement(sql)
        )

    def test_update_delete_drop(self):
        for sql in (
            "UPDATE t SET a = 1 WHERE b = 2",
            "DELETE FROM t WHERE a = 1",
            "DROP TABLE IF EXISTS t",
        ):
            assert parse_statement(print_statement(parse_statement(sql))) == (
                parse_statement(sql)
            )


# ---------------------------------------------------------------------------
# Round-trip property: parse(print(q)) == q for generated queries
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "price", "name", "created_date"])
_tables = st.sampled_from(["t", "u", "products", "singer"])


def _literals():
    return st.one_of(
        # Non-negative: the parser represents -1 as NEG(1), so negative
        # Literal nodes are not canonical forms.
        st.integers(min_value=0, max_value=1000).map(ast.Literal),
        st.sampled_from(["x", "it's", "2024-01-01", ""]).map(ast.Literal),
        st.just(ast.Literal(None)),
        st.booleans().map(ast.Literal),
    )


def _column_refs():
    return st.builds(
        ast.ColumnRef,
        column=_names,
        table=st.one_of(st.none(), _tables),
    )


def _expressions(depth=2):
    base = st.one_of(_literals(), _column_refs())
    if depth == 0:
        return base
    sub = _expressions(depth - 1)
    return st.one_of(
        base,
        st.builds(
            ast.BinaryOp,
            op=st.sampled_from(
                [
                    ast.BinaryOperator.ADD,
                    ast.BinaryOperator.MUL,
                    ast.BinaryOperator.EQ,
                    ast.BinaryOperator.LT,
                    ast.BinaryOperator.AND,
                    ast.BinaryOperator.OR,
                ]
            ),
            left=sub,
            right=sub,
        ),
        st.builds(
            ast.FunctionCall,
            name=st.sampled_from(["COUNT", "SUM", "MIN", "LOWER"]),
            args=st.lists(sub, min_size=1, max_size=2).map(tuple),
            distinct=st.booleans(),
        ),
        st.builds(ast.IsNull, operand=sub, negated=st.booleans()),
        st.builds(
            ast.Between, operand=sub, low=sub, high=sub, negated=st.booleans()
        ),
        st.builds(
            ast.InList,
            operand=sub,
            items=st.lists(_literals(), min_size=1, max_size=3).map(tuple),
            negated=st.booleans(),
        ),
    )


def _order_items():
    return st.lists(
        st.builds(
            ast.OrderItem,
            expression=_column_refs(),
            order=st.sampled_from(list(ast.SortOrder)),
        ),
        max_size=2,
    ).map(tuple)


def _selects():
    return st.builds(
        ast.Select,
        items=st.lists(
            st.builds(
                ast.SelectItem,
                expression=_expressions(1),
                alias=st.one_of(st.none(), _names),
            ),
            min_size=1,
            max_size=3,
        ).map(tuple),
        source=st.one_of(
            st.none(),
            st.builds(ast.TableRef, name=_tables, alias=st.one_of(st.none(), st.just("T1"))),
        ),
        where=st.one_of(st.none(), _expressions(1)),
        group_by=st.lists(_column_refs(), max_size=2).map(tuple),
        order_by=_order_items(),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
        distinct=st.booleans(),
    )


def _set_operations():
    """Compound queries whose operands may order and limit themselves.

    The parser reads ``a UNION b UNION c`` left-deep and has no
    parenthesized compounds, so only the outermost node orders or limits.
    """
    bare = st.builds(
        ast.SetOperation,
        op=st.sampled_from(list(ast.SetOperator)),
        left=_selects(),
        right=_selects(),
    )
    return st.builds(
        ast.SetOperation,
        op=st.sampled_from(list(ast.SetOperator)),
        left=st.one_of(_selects(), bare),
        right=_selects(),
        order_by=_order_items(),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    )


@given(_expressions(2))
@settings(max_examples=200, deadline=None)
def test_expression_roundtrip(expr):
    printed = print_expression(expr)
    reparsed = parse_expression(printed)
    assert reparsed == expr, printed


@given(_selects())
@settings(max_examples=200, deadline=None)
def test_select_roundtrip(select):
    printed = print_query(select)
    reparsed = parse_query(printed)
    assert reparsed == select, printed


@given(_set_operations())
@settings(max_examples=200, deadline=None)
def test_set_operation_roundtrip(query):
    printed = print_query(query)
    reparsed = parse_query(printed)
    assert reparsed == query, printed
