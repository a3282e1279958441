"""Typed edit operations on SELECT ASTs."""

import pytest

from repro.errors import EditError
from repro.sql import ast
from repro.sql.edits import (
    AddSelectItem,
    AddWhereConjunct,
    RemoveSelectItem,
    RemoveWhereConjunct,
    ReplaceAggregate,
    ReplaceColumn,
    ReplaceLiteral,
    ReplaceQuery,
    ReplaceTable,
    ReplaceWhereConjunct,
    SetDistinct,
    SetLimit,
    SetOrderBy,
)
from repro.sql.parser import Parser, parse_expression, parse_query
from repro.sql.printer import print_query


def q(sql):
    return parse_query(sql)


def apply(op, sql):
    query = q(sql)
    out = op.apply(query)
    # Edits are pure: the input still equals a fresh parse of its text.
    assert query == Parser(sql).parse_query()
    return print_query(out)


class TestReplaceColumn:
    def test_select_list_rename(self):
        out = apply(
            ReplaceColumn(old="name", new="song_name"),
            "SELECT name FROM singer WHERE name = 'X'",
        )
        assert out == "SELECT song_name FROM singer WHERE name = 'X'"

    def test_everywhere(self):
        out = apply(
            ReplaceColumn(old="name", new="song_name", everywhere=True),
            "SELECT name FROM singer WHERE name = 'X'",
        )
        assert out == "SELECT song_name FROM singer WHERE song_name = 'X'"

    def test_missing_column_raises(self):
        with pytest.raises(EditError):
            ReplaceColumn(old="nope", new="x").apply(q("SELECT a FROM t"))

    def test_original_untouched(self):
        original = q("SELECT name FROM t")
        ReplaceColumn(old="name", new="x").apply(original)
        assert print_query(original) == "SELECT name FROM t"


class TestReplaceLiteral:
    def test_exact_value(self):
        out = apply(
            ReplaceLiteral(old="active", new="inactive"),
            "SELECT a FROM t WHERE status = 'active'",
        )
        assert "'inactive'" in out

    def test_substring_year_in_dates(self):
        out = apply(
            ReplaceLiteral(old="2023", new="2024"),
            "SELECT COUNT(*) FROM t WHERE d >= '2023-01-01' AND d < '2023-02-01'",
        )
        assert "'2024-01-01'" in out and "'2024-02-01'" in out

    def test_case_insensitive_match(self):
        out = apply(
            ReplaceLiteral(old="ACTIVE", new="x"),
            "SELECT a FROM t WHERE s = 'active'",
        )
        assert "'x'" in out

    def test_missing_literal_raises(self):
        with pytest.raises(EditError):
            ReplaceLiteral(old="zzz", new="y").apply(q("SELECT a FROM t"))


class TestAggregates:
    def test_replace_function(self):
        out = apply(
            ReplaceAggregate("SUM", old_function="COUNT"),
            "SELECT COUNT(price) FROM t",
        )
        assert out == "SELECT SUM(price) FROM t"

    def test_set_distinct_flag(self):
        out = apply(
            ReplaceAggregate("COUNT", old_function="COUNT", distinct=True),
            "SELECT COUNT(country) FROM t",
        )
        assert out == "SELECT COUNT(DISTINCT country) FROM t"

    def test_distinct_on_star_raises(self):
        with pytest.raises(EditError):
            ReplaceAggregate("COUNT", distinct=True).apply(
                q("SELECT COUNT(*) FROM t")
            )

    def test_replace_argument(self):
        out = apply(
            ReplaceAggregate(
                "SUM", new_argument=parse_expression("sales"), old_function="COUNT"
            ),
            "SELECT COUNT(*) FROM t",
        )
        assert out == "SELECT SUM(sales) FROM t"

    def test_no_aggregate_raises(self):
        with pytest.raises(EditError):
            ReplaceAggregate("SUM").apply(q("SELECT a FROM t"))


class TestSelectItems:
    def test_add(self):
        out = apply(
            AddSelectItem(expression=parse_expression("age")),
            "SELECT name FROM t",
        )
        assert out == "SELECT name, age FROM t"

    def test_add_duplicate_raises(self):
        with pytest.raises(EditError):
            AddSelectItem(expression=parse_expression("name")).apply(
                q("SELECT name FROM t")
            )

    def test_remove(self):
        out = apply(
            RemoveSelectItem(column="description"),
            "SELECT name, description FROM t",
        )
        assert out == "SELECT name FROM t"

    def test_remove_only_item_raises(self):
        with pytest.raises(EditError):
            RemoveSelectItem(column="name").apply(q("SELECT name FROM t"))

    def test_remove_absent_raises(self):
        with pytest.raises(EditError):
            RemoveSelectItem(column="zzz").apply(q("SELECT a, b FROM t"))


class TestWhereEdits:
    def test_add_conjunct_to_empty(self):
        out = apply(
            AddWhereConjunct(condition=parse_expression("status = 'a'")),
            "SELECT name FROM t",
        )
        assert out == "SELECT name FROM t WHERE status = 'a'"

    def test_add_conjunct_appends(self):
        out = apply(
            AddWhereConjunct(condition=parse_expression("b = 2")),
            "SELECT name FROM t WHERE a = 1",
        )
        assert out == "SELECT name FROM t WHERE a = 1 AND b = 2"

    def test_add_duplicate_raises(self):
        with pytest.raises(EditError):
            AddWhereConjunct(condition=parse_expression("a = 1")).apply(
                q("SELECT x FROM t WHERE a = 1")
            )

    def test_remove_conjunct(self):
        def mentions_b(expr):
            return any(
                isinstance(n, ast.ColumnRef) and n.column == "b"
                for n in ast.walk_expressions(expr)
            )

        out = apply(
            RemoveWhereConjunct(matcher=mentions_b),
            "SELECT x FROM t WHERE a = 1 AND b = 2",
        )
        assert out == "SELECT x FROM t WHERE a = 1"

    def test_remove_last_conjunct_clears_where(self):
        out = apply(
            RemoveWhereConjunct(matcher=lambda e: True),
            "SELECT x FROM t WHERE a = 1",
        )
        assert out == "SELECT x FROM t"

    def test_replace_conjunct(self):
        out = apply(
            ReplaceWhereConjunct(
                matcher=lambda e: True,
                condition=parse_expression("a = 9"),
            ),
            "SELECT x FROM t WHERE a = 1",
        )
        assert out == "SELECT x FROM t WHERE a = 9"

    def test_replace_no_match_raises(self):
        with pytest.raises(EditError):
            ReplaceWhereConjunct(
                matcher=lambda e: False, condition=parse_expression("a = 9")
            ).apply(q("SELECT x FROM t WHERE a = 1"))


class TestClauseEdits:
    def test_set_order_by(self):
        op = SetOrderBy(
            (ast.OrderItem(ast.ColumnRef("age"), ast.SortOrder.DESC),)
        )
        assert apply(op, "SELECT a FROM t") == "SELECT a FROM t ORDER BY age DESC"
        assert op.feedback_type == "add"

    def test_clear_order_by(self):
        op = SetOrderBy(())
        assert apply(op, "SELECT a FROM t ORDER BY a ASC") == "SELECT a FROM t"
        assert op.feedback_type == "remove"

    def test_set_limit(self):
        assert apply(SetLimit(5), "SELECT a FROM t") == "SELECT a FROM t LIMIT 5"
        assert apply(SetLimit(None), "SELECT a FROM t LIMIT 5") == "SELECT a FROM t"

    def test_set_distinct(self):
        assert apply(SetDistinct(True), "SELECT a FROM t") == "SELECT DISTINCT a FROM t"
        with pytest.raises(EditError):
            SetDistinct(True).apply(q("SELECT DISTINCT a FROM t"))

    def test_replace_table(self):
        out = apply(
            ReplaceTable(old="dataset", new="segment"),
            "SELECT COUNT(*) FROM dataset",
        )
        assert out == "SELECT COUNT(*) FROM segment"

    def test_replace_missing_table_raises(self):
        with pytest.raises(EditError):
            ReplaceTable(old="x", new="y").apply(q("SELECT a FROM t"))

    def test_replace_query(self):
        replacement = q("SELECT b FROM u")
        assert apply(ReplaceQuery(new_query=replacement), "SELECT a FROM t") == (
            "SELECT b FROM u"
        )


class TestDescriptions:
    def test_all_ops_have_descriptions(self):
        ops = [
            ReplaceColumn(old="a", new="b"),
            ReplaceLiteral(old="x", new="y"),
            ReplaceAggregate("SUM"),
            AddSelectItem(expression=parse_expression("a")),
            RemoveSelectItem(column="a"),
            AddWhereConjunct(condition=parse_expression("a = 1")),
            RemoveWhereConjunct(matcher=lambda e: True),
            ReplaceWhereConjunct(
                matcher=lambda e: True, condition=parse_expression("a = 1")
            ),
            SetOrderBy(()),
            SetLimit(1),
            SetDistinct(True),
            ReplaceTable(old="a", new="b"),
            ReplaceQuery(new_query=q("SELECT 1")),
        ]
        for op in ops:
            assert isinstance(op.describe(), str) and op.describe()
