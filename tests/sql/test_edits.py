"""Typed edit operations on SELECT ASTs."""

import dataclasses

import pytest

from repro.errors import EditError
from repro.sql import ast
from repro.sql.edits import (
    AddGroupKey,
    AddSelectItem,
    AddWhereConjunct,
    RemoveGroupKey,
    RemoveSelectItem,
    RemoveWhereConjunct,
    ReplaceAggregate,
    ReplaceColumn,
    ReplaceLiteral,
    ReplaceQuery,
    ReplaceSelectItem,
    ReplaceTable,
    ReplaceWhereConjunct,
    SetDistinct,
    SetLimit,
    SetOrderBy,
    SetSource,
)
from repro.sql.parser import Parser, parse_expression, parse_query
from repro.sql.printer import print_query


def q(sql):
    return parse_query(sql)


def item(*columns):
    return tuple(ast.SelectItem(ast.ColumnRef(column)) for column in columns)


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

    def test_add_at_a_position(self):
        age = parse_expression("age")
        assert apply(
            AddSelectItem(expression=age, position=0), "SELECT name, id FROM t"
        ) == "SELECT age, name, id FROM t"
        assert apply(
            AddSelectItem(expression=age, position=1), "SELECT name, id FROM t"
        ) == "SELECT name, age, id FROM t"
        # A position past the end is clamped to the list.
        assert apply(
            AddSelectItem(expression=age, position=9), "SELECT name FROM t"
        ) == "SELECT name, age FROM t"

    def test_add_duplicate_raises(self):
        with pytest.raises(EditError):
            AddSelectItem(expression=parse_expression("name")).apply(
                q("SELECT name FROM t")
            )

    def test_remove(self):
        out = apply(
            RemoveSelectItem(item("description")),
            "SELECT name, description FROM t",
        )
        assert out == "SELECT name FROM t"

    def test_remove_only_item_raises(self):
        with pytest.raises(EditError):
            RemoveSelectItem(item("name")).apply(q("SELECT name FROM t"))

    def test_remove_absent_raises(self):
        with pytest.raises(EditError):
            RemoveSelectItem(item("zzz")).apply(q("SELECT a, b FROM t"))

    def test_remove_every_item_raises(self):
        with pytest.raises(EditError):
            RemoveSelectItem(item("a", "b")).apply(q("SELECT a, b FROM t"))

    def test_replace_names_one_item(self):
        out = apply(
            ReplaceSelectItem(
                old=ast.SelectItem(parse_expression("COUNT(a)")),
                new=ast.SelectItem(parse_expression("COUNT(DISTINCT a)")),
            ),
            "SELECT a, COUNT(a) FROM t",
        )
        assert out == "SELECT a, COUNT(DISTINCT a) FROM t"

    def test_replace_absent_raises(self):
        with pytest.raises(EditError):
            ReplaceSelectItem(
                old=ast.SelectItem(parse_expression("b")),
                new=ast.SelectItem(parse_expression("c")),
            ).apply(q("SELECT a FROM t"))


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
        out = apply(
            RemoveWhereConjunct((parse_expression("b = 2"),)),
            "SELECT x FROM t WHERE a = 1 AND b = 2",
        )
        assert out == "SELECT x FROM t WHERE a = 1"

    def test_remove_last_conjunct_clears_where(self):
        out = apply(
            RemoveWhereConjunct((parse_expression("a = 1"),)),
            "SELECT x FROM t WHERE a = 1",
        )
        assert out == "SELECT x FROM t"

    def test_remove_absent_conjunct_raises(self):
        with pytest.raises(EditError):
            RemoveWhereConjunct(()).apply(q("SELECT x FROM t WHERE a = 1"))

    def test_replace_conjunct(self):
        out = apply(
            ReplaceWhereConjunct(
                old=parse_expression("a = 1"),
                condition=parse_expression("a = 9"),
            ),
            "SELECT x FROM t WHERE a = 1",
        )
        assert out == "SELECT x FROM t WHERE a = 9"

    def test_replace_acts_on_the_first_equal_conjunct(self):
        out = apply(
            ReplaceWhereConjunct(
                old=parse_expression("a = 1"),
                condition=parse_expression("a = 9"),
            ),
            "SELECT x FROM t WHERE b = 2 AND a = 1 AND a = 1",
        )
        assert out == "SELECT x FROM t WHERE b = 2 AND a = 9 AND a = 1"

    def test_replace_no_match_raises(self):
        with pytest.raises(EditError):
            ReplaceWhereConjunct(
                old=parse_expression("a = 2"), condition=parse_expression("a = 9")
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

    def test_group_keys(self):
        key = parse_expression("b")
        out = apply(AddGroupKey(key), "SELECT b, COUNT(*) FROM t")
        assert out == "SELECT b, COUNT(*) FROM t GROUP BY b"
        out = apply(RemoveGroupKey(key), "SELECT COUNT(*) FROM t GROUP BY a, b")
        assert out == "SELECT COUNT(*) FROM t GROUP BY a"
        with pytest.raises(EditError):
            AddGroupKey(key).apply(q("SELECT b FROM t GROUP BY b"))
        with pytest.raises(EditError):
            RemoveGroupKey(key).apply(q("SELECT b FROM t"))

    def test_set_source_takes_the_whole_from_clause(self):
        joined = q("SELECT T1.b FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id")
        op = SetSource("u", joined.source)
        assert apply(op, "SELECT b FROM t") == (
            "SELECT b FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id"
        )
        assert op.feedback_type == "add"
        dropped = SetSource("u", q("SELECT b FROM t").source, joined=False)
        assert apply(dropped, "SELECT b FROM t JOIN u ON t.id = u.id") == (
            "SELECT b FROM t"
        )
        assert dropped.feedback_type == "remove"

    def test_set_source_requalifies_columns(self):
        joined = "SELECT T1.b, T2.c FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id"
        # T1 names t, which the new clause names t; u is gone, so T2 stays.
        dropped = SetSource("u", q("SELECT b FROM t").source, joined=False)
        assert apply(dropped, joined) == "SELECT t.b, T2.c FROM t"
        aliased = SetSource(
            "v", q("SELECT * FROM v AS A JOIN t AS B ON A.id = B.id").source
        )
        assert apply(aliased, "SELECT t.b, t.* FROM t WHERE t.b > 1") == (
            "SELECT B.b, B.* FROM v AS A JOIN t AS B ON A.id = B.id "
            "WHERE B.b > 1"
        )

    def test_replace_query(self):
        replacement = q("SELECT b FROM u")
        assert apply(ReplaceQuery(new_query=replacement), "SELECT a FROM t") == (
            "SELECT b FROM u"
        )


def every_operation():
    return [
        ReplaceColumn(old="a", new="b"),
        ReplaceLiteral(old="x", new="y"),
        ReplaceAggregate("SUM"),
        AddSelectItem(expression=parse_expression("a")),
        RemoveSelectItem(item("a")),
        ReplaceSelectItem(old=item("a")[0], new=item("b")[0]),
        AddWhereConjunct(condition=parse_expression("a = 1")),
        RemoveWhereConjunct((parse_expression("a = 1"),)),
        ReplaceWhereConjunct(
            old=parse_expression("a = 2"), condition=parse_expression("a = 1")
        ),
        AddGroupKey(parse_expression("a")),
        RemoveGroupKey(parse_expression("a")),
        SetSource("t", q("SELECT a FROM t").source),
        SetOrderBy(()),
        SetLimit(1),
        SetDistinct(True),
        ReplaceTable(old="a", new="b"),
        ReplaceQuery(new_query=q("SELECT 1")),
    ]


class TestDescriptions:
    def test_all_ops_have_descriptions(self):
        for op in every_operation():
            assert isinstance(op.describe(), str) and op.describe()

    def test_all_ops_are_plain_data(self):
        # No field holds a callable, so an operation prints, compares and
        # hashes by the nodes it names.
        for op, again in zip(every_operation(), every_operation()):
            assert op == again and hash(op) == hash(again)
            for field in dataclasses.fields(op):
                assert not callable(getattr(op, field.name)), (op, field.name)
