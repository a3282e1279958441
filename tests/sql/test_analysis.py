"""AST analysis: conjuncts, table usage, and the gold-vs-pred diff."""

from repro.sql import ast
from repro.sql.analysis import (
    conjuncts,
    diff_queries,
    join_conjuncts,
    tables_used,
)
from repro.sql.parser import parse_expression, parse_query


def deltas_of(gold_sql, pred_sql):
    return diff_queries(parse_query(gold_sql), parse_query(pred_sql))


class TestConjuncts:
    def test_flatten_and_chain(self):
        parts = conjuncts(parse_expression("a = 1 AND b = 2 AND c = 3"))
        assert len(parts) == 3

    def test_or_not_flattened(self):
        parts = conjuncts(parse_expression("a = 1 OR b = 2"))
        assert len(parts) == 1

    def test_none_is_empty(self):
        assert conjuncts(None) == []

    def test_join_roundtrip(self):
        expr = parse_expression("a = 1 AND b = 2")
        assert conjuncts(join_conjuncts(conjuncts(expr))) == conjuncts(expr)

    def test_join_empty(self):
        assert join_conjuncts([]) is None


class TestUsage:
    def test_tables_used_includes_joins_and_subqueries(self):
        q = parse_query(
            "SELECT a FROM t JOIN u ON t.id = u.id "
            "WHERE a IN (SELECT a FROM v)"
        )
        assert tables_used(q) == {"t", "u", "v"}


class TestSelectDiff:
    def test_identical_queries_no_deltas(self):
        assert deltas_of("SELECT a FROM t", "SELECT a FROM t") == []

    def test_qualifier_ignored(self):
        assert deltas_of(
            "SELECT T1.a FROM t AS T1", "SELECT a FROM t"
        ) == []

    def test_select_edit(self):
        (delta,) = deltas_of("SELECT song_name FROM t", "SELECT name FROM t")
        assert (delta.kind, delta.action) == ("select", "edit")

    def test_select_remove(self):
        (delta,) = deltas_of(
            "SELECT name FROM t", "SELECT name, description FROM t"
        )
        assert (delta.kind, delta.action) == ("select", "remove")

    def test_select_add(self):
        (delta,) = deltas_of(
            "SELECT name, age FROM t", "SELECT name FROM t"
        )
        assert (delta.kind, delta.action) == ("select", "add")

    def test_aggregate_paired_as_edit(self):
        (delta,) = deltas_of(
            "SELECT COUNT(DISTINCT a) FROM t", "SELECT COUNT(a) FROM t"
        )
        assert (delta.kind, delta.action) == ("select", "edit")


class TestWhereDiff:
    def test_literal_edit_same_column(self):
        deltas = deltas_of(
            "SELECT a FROM t WHERE d >= '2024-01-01'",
            "SELECT a FROM t WHERE d >= '2023-01-01'",
        )
        assert [(d.kind, d.action) for d in deltas] == [("where", "edit")]

    def test_missing_condition(self):
        (delta,) = deltas_of(
            "SELECT a FROM t WHERE status = 'active'", "SELECT a FROM t"
        )
        assert (delta.kind, delta.action) == ("where", "add")

    def test_extra_condition(self):
        (delta,) = deltas_of(
            "SELECT a FROM t", "SELECT a FROM t WHERE b = 1"
        )
        assert (delta.kind, delta.action) == ("where", "remove")

    def test_join_conditions_excluded(self):
        deltas = deltas_of(
            "SELECT a FROM t JOIN u ON t.id = u.id",
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE t.id = u.id",
        )
        assert deltas == []


class TestOtherDiffs:
    def test_table_edit(self):
        (delta,) = deltas_of("SELECT a FROM t", "SELECT a FROM u")
        assert (delta.kind, delta.action) == ("table", "edit")
        assert delta.gold == "t"

    def test_missing_table_add(self):
        deltas = deltas_of(
            "SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id",
            "SELECT a FROM t",
        )
        kinds = {(d.kind, d.action) for d in deltas}
        assert ("table", "add") in kinds

    def test_order_direction_edit(self):
        deltas = deltas_of(
            "SELECT a FROM t ORDER BY a DESC", "SELECT a FROM t ORDER BY a ASC"
        )
        assert [(d.kind, d.action) for d in deltas] == [("order", "edit")]

    def test_order_missing(self):
        (delta,) = deltas_of(
            "SELECT a FROM t ORDER BY a ASC", "SELECT a FROM t"
        )
        assert (delta.kind, delta.action) == ("order", "add")

    def test_limit_edit_and_add(self):
        (edit,) = deltas_of("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 3")
        assert (edit.kind, edit.action) == ("limit", "edit")
        (add,) = deltas_of("SELECT a FROM t LIMIT 5", "SELECT a FROM t")
        assert (add.kind, add.action) == ("limit", "add")

    def test_distinct_add(self):
        (delta,) = deltas_of("SELECT DISTINCT a FROM t", "SELECT a FROM t")
        assert (delta.kind, delta.action) == ("distinct", "add")

    def test_group_by_add(self):
        deltas = deltas_of(
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            "SELECT a, COUNT(*) FROM t",
        )
        assert ("group", "add") in {(d.kind, d.action) for d in deltas}

    def test_structure_mismatch(self):
        deltas = diff_queries(
            parse_query("SELECT a FROM t UNION SELECT a FROM u"),
            parse_query("SELECT a FROM t"),
        )
        assert deltas[0].kind == "structure"

    def test_count_errors(self):
        gold = parse_query("SELECT name FROM t WHERE status = 'a' LIMIT 3")
        pred = parse_query("SELECT name, description FROM t")
        assert len(diff_queries(gold, pred)) == 3
