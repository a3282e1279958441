"""AST analysis: conjuncts, table usage, and the gold-vs-pred diff."""

import pytest

from repro.eval.metrics import execution_correct
from repro.sql import ast
from repro.sql.analysis import (
    conjuncts,
    join_conjuncts,
    tables_used,
)
from repro.sql.edits import (
    AddGroupKey,
    AddSelectItem,
    AddWhereConjunct,
    RemoveSelectItem,
    RemoveWhereConjunct,
    ReplaceSelectItem,
    ReplaceTable,
    ReplaceWhereConjunct,
    SetDistinct,
    SetLimit,
    SetOrderBy,
    SetSource,
    diff_queries,
)
from repro.sql.engine import Database
from repro.sql.parser import parse_expression, parse_query
from repro.sql.printer import print_select


def deltas_of(gold_sql, pred_sql):
    return diff_queries(parse_query(gold_sql), parse_query(pred_sql))


def types_of(gold_sql, pred_sql):
    return [type(op) for op in deltas_of(gold_sql, pred_sql)]


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
        (op,) = deltas_of("SELECT song_name FROM t", "SELECT name FROM t")
        assert op == ReplaceSelectItem(
            old=ast.SelectItem(ast.ColumnRef("name")),
            new=ast.SelectItem(ast.ColumnRef("song_name")),
        )

    def test_select_remove(self):
        (op,) = deltas_of(
            "SELECT name FROM t", "SELECT name, description FROM t"
        )
        assert op == RemoveSelectItem((ast.SelectItem(ast.ColumnRef("description")),))

    def test_select_add(self):
        (op,) = deltas_of(
            "SELECT name, age FROM t", "SELECT name FROM t"
        )
        assert op == AddSelectItem(ast.ColumnRef("age"), position=1)

    def test_aggregate_paired_as_edit(self):
        (op,) = deltas_of(
            "SELECT COUNT(DISTINCT a) FROM t", "SELECT COUNT(a) FROM t"
        )
        assert isinstance(op, ReplaceSelectItem)
        assert op.new.expression.distinct and not op.old.expression.distinct


class TestWhereDiff:
    def test_literal_edit_same_column(self):
        (op,) = deltas_of(
            "SELECT a FROM t WHERE d >= '2024-01-01'",
            "SELECT a FROM t WHERE d >= '2023-01-01'",
        )
        assert op == ReplaceWhereConjunct(
            old=parse_expression("d >= '2023-01-01'"),
            condition=parse_expression("d >= '2024-01-01'"),
        )

    def test_missing_condition(self):
        (op,) = deltas_of(
            "SELECT a FROM t WHERE status = 'active'", "SELECT a FROM t"
        )
        assert op == AddWhereConjunct(parse_expression("status = 'active'"))

    def test_extra_condition(self):
        (op,) = deltas_of(
            "SELECT a FROM t", "SELECT a FROM t WHERE b = 1"
        )
        assert op == RemoveWhereConjunct((parse_expression("b = 1"),))

    def test_join_conditions_excluded(self):
        deltas = deltas_of(
            "SELECT a FROM t JOIN u ON t.id = u.id",
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE t.id = u.id",
        )
        assert deltas == []


class TestOtherDiffs:
    def test_table_edit(self):
        (op,) = deltas_of("SELECT a FROM t", "SELECT a FROM u")
        assert op == ReplaceTable(old="u", new="t")

    def test_missing_table_add(self):
        gold = parse_query(
            "SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id"
        )
        deltas = diff_queries(gold, parse_query("SELECT a FROM t"))
        assert SetSource("u", gold.source) in deltas

    def test_order_direction_edit(self):
        assert types_of(
            "SELECT a FROM t ORDER BY a DESC", "SELECT a FROM t ORDER BY a ASC"
        ) == [SetOrderBy]

    def test_order_missing(self):
        (op,) = deltas_of(
            "SELECT a FROM t ORDER BY a ASC", "SELECT a FROM t"
        )
        assert op == SetOrderBy(
            (ast.OrderItem(ast.ColumnRef("a"), ast.SortOrder.ASC),)
        )

    def test_limit_edit_and_add(self):
        (edit,) = deltas_of("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 3")
        assert edit == SetLimit(5)
        (add,) = deltas_of("SELECT a FROM t LIMIT 5", "SELECT a FROM t")
        assert add == SetLimit(5)

    def test_distinct_add(self):
        (op,) = deltas_of("SELECT DISTINCT a FROM t", "SELECT a FROM t")
        assert op == SetDistinct(True)

    def test_group_by_add(self):
        deltas = deltas_of(
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            "SELECT a, COUNT(*) FROM t",
        )
        assert AddGroupKey(ast.ColumnRef("a")) in deltas

    def test_count_errors(self):
        # One operation per difference, in clause order.
        assert types_of(
            "SELECT name FROM t WHERE status = 'a' LIMIT 3",
            "SELECT name, description FROM t",
        ) == [RemoveSelectItem, AddWhereConjunct, SetLimit]


@pytest.fixture(scope="module")
def oracle_db():
    """A small fixed database for the diff's oracle."""
    db = Database.from_ddl(
        "oracle",
        """
        CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT);
        CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER, c TEXT);
        """,
    )
    db.execute(
        "INSERT INTO t VALUES (1, 3, 'x'), (2, 1, 'y'), (3, 2, 'x'), "
        "(4, 2, 'z'), (5, 5, 'y')"
    )
    db.execute("INSERT INTO u VALUES (1, 9, 'p'), (3, 8, 'q'), (5, 7, 'p')")
    return db


class TestOracle:
    """Shapes no sweep produces: the diff's operations, applied to the
    prediction in order, give a query SQLite answers like gold."""

    @pytest.mark.parametrize(
        "gold_sql, pred_sql",
        [
            # table edit
            ("SELECT a FROM t", "SELECT a FROM u"),
            # a table gold joins and the prediction lacks
            (
                "SELECT T1.b FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id",
                "SELECT b FROM t",
            ),
            # order add and edit
            ("SELECT a FROM t ORDER BY a DESC", "SELECT a FROM t"),
            ("SELECT a FROM t ORDER BY a DESC", "SELECT a FROM t ORDER BY a ASC"),
            # limit add and edit
            ("SELECT a FROM t ORDER BY a LIMIT 2", "SELECT a FROM t ORDER BY a"),
            (
                "SELECT a FROM t ORDER BY a LIMIT 2",
                "SELECT a FROM t ORDER BY a LIMIT 4",
            ),
            # DISTINCT, both ways
            ("SELECT DISTINCT b FROM t", "SELECT b FROM t"),
            ("SELECT b FROM t", "SELECT DISTINCT b FROM t"),
            # GROUP BY key added and removed
            ("SELECT b, COUNT(*) FROM t GROUP BY b", "SELECT b, COUNT(*) FROM t"),
            (
                "SELECT b, COUNT(*) FROM t GROUP BY b",
                "SELECT b, COUNT(*) FROM t GROUP BY b, a",
            ),
        ],
    )
    def test_applied_diff_answers_like_gold(self, oracle_db, gold_sql, pred_sql):
        assert not execution_correct(oracle_db, gold_sql, pred_sql)
        edited = parse_query(pred_sql)
        for operation in deltas_of(gold_sql, pred_sql):
            edited = operation.apply(edited)
        assert execution_correct(oracle_db, gold_sql, print_select(edited))
