"""Parser unit tests."""

import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_query, parse_statement


class TestSelectCore:
    def test_simple_select(self):
        q = parse_query("SELECT a FROM t")
        assert isinstance(q, ast.Select)
        assert isinstance(q.items[0].expression, ast.ColumnRef)
        assert q.items[0].expression.column == "a"
        assert isinstance(q.source, ast.TableRef)
        assert q.source.name == "t"

    def test_select_star(self):
        q = parse_query("SELECT * FROM t")
        assert isinstance(q.items[0].expression, ast.Star)

    def test_qualified_star(self):
        q = parse_query("SELECT t.* FROM t")
        star = q.items[0].expression
        assert isinstance(star, ast.Star)
        assert star.table == "t"

    def test_distinct(self):
        assert parse_query("SELECT DISTINCT a FROM t").distinct

    def test_alias_with_as(self):
        q = parse_query("SELECT a AS x FROM t")
        assert q.items[0].alias == "x"

    def test_alias_without_as(self):
        q = parse_query("SELECT a x FROM t")
        assert q.items[0].alias == "x"

    def test_table_alias(self):
        q = parse_query("SELECT a FROM t AS u")
        assert q.source.alias == "u"
        assert q.source.binding == "u"

    def test_qualified_column(self):
        q = parse_query("SELECT t.a FROM t")
        ref = q.items[0].expression
        assert ref.table == "t"
        assert ref.column == "a"

    def test_where(self):
        q = parse_query("SELECT a FROM t WHERE a > 3")
        assert isinstance(q.where, ast.BinaryOp)
        assert q.where.op is ast.BinaryOperator.GT

    def test_group_by_and_having(self):
        q = parse_query(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1"
        )
        assert len(q.group_by) == 1
        assert q.having is not None

    def test_order_by_defaults_asc(self):
        q = parse_query("SELECT a FROM t ORDER BY a")
        assert q.order_by[0].order is ast.SortOrder.ASC

    def test_order_by_desc(self):
        q = parse_query("SELECT a FROM t ORDER BY a DESC, b ASC")
        assert q.order_by[0].order is ast.SortOrder.DESC
        assert q.order_by[1].order is ast.SortOrder.ASC

    def test_limit_offset(self):
        q = parse_query("SELECT a FROM t LIMIT 5 OFFSET 2")
        assert q.limit == 5
        assert q.offset == 2

    def test_select_without_from(self):
        q = parse_query("SELECT 1 + 1")
        assert q.source is None

    def test_trailing_semicolon_ok(self):
        assert isinstance(parse_query("SELECT 1;"), ast.Select)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT 1 FROM t nonsense extra")


class TestJoins:
    def test_inner_join(self):
        q = parse_query("SELECT a FROM t JOIN u ON t.id = u.id")
        assert isinstance(q.source, ast.Join)
        assert q.source.kind is ast.JoinKind.INNER

    def test_inner_keyword_join(self):
        q = parse_query("SELECT a FROM t INNER JOIN u ON t.id = u.id")
        assert q.source.kind is ast.JoinKind.INNER

    def test_left_join(self):
        q = parse_query("SELECT a FROM t LEFT JOIN u ON t.id = u.id")
        assert q.source.kind is ast.JoinKind.LEFT

    def test_left_outer_join(self):
        q = parse_query("SELECT a FROM t LEFT OUTER JOIN u ON t.id = u.id")
        assert q.source.kind is ast.JoinKind.LEFT

    def test_cross_join(self):
        q = parse_query("SELECT a FROM t CROSS JOIN u")
        assert q.source.kind is ast.JoinKind.CROSS
        assert q.source.condition is None

    def test_comma_join_is_cross(self):
        q = parse_query("SELECT a FROM t, u")
        assert q.source.kind is ast.JoinKind.CROSS

    def test_chained_joins(self):
        q = parse_query(
            "SELECT a FROM t JOIN u ON t.id = u.id JOIN v ON u.id = v.id"
        )
        assert isinstance(q.source, ast.Join)
        assert isinstance(q.source.left, ast.Join)

    def test_derived_table(self):
        q = parse_query("SELECT a FROM (SELECT a FROM t) AS sub")
        assert isinstance(q.source, ast.SubquerySource)
        assert q.source.alias == "sub"


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2 * 3")
        assert e.op is ast.BinaryOperator.ADD
        assert e.right.op is ast.BinaryOperator.MUL

    def test_parentheses_override(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op is ast.BinaryOperator.MUL

    def test_and_or_precedence(self):
        e = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert e.op is ast.BinaryOperator.OR
        assert e.right.op is ast.BinaryOperator.AND

    def test_not(self):
        e = parse_expression("NOT a = 1")
        assert isinstance(e, ast.UnaryOp)
        assert e.op is ast.UnaryOperator.NOT

    def test_unary_minus(self):
        e = parse_expression("-5")
        assert isinstance(e, ast.UnaryOp)
        assert e.op is ast.UnaryOperator.NEG

    def test_between(self):
        e = parse_expression("a BETWEEN 1 AND 10")
        assert isinstance(e, ast.Between)
        assert not e.negated

    def test_not_between(self):
        e = parse_expression("a NOT BETWEEN 1 AND 10")
        assert e.negated

    def test_like(self):
        e = parse_expression("name LIKE '%smith%'")
        assert isinstance(e, ast.Like)

    def test_not_like(self):
        assert parse_expression("a NOT LIKE 'x'").negated

    def test_in_list(self):
        e = parse_expression("a IN (1, 2, 3)")
        assert isinstance(e, ast.InList)
        assert len(e.items) == 3

    def test_not_in_list(self):
        assert parse_expression("a NOT IN (1)").negated

    def test_in_subquery(self):
        e = parse_expression("a IN (SELECT b FROM t)")
        assert isinstance(e, ast.InSubquery)

    def test_exists(self):
        e = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(e, ast.Exists)

    def test_is_null(self):
        e = parse_expression("a IS NULL")
        assert isinstance(e, ast.IsNull)
        assert not e.negated

    def test_is_not_null(self):
        assert parse_expression("a IS NOT NULL").negated

    def test_scalar_subquery(self):
        e = parse_expression("(SELECT MAX(a) FROM t)")
        assert isinstance(e, ast.ScalarSubquery)

    def test_case_when(self):
        e = parse_expression("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(e, ast.CaseWhen)
        assert len(e.branches) == 1
        assert e.default is not None

    def test_case_requires_branch(self):
        with pytest.raises(ParseError):
            parse_expression("CASE END")

    def test_function_call(self):
        e = parse_expression("LOWER(name)")
        assert isinstance(e, ast.FunctionCall)
        assert e.name == "LOWER"

    def test_count_star(self):
        e = parse_expression("COUNT(*)")
        assert isinstance(e.args[0], ast.Star)

    def test_count_distinct(self):
        e = parse_expression("COUNT(DISTINCT a)")
        assert e.distinct

    def test_literals(self):
        assert parse_expression("NULL").value is None
        assert parse_expression("TRUE").value is True
        assert parse_expression("FALSE").value is False
        assert parse_expression("'txt'").value == "txt"
        assert parse_expression("7").value == 7
        assert parse_expression("7.5").value == 7.5

    def test_concat(self):
        e = parse_expression("a || b")
        assert e.op is ast.BinaryOperator.CONCAT

    def test_dangling_not_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a NOT")


class TestSetOperations:
    def test_union(self):
        q = parse_query("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(q, ast.SetOperation)
        assert q.op is ast.SetOperator.UNION

    def test_union_all(self):
        q = parse_query("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert q.op is ast.SetOperator.UNION_ALL

    def test_intersect_and_except(self):
        assert (
            parse_query("SELECT a FROM t INTERSECT SELECT a FROM u").op
            is ast.SetOperator.INTERSECT
        )
        assert (
            parse_query("SELECT a FROM t EXCEPT SELECT a FROM u").op
            is ast.SetOperator.EXCEPT
        )

    def test_set_op_with_order_and_limit(self):
        q = parse_query(
            "SELECT a FROM t UNION SELECT a FROM u ORDER BY a LIMIT 3"
        )
        assert q.limit == 3
        assert len(q.order_by) == 1

    def test_parenthesized_operand_keeps_its_order_and_limit(self):
        q = parse_query(
            "SELECT a FROM t UNION (SELECT a FROM u ORDER BY a DESC LIMIT 1)"
        )
        assert q.order_by == () and q.limit is None
        assert len(q.right.order_by) == 1 and q.right.limit == 1

    def test_left_associative_chain(self):
        q = parse_query(
            "SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM v"
        )
        assert q.op is ast.SetOperator.EXCEPT
        assert isinstance(q.left, ast.SetOperation)


class TestDdlDml:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, "
            "price REAL, FOREIGN KEY (pid) REFERENCES p(id))"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].primary_key
        assert stmt.foreign_keys[0].ref_table == "p"

    def test_create_table_varchar_length(self):
        stmt = parse_statement("CREATE TABLE t (name VARCHAR(255))")
        assert stmt.columns[0].type_name == "VARCHAR"

    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ("a", "b")

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = 'x' WHERE id = 3")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a < 0")
        assert isinstance(stmt, ast.Delete)

    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE t")
        assert isinstance(stmt, ast.DropTable)
        assert not stmt.if_exists

    def test_drop_table_if_exists(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_soft_keyword_as_column_name(self):
        stmt = parse_statement("CREATE TABLE t (date DATE, key TEXT)")
        assert [c.name for c in stmt.columns] == ["date", "key"]

    def test_not_a_statement(self):
        with pytest.raises(ParseError):
            parse_statement("EXPLAIN SELECT 1")
