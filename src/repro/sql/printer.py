"""Render AST nodes back to canonical SQL text.

The printer produces a single-line canonical form: keywords upper-case,
single spaces, identifiers as stored. ``parse(print(ast)) == ast`` holds for
all supported nodes (round-trip property, tested with hypothesis).
"""

from __future__ import annotations

import functools
import math

from repro.sql import ast
from repro.sql.tokens import KEYWORDS

_NEEDS_QUOTES = frozenset(" -+/*().,;'\"`")

#: SQLite's keywords that fail as a bare identifier somewhere (a syntax
#: error, or for NULL and the CURRENT_* words a value instead of the
#: column): 63 of SQLite 3.40.1's 147. The other 84, MATCH among them,
#: work bare. ``tests/sql/test_printer.py`` checks every keyword against
#: the linked SQLite.
SQLITE_RESERVED = frozenset(
    """
    ADD ALL ALTER AND AS AUTOINCREMENT BETWEEN CASE CAST CHECK COLLATE
    COMMIT CONSTRAINT CREATE CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP
    DEFAULT DEFERRABLE DELETE DISTINCT DROP ELSE ESCAPE EXCEPT EXISTS
    FOREIGN FROM GROUP HAVING IN INDEX INSERT INTERSECT INTO IS ISNULL JOIN
    LIMIT NOT NOTHING NOTNULL NULL ON OR ORDER PRIMARY RAISE REFERENCES
    RETURNING SELECT SET TABLE THEN TO TRANSACTION UNION UNIQUE UPDATE
    USING VALUES WHEN WHERE
    """.split()
)

_QUOTED_WORDS = KEYWORDS | SQLITE_RESERVED

#: How many names :func:`format_identifier` keeps formatted (least
#: recently used first out). A schema's names recur in every query
#: printed against it.
IDENTIFIER_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=IDENTIFIER_MEMO_SIZE)
def format_identifier(name: str) -> str:
    """Quote an identifier the lexer would split or read as a keyword, or
    that SQLite would not read as a name. A ``"`` inside a quoted name is
    doubled, as SQLite writes it. Each name is formatted once, up to
    :data:`IDENTIFIER_MEMO_SIZE` names."""
    if (
        not name
        or any(ch in _NEEDS_QUOTES for ch in name)
        or not (name[0].isalpha() or name[0] == "_")
        or name.upper() in _QUOTED_WORDS
    ):
        return '"' + name.replace('"', '""') + '"'
    return name


def format_literal(value: object) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        # SQL has no infinity literal, but 1e999 overflows to it in the
        # lexer and in SQLite; repr would print ``inf``, a column name.
        if math.isinf(value):
            return "1e999" if value > 0 else "-1e999"
        # Nor a NaN literal: SQLite stores and returns every NaN as NULL.
        if math.isnan(value):
            return "NULL"
        # repr keeps round-trip precision; strip a trailing ".0" is NOT done
        # so the literal lexes back as a FLOAT.
        return repr(value)
    return str(value)



def _operand(expr: ast.Expression) -> str:
    """Render an expression used as a predicate operand.

    Predicate-class nodes (LIKE/BETWEEN/IN/IS NULL, comparisons, logical
    ops) are not associative in the grammar, so they must be parenthesized
    when nested as operands — e.g. ``(a IS NULL) IS NULL``.
    """
    text = print_expression(expr)
    needs_parens = isinstance(
        expr,
        (ast.Like, ast.Between, ast.InList, ast.InSubquery, ast.IsNull, ast.Exists),
    )
    if isinstance(expr, ast.BinaryOp) and (
        expr.op.is_comparison or expr.op.is_logical
    ):
        needs_parens = True
    if isinstance(expr, ast.UnaryOp) and expr.op is ast.UnaryOperator.NOT:
        needs_parens = True
    if needs_parens:
        return f"({text})"
    return text


def print_expression(expr: ast.Expression) -> str:
    """Render an expression subtree."""
    if isinstance(expr, ast.Literal):
        return format_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        if expr.table:
            return f"{format_identifier(expr.table)}.{format_identifier(expr.column)}"
        return format_identifier(expr.column)
    if isinstance(expr, ast.Star):
        if expr.table:
            return f"{format_identifier(expr.table)}.*"
        return "*"
    if isinstance(expr, ast.BinaryOp):
        left = _maybe_paren(expr.left, expr.op, is_right=False)
        right = _maybe_paren(expr.right, expr.op, is_right=True)
        return f"{left} {expr.op.value} {right}"
    if isinstance(expr, ast.UnaryOp):
        operand = print_expression(expr.operand)
        if isinstance(expr.operand, (ast.BinaryOp, ast.Between, ast.Like)):
            operand = f"({operand})"
        if expr.op is ast.UnaryOperator.NOT:
            return f"NOT {operand}"
        return f"{expr.op.value}{operand}"
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(print_expression(a) for a in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.Like):
        not_part = "NOT " if expr.negated else ""
        return (
            f"{_operand(expr.operand)} {not_part}LIKE "
            f"{_operand(expr.pattern)}"
        )
    if isinstance(expr, ast.Between):
        not_part = "NOT " if expr.negated else ""
        return (
            f"{_operand(expr.operand)} {not_part}BETWEEN "
            f"{_operand(expr.low)} AND {_operand(expr.high)}"
        )
    if isinstance(expr, ast.InList):
        not_part = "NOT " if expr.negated else ""
        items = ", ".join(print_expression(i) for i in expr.items)
        return f"{_operand(expr.operand)} {not_part}IN ({items})"
    if isinstance(expr, ast.InSubquery):
        not_part = "NOT " if expr.negated else ""
        return (
            f"{_operand(expr.operand)} {not_part}IN "
            f"({print_query(expr.subquery)})"
        )
    if isinstance(expr, ast.Exists):
        not_part = "NOT " if expr.negated else ""
        return f"{not_part}EXISTS ({print_query(expr.subquery)})"
    if isinstance(expr, ast.ScalarSubquery):
        return f"({print_query(expr.subquery)})"
    if isinstance(expr, ast.IsNull):
        not_part = "NOT " if expr.negated else ""
        return f"{_operand(expr.operand)} IS {not_part}NULL"
    if isinstance(expr, ast.CaseWhen):
        parts = ["CASE"]
        for cond, value in expr.branches:
            parts.append(f"WHEN {print_expression(cond)} THEN {print_expression(value)}")
        if expr.default is not None:
            parts.append(f"ELSE {print_expression(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"cannot print expression node {type(expr).__name__}")


_PRECEDENCE = {
    ast.BinaryOperator.OR: 1,
    ast.BinaryOperator.AND: 2,
    ast.BinaryOperator.EQ: 3,
    ast.BinaryOperator.NE: 3,
    ast.BinaryOperator.LT: 3,
    ast.BinaryOperator.LE: 3,
    ast.BinaryOperator.GT: 3,
    ast.BinaryOperator.GE: 3,
    ast.BinaryOperator.ADD: 4,
    ast.BinaryOperator.SUB: 4,
    ast.BinaryOperator.CONCAT: 4,
    ast.BinaryOperator.MUL: 5,
    ast.BinaryOperator.DIV: 5,
    ast.BinaryOperator.MOD: 5,
}


_ARITHMETIC = frozenset(
    {
        ast.BinaryOperator.ADD,
        ast.BinaryOperator.SUB,
        ast.BinaryOperator.MUL,
        ast.BinaryOperator.DIV,
        ast.BinaryOperator.MOD,
    }
)


def _maybe_paren(
    child: ast.Expression, parent_op: ast.BinaryOperator, is_right: bool
) -> str:
    text = print_expression(child)
    if isinstance(child, ast.BinaryOp):
        if _PRECEDENCE[child.op] < _PRECEDENCE[parent_op]:
            return f"({text})"
        # SQLite binds || tighter than any arithmetic operator, so
        # arithmetic under a concatenation keeps its parentheses there.
        if parent_op is ast.BinaryOperator.CONCAT and child.op in _ARITHMETIC:
            return f"({text})"
        if _PRECEDENCE[child.op] == _PRECEDENCE[parent_op]:
            # Comparisons are non-associative in the grammar — always
            # parenthesize a comparison nested under a comparison.
            if parent_op.is_comparison:
                return f"({text})"
            # All other binary operators parse left-associatively, so a
            # right child of equal precedence needs parentheses to keep
            # its shape ("1 + (2 + 3)").
            if is_right:
                return f"({text})"
    if isinstance(child, (ast.Like, ast.Between, ast.InList, ast.InSubquery, ast.IsNull)):
        if parent_op.is_logical:
            return text
        return f"({text})"
    return text


def print_table_expression(source: ast.TableExpression) -> str:
    """Render a FROM-clause tree."""
    if isinstance(source, ast.TableRef):
        text = format_identifier(source.name)
        if source.alias:
            text += f" AS {format_identifier(source.alias)}"
        return text
    if isinstance(source, ast.Join):
        left = print_table_expression(source.left)
        right = print_table_expression(source.right)
        if isinstance(source.right, ast.Join):
            right = f"({right})"
        if source.kind is ast.JoinKind.CROSS or source.condition is None:
            return f"{left} {source.kind.value} {right}"
        return f"{left} {source.kind.value} {right} ON {print_expression(source.condition)}"
    if isinstance(source, ast.SubquerySource):
        return f"({print_query(source.subquery)}) AS {format_identifier(source.alias)}"
    raise TypeError(f"cannot print table expression {type(source).__name__}")


def print_select(select: ast.Select) -> str:
    """Render a single SELECT block."""
    parts = ["SELECT"]
    if select.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_print_select_item(item) for item in select.items))
    if select.source is not None:
        parts.append("FROM")
        parts.append(print_table_expression(select.source))
    if select.where is not None:
        parts.append("WHERE")
        parts.append(print_expression(select.where))
    if select.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(print_expression(e) for e in select.group_by))
    if select.having is not None:
        parts.append("HAVING")
        parts.append(print_expression(select.having))
    if select.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join(_print_order_item(o) for o in select.order_by))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
        if select.offset is not None:
            parts.append(f"OFFSET {select.offset}")
    return " ".join(parts)


def _print_select_item(item: ast.SelectItem) -> str:
    text = print_expression(item.expression)
    if item.alias:
        return f"{text} AS {format_identifier(item.alias)}"
    return text


def _print_order_item(item: ast.OrderItem) -> str:
    text = print_expression(item.expression)
    if item.order is ast.SortOrder.DESC:
        return f"{text} DESC"
    return f"{text} ASC"


def print_query(query: ast.Query) -> str:
    """Render a SELECT or set-operation query."""
    if isinstance(query, ast.Select):
        return print_select(query)
    if isinstance(query, ast.SetOperation):
        left = _print_operand(query.left)
        right = _print_operand(query.right)
        text = f"{left} {query.op.value} {right}"
        if query.order_by:
            text += " ORDER BY " + ", ".join(
                _print_order_item(o) for o in query.order_by
            )
        if query.limit is not None:
            text += f" LIMIT {query.limit}"
        return text
    raise TypeError(f"cannot print query node {type(query).__name__}")


def _print_operand(query: ast.Query) -> str:
    """A set-operation operand; parenthesized when it orders or limits itself.

    Bare, a trailing ORDER BY / LIMIT would bind to the whole compound.
    """
    text = print_query(query)
    if isinstance(query, ast.Select) and (
        query.order_by or query.limit is not None or query.offset is not None
    ):
        return f"({text})"
    return text


def print_statement(stmt: ast.Statement) -> str:
    """Render any supported statement."""
    if isinstance(stmt, (ast.Select, ast.SetOperation)):
        return print_query(stmt)
    if isinstance(stmt, ast.CreateTable):
        pieces = []
        for col in stmt.columns:
            piece = f"{format_identifier(col.name)} {col.type_name}"
            if col.primary_key:
                piece += " PRIMARY KEY"
            pieces.append(piece)
        for fk in stmt.foreign_keys:
            pieces.append(
                f"FOREIGN KEY ({format_identifier(fk.column)}) REFERENCES "
                f"{format_identifier(fk.ref_table)}({format_identifier(fk.ref_column)})"
            )
        return f"CREATE TABLE {format_identifier(stmt.name)} ({', '.join(pieces)})"
    if isinstance(stmt, ast.Insert):
        cols = ""
        if stmt.columns:
            cols = " (" + ", ".join(format_identifier(c) for c in stmt.columns) + ")"
        rows = ", ".join(
            "(" + ", ".join(print_expression(v) for v in row) + ")"
            for row in stmt.rows
        )
        return f"INSERT INTO {format_identifier(stmt.table)}{cols} VALUES {rows}"
    if isinstance(stmt, ast.Update):
        assignments = ", ".join(
            f"{format_identifier(col)} = {print_expression(value)}"
            for col, value in stmt.assignments
        )
        text = f"UPDATE {format_identifier(stmt.table)} SET {assignments}"
        if stmt.where is not None:
            text += f" WHERE {print_expression(stmt.where)}"
        return text
    if isinstance(stmt, ast.Delete):
        text = f"DELETE FROM {format_identifier(stmt.table)}"
        if stmt.where is not None:
            text += f" WHERE {print_expression(stmt.where)}"
        return text
    if isinstance(stmt, ast.DropTable):
        if_exists = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP TABLE {if_exists}{format_identifier(stmt.name)}"
    raise TypeError(f"cannot print statement {type(stmt).__name__}")
