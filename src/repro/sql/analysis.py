"""Structural analysis of queries: conjuncts and table usage.

The diff of a gold and a predicted query lives beside the edit operations it
returns, in :mod:`repro.sql.edits`.
"""

from __future__ import annotations

from typing import Optional

from repro.sql import ast


def conjuncts(expr: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten a WHERE/HAVING tree into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op is ast.BinaryOperator.AND:
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def join_conjuncts(parts: list[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild an AND tree from conjuncts (None for an empty list)."""
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = ast.BinaryOp(ast.BinaryOperator.AND, result, part)
    return result


def tables_used(query: ast.Query) -> set[str]:
    """Lower-cased base-table names referenced anywhere in the query."""
    tables: set[str] = set()
    for select in ast.walk_queries(query):
        sources = [select.source] if select.source is not None else []
        while sources:
            source = sources.pop()
            if isinstance(source, ast.TableRef):
                tables.add(source.name.lower())
            elif isinstance(source, ast.Join):
                sources.extend((source.left, source.right))
            elif isinstance(source, ast.SubquerySource):
                pass  # nested query covered by walk_queries
    return tables
