"""Execution-accuracy result comparison.

The paper's metric is *correct SQL execution result*: a predicted query is
correct when its result set matches the gold query's result set. Following
the standard SPIDER execution-accuracy convention:

* comparison is order-insensitive (multiset equality) unless the gold query
  has a top-level ORDER BY, in which case row order must match;
* column *names* are ignored (only values matter);
* floats compare with a small relative tolerance;
* NULL equals NULL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.sql import ast
from repro.sql.types import SqlValue, values_equal

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.engine import QueryResult


def normalize_row(row: tuple[SqlValue, ...]) -> tuple:
    """Canonical form of a row for multiset comparison."""
    out = []
    for value in row:
        if isinstance(value, bool):
            out.append(int(value))
        elif isinstance(value, float) and value.is_integer():
            out.append(int(value))
        else:
            out.append(value)
    return tuple(out)


def rows_equal(
    left: tuple[SqlValue, ...], right: tuple[SqlValue, ...], float_tol: float = 1e-6
) -> bool:
    """Cell-wise row equality with NULL==NULL and float tolerance."""
    if len(left) != len(right):
        return False
    return all(
        values_equal(lv, rv, float_tol) for lv, rv in zip(left, right)
    )


def results_match(
    gold: QueryResult,
    predicted: QueryResult,
    ordered: bool = False,
    float_tol: float = 1e-6,
) -> bool:
    """Compare two result sets under execution-accuracy semantics.

    Counts ``sql.compare.calls``; an unordered comparison also counts
    ``sql.compare.equal`` when equal row lists answer it, or
    ``sql.compare.sorted`` when it normalizes and sorts.
    """
    obs.count("sql.compare.calls")
    if len(gold.rows) != len(predicted.rows):
        return False
    if gold.rows and predicted.rows and len(gold.rows[0]) != len(predicted.rows[0]):
        return False
    if ordered:
        return all(
            rows_equal(g, p, float_tol)
            for g, p in zip(gold.rows, predicted.rows)
        )
    # Equal row lists have equal sorted canonical forms: values that are
    # ``==`` normalize to equal values of one type. The engine returns an
    # unordered answer in ``row_sort_key`` order, so a correct prediction
    # usually gives the very same list.
    if gold.rows == predicted.rows:
        obs.count("sql.compare.equal")
        return True
    obs.count("sql.compare.sorted")
    # Multiset comparison via sorted canonical forms. Exact float values are
    # normalized first; the tolerance path falls back to greedy matching
    # only when the sorted comparison fails.
    gold_sorted = sorted(map(normalize_row, gold.rows), key=row_sort_key)
    pred_sorted = sorted(map(normalize_row, predicted.rows), key=row_sort_key)
    if gold_sorted == pred_sorted:
        return True
    return _greedy_match(gold.rows, predicted.rows, float_tol)


def row_sort_key(row: tuple) -> tuple:
    """Total order on rows: the multiset comparison's key, and the order
    :class:`~repro.sql.engine.Database` gives results with no top-level
    ORDER BY."""
    return tuple(
        (value is None, isinstance(value, str), str(value)) for value in row
    )


def _greedy_match(
    gold_rows: list[tuple[SqlValue, ...]],
    pred_rows: list[tuple[SqlValue, ...]],
    float_tol: float,
) -> bool:
    remaining = list(pred_rows)
    for gold_row in gold_rows:
        for index, pred_row in enumerate(remaining):
            if rows_equal(gold_row, pred_row, float_tol):
                remaining.pop(index)
                break
        else:
            return False
    return not remaining


def query_is_ordered(query: ast.Query) -> bool:
    """True when the top level of a query imposes row order."""
    if isinstance(query, ast.Select):
        return bool(query.order_by)
    if isinstance(query, ast.SetOperation):
        return bool(query.order_by)
    return False


def summarize_result(result: QueryResult, max_rows: int = 5) -> str:
    """Human-readable sketch of a result set (used in Assistant replies)."""
    if not result.rows:
        return "(no rows)"
    header = " | ".join(result.columns)
    lines = [header]
    for row in result.rows[:max_rows]:
        lines.append(" | ".join("NULL" if v is None else str(v) for v in row))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    return "\n".join(lines)


def result_fingerprint(result: Optional[QueryResult]) -> tuple:
    """A hashable fingerprint of a result set (order-insensitive)."""
    if result is None:
        return ("<error>",)
    rows = sorted(map(normalize_row, result.rows), key=row_sort_key)
    return tuple(rows)
