"""Structural analysis of queries: conjuncts, table usage, and diffs.

The diff machinery compares a *gold* query to a *predicted* query and emits
typed :class:`QueryDelta` records. The FISQL user simulator verbalizes these
deltas as natural-language feedback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sql import ast
from repro.sql.printer import print_expression


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


# ---------------------------------------------------------------------------
# Query diffing
# ---------------------------------------------------------------------------


@dataclass
class QueryDelta:
    """One structural difference between gold and predicted queries.

    Attributes:
        kind: Which part of the query differs (``select``, ``where``,
            ``group``, ``order``, ``limit``, ``distinct``, ``table``,
            ``structure``).
        action: What the *prediction* needs (``add``, ``remove``, ``edit``)
            to match gold.
        gold: The gold-side node (None for removals).
        pred: The predicted-side node (None for additions).
        detail: Short human-readable description.
    """

    kind: str
    action: str
    gold: Optional[object] = None
    pred: Optional[object] = None
    detail: str = ""


def diff_queries(gold: ast.Query, pred: ast.Query) -> list[QueryDelta]:
    """Structural differences between two queries.

    Best-effort: for SELECT-vs-SELECT, clause-by-clause. Mismatched shapes
    produce a single ``structure`` delta.
    """
    if isinstance(gold, ast.SetOperation) or isinstance(pred, ast.SetOperation):
        if (
            isinstance(gold, ast.SetOperation)
            and isinstance(pred, ast.SetOperation)
            and gold.op is pred.op
        ):
            return diff_queries(gold.left, pred.left) + diff_queries(
                gold.right, pred.right
            )
        return [
            QueryDelta(
                kind="structure",
                action="edit",
                gold=gold,
                pred=pred,
                detail="query shape differs (set operation mismatch)",
            )
        ]
    return _diff_selects(gold, pred)


def _diff_selects(gold: ast.Select, pred: ast.Select) -> list[QueryDelta]:
    deltas: list[QueryDelta] = []
    deltas.extend(_diff_select_items(gold, pred))
    deltas.extend(_diff_tables(gold, pred))
    deltas.extend(_diff_where(gold, pred))
    deltas.extend(_diff_group(gold, pred))
    deltas.extend(_diff_order(gold, pred))
    if gold.limit != pred.limit:
        if gold.limit is None:
            deltas.append(
                QueryDelta(
                    kind="limit",
                    action="remove",
                    pred=pred.limit,
                    detail=f"remove LIMIT {pred.limit}",
                )
            )
        elif pred.limit is None:
            deltas.append(
                QueryDelta(
                    kind="limit",
                    action="add",
                    gold=gold.limit,
                    detail=f"add LIMIT {gold.limit}",
                )
            )
        else:
            deltas.append(
                QueryDelta(
                    kind="limit",
                    action="edit",
                    gold=gold.limit,
                    pred=pred.limit,
                    detail=f"change LIMIT {pred.limit} to {gold.limit}",
                )
            )
    if gold.distinct != pred.distinct:
        action = "add" if gold.distinct else "remove"
        deltas.append(
            QueryDelta(
                kind="distinct",
                action=action,
                gold=gold.distinct,
                pred=pred.distinct,
                detail=f"{action} DISTINCT",
            )
        )
    return deltas


def _expr_key(expr: ast.Expression) -> str:
    # Table qualifiers are presentation detail for diffing purposes:
    # ``T2.destinationname`` and ``destinationname`` denote the same output.
    if isinstance(expr, ast.ColumnRef):
        return expr.column.lower()
    return print_expression(expr).lower()


def _diff_select_items(gold: ast.Select, pred: ast.Select) -> list[QueryDelta]:
    deltas: list[QueryDelta] = []
    gold_items = list(gold.items)
    pred_items = list(pred.items)
    gold_keys = [_expr_key(item.expression) for item in gold_items]
    pred_keys = [_expr_key(item.expression) for item in pred_items]

    unmatched_gold = [
        item for item, key in zip(gold_items, gold_keys) if key not in pred_keys
    ]
    unmatched_pred = [
        item for item, key in zip(pred_items, pred_keys) if key not in gold_keys
    ]

    # Pair up plausible edits: same aggregate different argument, same
    # column family, or positional leftovers.
    while unmatched_gold and unmatched_pred:
        gold_item = unmatched_gold.pop(0)
        pred_item = _pop_best_match(gold_item, unmatched_pred)
        deltas.append(
            QueryDelta(
                kind="select",
                action="edit",
                gold=gold_item,
                pred=pred_item,
                detail=(
                    f"select {print_expression(gold_item.expression)} "
                    f"instead of {print_expression(pred_item.expression)}"
                ),
            )
        )
    for item in unmatched_gold:
        deltas.append(
            QueryDelta(
                kind="select",
                action="add",
                gold=item,
                detail=f"also select {print_expression(item.expression)}",
            )
        )
    for item in unmatched_pred:
        deltas.append(
            QueryDelta(
                kind="select",
                action="remove",
                pred=item,
                detail=f"do not select {print_expression(item.expression)}",
            )
        )
    return deltas


def _pop_best_match(
    gold_item: ast.SelectItem, candidates: list[ast.SelectItem]
) -> ast.SelectItem:
    gold_expr = gold_item.expression
    if isinstance(gold_expr, ast.FunctionCall):
        for index, cand in enumerate(candidates):
            if isinstance(cand.expression, ast.FunctionCall):
                return candidates.pop(index)
    if isinstance(gold_expr, ast.ColumnRef):
        for index, cand in enumerate(candidates):
            if isinstance(cand.expression, ast.ColumnRef):
                return candidates.pop(index)
    return candidates.pop(0)


def _diff_tables(gold: ast.Select, pred: ast.Select) -> list[QueryDelta]:
    gold_tables = tables_used(gold)
    pred_tables = tables_used(pred)
    deltas = []
    missing = sorted(gold_tables - pred_tables)
    extra = sorted(pred_tables - gold_tables)
    while missing and extra:
        gold_t = missing.pop(0)
        pred_t = extra.pop(0)
        deltas.append(
            QueryDelta(
                kind="table",
                action="edit",
                gold=gold_t,
                pred=pred_t,
                detail=f"use table {gold_t} instead of {pred_t}",
            )
        )
    for name in missing:
        deltas.append(
            QueryDelta(
                kind="table",
                action="add",
                gold=name,
                detail=f"include table {name}",
            )
        )
    for name in extra:
        deltas.append(
            QueryDelta(
                kind="table",
                action="remove",
                pred=name,
                detail=f"drop table {name}",
            )
        )
    return deltas


def _condition_signature(expr: ast.Expression) -> Optional[tuple[str, str]]:
    """(column, op-family) signature for pairing WHERE conjuncts."""
    if isinstance(expr, ast.BinaryOp) and expr.op.is_comparison:
        if isinstance(expr.left, ast.ColumnRef):
            return (expr.left.column.lower(), "cmp")
    if isinstance(expr, ast.Like) and isinstance(expr.operand, ast.ColumnRef):
        return (expr.operand.column.lower(), "like")
    if isinstance(expr, ast.Between) and isinstance(expr.operand, ast.ColumnRef):
        return (expr.operand.column.lower(), "between")
    if isinstance(expr, (ast.InList, ast.InSubquery)) and isinstance(
        expr.operand, ast.ColumnRef
    ):
        return (expr.operand.column.lower(), "in")
    if isinstance(expr, ast.IsNull) and isinstance(expr.operand, ast.ColumnRef):
        return (expr.operand.column.lower(), "null")
    return None


def _is_join_condition(expr: ast.Expression) -> bool:
    return (
        isinstance(expr, ast.BinaryOp)
        and expr.op is ast.BinaryOperator.EQ
        and isinstance(expr.left, ast.ColumnRef)
        and isinstance(expr.right, ast.ColumnRef)
    )


def _diff_where(gold: ast.Select, pred: ast.Select) -> list[QueryDelta]:
    gold_conj = [c for c in conjuncts(gold.where) if not _is_join_condition(c)]
    pred_conj = [c for c in conjuncts(pred.where) if not _is_join_condition(c)]
    gold_keys = {_expr_key(c): c for c in gold_conj}
    pred_keys = {_expr_key(c): c for c in pred_conj}

    unmatched_gold = [c for k, c in gold_keys.items() if k not in pred_keys]
    unmatched_pred = [c for k, c in pred_keys.items() if k not in gold_keys]
    deltas: list[QueryDelta] = []

    # Pair by signature first (same column & operator family → an edit).
    still_gold: list[ast.Expression] = []
    for gold_c in unmatched_gold:
        signature = _condition_signature(gold_c)
        paired = False
        if signature is not None:
            for index, pred_c in enumerate(unmatched_pred):
                if _condition_signature(pred_c) == signature:
                    deltas.append(
                        QueryDelta(
                            kind="where",
                            action="edit",
                            gold=gold_c,
                            pred=unmatched_pred.pop(index),
                            detail=(
                                f"condition should be "
                                f"{print_expression(gold_c)}"
                            ),
                        )
                    )
                    paired = True
                    break
        if not paired:
            still_gold.append(gold_c)

    # Pair remaining by same-column different-family, then leftovers.
    for gold_c in still_gold:
        signature = _condition_signature(gold_c)
        column = signature[0] if signature else None
        paired = False
        if column is not None:
            for index, pred_c in enumerate(unmatched_pred):
                pred_sig = _condition_signature(pred_c)
                if pred_sig is not None and pred_sig[0] == column:
                    deltas.append(
                        QueryDelta(
                            kind="where",
                            action="edit",
                            gold=gold_c,
                            pred=unmatched_pred.pop(index),
                            detail=(
                                f"condition should be "
                                f"{print_expression(gold_c)}"
                            ),
                        )
                    )
                    paired = True
                    break
        if not paired:
            deltas.append(
                QueryDelta(
                    kind="where",
                    action="add",
                    gold=gold_c,
                    detail=f"add condition {print_expression(gold_c)}",
                )
            )
    for pred_c in unmatched_pred:
        deltas.append(
            QueryDelta(
                kind="where",
                action="remove",
                pred=pred_c,
                detail=f"remove condition {print_expression(pred_c)}",
            )
        )
    return deltas


def _diff_group(gold: ast.Select, pred: ast.Select) -> list[QueryDelta]:
    gold_keys = {_expr_key(e): e for e in gold.group_by}
    pred_keys = {_expr_key(e): e for e in pred.group_by}
    deltas = []
    for key, expr in gold_keys.items():
        if key not in pred_keys:
            deltas.append(
                QueryDelta(
                    kind="group",
                    action="add",
                    gold=expr,
                    detail=f"group by {print_expression(expr)}",
                )
            )
    for key, expr in pred_keys.items():
        if key not in gold_keys:
            deltas.append(
                QueryDelta(
                    kind="group",
                    action="remove",
                    pred=expr,
                    detail=f"do not group by {print_expression(expr)}",
                )
            )
    return deltas


def _diff_order(gold: ast.Select, pred: ast.Select) -> list[QueryDelta]:
    def order_key(item: ast.OrderItem) -> str:
        return f"{_expr_key(item.expression)} {item.order.value}"

    gold_keys = [order_key(i) for i in gold.order_by]
    pred_keys = [order_key(i) for i in pred.order_by]
    if gold_keys == pred_keys:
        return []
    if not gold.order_by:
        return [
            QueryDelta(
                kind="order",
                action="remove",
                pred=pred.order_by,
                detail="remove the ordering",
            )
        ]
    if not pred.order_by:
        detail = "order by " + ", ".join(
            f"{print_expression(i.expression)} {i.order.value.lower()}"
            for i in gold.order_by
        )
        return [
            QueryDelta(
                kind="order", action="add", gold=gold.order_by, detail=detail
            )
        ]
    detail = "order by " + ", ".join(
        f"{print_expression(i.expression)} {i.order.value.lower()}"
        for i in gold.order_by
    )
    return [
        QueryDelta(
            kind="order",
            action="edit",
            gold=gold.order_by,
            pred=pred.order_by,
            detail=detail,
        )
    ]
