"""Typed edit operations on SELECT ASTs, and the diff that finds them.

One language describes a change to a query on both sides of FISQL's loop.
The feedback editor translates user feedback into these operations and
applies them to the previous turn's SQL; :func:`diff_queries` returns the
operations that turn a predicted query into the gold one, and the simulated
annotator verbalizes one of them.

Operations are plain data: frozen dataclasses that name the AST nodes they
act on, so they print and compare. ``apply`` is pure: AST nodes are frozen,
so it builds a new tree from its input (with :func:`dataclasses.replace` and
:func:`repro.sql.ast.rewrite`) and shares the subtrees it keeps. Operations
raise :class:`~repro.errors.EditError` when they cannot anchor to the query
(e.g. replacing a column that is not present) — the session layer surfaces
that as "could not interpret the feedback".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import EditError
from repro.sql import ast
from repro.sql.analysis import conjuncts, join_conjuncts, tables_used
from repro.sql.printer import print_expression


class EditOperation:
    """Base class for edit operations."""

    #: Paper feedback type this operation realizes: add / remove / edit.
    feedback_type = "edit"

    def apply(self, query: ast.Select) -> ast.Select:
        """Return a new query with the edit applied."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description (used in demonstrations/logs)."""
        raise NotImplementedError


def rewrite_query_expressions(query: ast.Select, fn: Callable) -> ast.Select:
    """``query`` with :func:`~repro.sql.ast.rewrite` applied to its select
    list, WHERE, GROUP BY, HAVING and ORDER BY expressions, in that order.
    The FROM clause is left alone."""
    return replace(
        query,
        items=ast.rewrite(query.items, fn),
        where=ast.rewrite(query.where, fn),
        group_by=ast.rewrite(query.group_by, fn),
        having=ast.rewrite(query.having, fn),
        order_by=ast.rewrite(query.order_by, fn),
    )


@dataclass(frozen=True)
class ReplaceColumn(EditOperation):
    """Rename column ``old`` to ``new`` in the select list."""

    old: str
    new: str

    def apply(self, query: ast.Select) -> ast.Select:
        old = self.old.lower()
        hits = 0

        def rename(node):
            nonlocal hits
            if isinstance(node, ast.ColumnRef) and node.column.lower() == old:
                hits += 1
                return replace(node, column=self.new)
            return node

        items = ast.rewrite(query.items, rename)
        if hits == 0:
            raise EditError(
                f"column {self.old!r} does not appear in the query"
            )
        return replace(query, items=items)

    def describe(self) -> str:
        return f"replace column {self.old} with {self.new}"


@dataclass(frozen=True)
class ReplaceLiteral(EditOperation):
    """Replace literal ``old`` with ``new`` wherever it occurs.

    Matching on strings is case-insensitive and also substring-aware for
    date literals (feedback "we are in 2024" edits '2023-01-01').
    """

    old: object
    new: object

    def apply(self, query: ast.Select) -> ast.Select:
        hits = 0

        def rewrite_literal(node):
            nonlocal hits
            if isinstance(node, ast.Literal) and self._matches(node.value):
                hits += 1
                return replace(node, value=self._rewrite(node.value))
            return node

        out = rewrite_query_expressions(query, rewrite_literal)
        if hits == 0:
            raise EditError(f"literal {self.old!r} does not appear in the query")
        return out

    def _matches(self, value: object) -> bool:
        if value is None:
            return self.old is None
        if isinstance(value, str) and isinstance(self.old, str):
            if value.lower() == self.old.lower():
                return True
            return self.old.lower() in value.lower()
        if isinstance(value, str) and not isinstance(self.old, str):
            return str(self.old) in value
        return value == self.old

    def _rewrite(self, value: object) -> object:
        if isinstance(value, str):
            old_text = str(self.old)
            new_text = str(self.new)
            if value.lower() == old_text.lower():
                return new_text if isinstance(self.new, str) else self.new
            # substring replacement, case-insensitive location
            lowered = value.lower()
            index = lowered.find(old_text.lower())
            if index >= 0:
                return value[:index] + new_text + value[index + len(old_text):]
            return value
        return self.new

    def describe(self) -> str:
        return f"replace value {self.old!r} with {self.new!r}"


@dataclass(frozen=True)
class ReplaceAggregate(EditOperation):
    """Swap the aggregate function (and optionally its argument/DISTINCT)."""

    new_function: str
    new_argument: Optional[ast.Expression] = None
    old_function: Optional[str] = None
    distinct: Optional[bool] = None

    def apply(self, query: ast.Select) -> ast.Select:
        hits = 0

        def swap(node):
            nonlocal hits
            if not ast.is_aggregate_call(node) or (
                self.old_function is not None
                and node.name != self.old_function.upper()
            ):
                return node
            args = node.args
            if self.new_argument is not None:
                args = (self.new_argument,)
            distinct = node.distinct
            if self.distinct is not None:
                if not args or isinstance(args[0], ast.Star):
                    raise EditError(
                        "cannot apply DISTINCT to a COUNT(*) without "
                        "a column argument"
                    )
                distinct = self.distinct
            hits += 1
            return replace(
                node, name=self.new_function, args=args, distinct=distinct
            )

        items = ast.rewrite(query.items, swap)
        if hits == 0:
            raise EditError("no matching aggregate call to replace")
        return replace(query, items=items)

    def describe(self) -> str:
        extra = " DISTINCT" if self.distinct else ""
        return f"use aggregate {self.new_function.upper()}{extra}"


@dataclass(frozen=True)
class ReplaceQuery(EditOperation):
    """Swap in an entirely new query (used for structural rebuilds)."""

    new_query: ast.Select

    def apply(self, query: ast.Select) -> ast.Select:
        return self.new_query

    def describe(self) -> str:
        return "rebuild the query"


@dataclass(frozen=True)
class ReplaceSelectItem(EditOperation):
    """Replace the select item ``old`` with ``new``."""

    old: ast.SelectItem
    new: ast.SelectItem

    def apply(self, query: ast.Select) -> ast.Select:
        items = list(query.items)
        if self.old not in items:
            raise EditError("item to replace is not in the select list")
        items[items.index(self.old)] = self.new
        return replace(query, items=tuple(items))

    def describe(self) -> str:
        return (
            f"select {print_expression(self.new.expression)} "
            f"instead of {print_expression(self.old.expression)}"
        )


@dataclass(frozen=True)
class AddSelectItem(EditOperation):
    """Add a select item at ``position`` (clamped to the list), or at the
    end when ``position`` is None."""

    feedback_type = "add"

    expression: ast.Expression
    alias: Optional[str] = None
    position: Optional[int] = None

    def apply(self, query: ast.Select) -> ast.Select:
        key = print_expression(self.expression).lower()
        for item in query.items:
            if print_expression(item.expression).lower() == key:
                raise EditError("expression already in the select list")
        added = ast.SelectItem(expression=self.expression, alias=self.alias)
        items = list(query.items)
        position = len(items) if self.position is None else self.position
        items.insert(min(max(position, 0), len(items)), added)
        return replace(query, items=tuple(items))

    def describe(self) -> str:
        return f"also select {print_expression(self.expression)}"


@dataclass(frozen=True)
class RemoveSelectItem(EditOperation):
    """Remove the select items equal to any of ``items``."""

    feedback_type = "remove"

    items: tuple[ast.SelectItem, ...]
    description: str = ""

    def apply(self, query: ast.Select) -> ast.Select:
        if len(query.items) <= 1:
            raise EditError("cannot remove the only select item")
        kept = tuple(item for item in query.items if item not in self.items)
        if len(kept) == len(query.items):
            raise EditError("no matching item in the select list")
        if not kept:
            raise EditError("removal would empty the select list")
        return replace(query, items=kept)

    def describe(self) -> str:
        return self.description or "do not select " + ", ".join(
            print_expression(item.expression) for item in self.items
        )


@dataclass(frozen=True)
class AddWhereConjunct(EditOperation):
    feedback_type = "add"

    condition: ast.Expression

    def apply(self, query: ast.Select) -> ast.Select:
        key = print_expression(self.condition).lower()
        for existing in conjuncts(query.where):
            if print_expression(existing).lower() == key:
                raise EditError("condition already present")
        if query.where is None:
            return replace(query, where=self.condition)
        return replace(
            query,
            where=ast.BinaryOp(
                ast.BinaryOperator.AND, query.where, self.condition
            ),
        )

    def describe(self) -> str:
        return f"add condition {print_expression(self.condition)}"


@dataclass(frozen=True)
class RemoveWhereConjunct(EditOperation):
    """Remove the WHERE conjuncts equal to any of ``conditions``."""

    feedback_type = "remove"

    conditions: tuple[ast.Expression, ...]
    description: str = ""

    def apply(self, query: ast.Select) -> ast.Select:
        parts = conjuncts(query.where)
        kept = [part for part in parts if part not in self.conditions]
        if len(kept) == len(parts):
            raise EditError("no matching condition to remove")
        return replace(query, where=join_conjuncts(kept))

    def describe(self) -> str:
        return self.description or "remove condition " + " AND ".join(
            print_expression(condition) for condition in self.conditions
        )


@dataclass(frozen=True)
class ReplaceWhereConjunct(EditOperation):
    """Replace the first WHERE conjunct equal to ``old`` with ``condition``."""

    old: ast.Expression
    condition: ast.Expression

    def apply(self, query: ast.Select) -> ast.Select:
        parts = conjuncts(query.where)
        if self.old not in parts:
            raise EditError("no matching condition to replace")
        parts[parts.index(self.old)] = self.condition
        return replace(query, where=join_conjuncts(parts))

    def describe(self) -> str:
        return f"condition should be {print_expression(self.condition)}"


@dataclass(frozen=True)
class AddGroupKey(EditOperation):
    feedback_type = "add"

    expression: ast.Expression

    def apply(self, query: ast.Select) -> ast.Select:
        if self.expression in query.group_by:
            raise EditError("already a GROUP BY key")
        return replace(query, group_by=(*query.group_by, self.expression))

    def describe(self) -> str:
        return f"group by {print_expression(self.expression)}"


@dataclass(frozen=True)
class RemoveGroupKey(EditOperation):
    feedback_type = "remove"

    expression: ast.Expression

    def apply(self, query: ast.Select) -> ast.Select:
        if self.expression not in query.group_by:
            raise EditError("not a GROUP BY key")
        keys = tuple(key for key in query.group_by if key != self.expression)
        return replace(query, group_by=keys)

    def describe(self) -> str:
        return f"do not group by {print_expression(self.expression)}"


@dataclass(frozen=True)
class SetOrderBy(EditOperation):
    items: tuple[ast.OrderItem, ...] = ()

    @property
    def feedback_type(self) -> str:  # type: ignore[override]
        return "add" if self.items else "remove"

    def apply(self, query: ast.Select) -> ast.Select:
        return replace(query, order_by=self.items)

    def describe(self) -> str:
        if not self.items:
            return "remove the ordering"
        rendered = ", ".join(
            f"{print_expression(i.expression)} {i.order.value.lower()}"
            for i in self.items
        )
        return f"order by {rendered}"


@dataclass(frozen=True)
class SetLimit(EditOperation):
    limit: Optional[int] = None

    @property
    def feedback_type(self) -> str:  # type: ignore[override]
        return "remove" if self.limit is None else "edit"

    def apply(self, query: ast.Select) -> ast.Select:
        return replace(query, limit=self.limit)

    def describe(self) -> str:
        if self.limit is None:
            return "remove the limit"
        return f"limit to {self.limit} rows"


@dataclass(frozen=True)
class SetDistinct(EditOperation):
    distinct: bool = True

    @property
    def feedback_type(self) -> str:  # type: ignore[override]
        return "add" if self.distinct else "remove"

    def apply(self, query: ast.Select) -> ast.Select:
        if query.distinct == self.distinct:
            raise EditError("DISTINCT already in the requested state")
        return replace(query, distinct=self.distinct)

    def describe(self) -> str:
        return "select distinct values" if self.distinct else "keep duplicates"


@dataclass(frozen=True)
class ReplaceTable(EditOperation):
    """Point the query at a different base table (single-table FROM)."""

    old: str
    new: str

    def apply(self, query: ast.Select) -> ast.Select:
        old = self.old.lower()
        hits = 0

        def rename(node):
            nonlocal hits
            if isinstance(node, ast.TableRef) and node.name.lower() == old:
                hits += 1
                return replace(node, name=self.new)
            return node

        source = ast.rewrite(query.source, rename)
        if hits == 0:
            raise EditError(f"table {self.old!r} not in the FROM clause")
        return replace(query, source=source)

    def describe(self) -> str:
        return f"use table {self.new} instead of {self.old}"


@dataclass(frozen=True)
class SetSource(EditOperation):
    """Give the query the FROM clause ``source``, which joins in ``table``
    (``joined``) or leaves it out."""

    table: str
    source: Optional[ast.TableExpression]
    joined: bool = True

    @property
    def feedback_type(self) -> str:  # type: ignore[override]
        return "add" if self.joined else "remove"

    def apply(self, query: ast.Select) -> ast.Select:
        # A column qualifier names a table through the old FROM clause;
        # give it that table's name or alias in the new one. A qualifier
        # whose table the new clause lacks stays as it is.
        old_tables = {
            qualifier.lower(): name.lower()
            for qualifier, name in _qualifiers(query.source)
        }
        new_qualifiers: dict[str, str] = {}
        for qualifier, name in _qualifiers(self.source):
            new_qualifiers.setdefault(name.lower(), qualifier)

        def requalify(node):
            if isinstance(node, (ast.ColumnRef, ast.Star)) and node.table:
                table = old_tables.get(node.table.lower())
                qualifier = new_qualifiers.get(table, node.table)
                if qualifier != node.table:
                    return replace(node, table=qualifier)
            return node

        query = rewrite_query_expressions(query, requalify)
        return replace(query, source=self.source)

    def describe(self) -> str:
        verb = "include" if self.joined else "drop"
        return f"{verb} table {self.table}"


def _qualifiers(
    source: Optional[ast.TableExpression],
) -> list[tuple[str, str]]:
    """(qualifier, table name) for each base table of a FROM clause, in
    order; the qualifier is the table's alias, or its name."""
    if isinstance(source, ast.TableRef):
        return [(source.alias or source.name, source.name)]
    if isinstance(source, ast.Join):
        return _qualifiers(source.left) + _qualifiers(source.right)
    return []


# ---------------------------------------------------------------------------
# The diff: the operations that turn a prediction into gold
# ---------------------------------------------------------------------------


def diff_queries(gold: ast.Select, pred: ast.Select) -> list[EditOperation]:
    """The operations that turn ``pred`` into ``gold``, clause by clause.

    One operation per difference, in clause order: select items, tables,
    WHERE conjuncts (join conditions aside), GROUP BY keys, ORDER BY, LIMIT
    and DISTINCT. Each names the nodes it acts on: the ``pred`` node it
    replaces or removes and the ``gold`` node it puts in. Applied to
    ``pred`` in this order, they give a query that SQLite answers like
    ``gold`` for every annotatable error of the generated suites
    (``tests/eval/test_edit_oracle.py``).
    """
    operations = _diff_select_items(gold, pred)
    operations += _diff_tables(gold, pred)
    operations += _diff_where(gold, pred)
    operations += _diff_group(gold, pred)
    if _order_keys(gold) != _order_keys(pred):
        operations.append(SetOrderBy(gold.order_by))
    if gold.limit != pred.limit:
        operations.append(SetLimit(gold.limit))
    if gold.distinct != pred.distinct:
        operations.append(SetDistinct(gold.distinct))
    return operations


def _expr_key(expr: ast.Expression) -> str:
    # Table qualifiers are presentation detail for diffing purposes:
    # ``T2.destinationname`` and ``destinationname`` denote the same output.
    if isinstance(expr, ast.ColumnRef):
        return expr.column.lower()
    return print_expression(expr).lower()


def _order_keys(query: ast.Select) -> list[tuple[str, ast.SortOrder]]:
    return [(_expr_key(item.expression), item.order) for item in query.order_by]


def _diff_select_items(gold: ast.Select, pred: ast.Select) -> list[EditOperation]:
    gold_keys = [_expr_key(item.expression) for item in gold.items]
    pred_keys = [_expr_key(item.expression) for item in pred.items]
    unmatched_gold = [
        item for item, key in zip(gold.items, gold_keys) if key not in pred_keys
    ]
    unmatched_pred = [
        item for item, key in zip(pred.items, pred_keys) if key not in gold_keys
    ]

    # Pair up plausible edits: same aggregate different argument, same
    # column family, or positional leftovers.
    operations: list[EditOperation] = []
    while unmatched_gold and unmatched_pred:
        gold_item = unmatched_gold.pop(0)
        pred_item = _pop_best_match(gold_item, unmatched_pred)
        operations.append(ReplaceSelectItem(old=pred_item, new=gold_item))
    operations.extend(
        AddSelectItem(item.expression, item.alias, gold.items.index(item))
        for item in unmatched_gold
    )
    operations.extend(RemoveSelectItem((item,)) for item in unmatched_pred)
    return operations


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


def _diff_tables(gold: ast.Select, pred: ast.Select) -> list[EditOperation]:
    gold_tables = tables_used(gold)
    pred_tables = tables_used(pred)
    missing = sorted(gold_tables - pred_tables)
    extra = sorted(pred_tables - gold_tables)
    # Pair missing and extra tables in order as renames; a table left over
    # takes gold's whole FROM clause, joins and aliases included.
    operations: list[EditOperation] = [
        ReplaceTable(old=pred_table, new=gold_table)
        for gold_table, pred_table in zip(missing, extra)
    ]
    paired = len(operations)
    operations.extend(SetSource(name, gold.source) for name in missing[paired:])
    operations.extend(
        SetSource(name, gold.source, joined=False) for name in extra[paired:]
    )
    return operations


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


def _diff_where(gold: ast.Select, pred: ast.Select) -> list[EditOperation]:
    gold_conj = [c for c in conjuncts(gold.where) if not _is_join_condition(c)]
    pred_conj = [c for c in conjuncts(pred.where) if not _is_join_condition(c)]
    gold_keys = {_expr_key(c): c for c in gold_conj}
    pred_keys = {_expr_key(c): c for c in pred_conj}

    unmatched_gold = [c for k, c in gold_keys.items() if k not in pred_keys]
    unmatched_pred = [c for k, c in pred_keys.items() if k not in gold_keys]
    operations: list[EditOperation] = []

    # Pair by signature first (same column & operator family → an edit).
    still_gold: list[ast.Expression] = []
    for gold_c in unmatched_gold:
        signature = _condition_signature(gold_c)
        paired = False
        if signature is not None:
            for index, pred_c in enumerate(unmatched_pred):
                if _condition_signature(pred_c) == signature:
                    operations.append(
                        ReplaceWhereConjunct(unmatched_pred.pop(index), gold_c)
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
                    operations.append(
                        ReplaceWhereConjunct(unmatched_pred.pop(index), gold_c)
                    )
                    paired = True
                    break
        if not paired:
            operations.append(AddWhereConjunct(gold_c))
    operations.extend(RemoveWhereConjunct((pred_c,)) for pred_c in unmatched_pred)
    return operations


def _diff_group(gold: ast.Select, pred: ast.Select) -> list[EditOperation]:
    gold_keys = {_expr_key(e): e for e in gold.group_by}
    pred_keys = {_expr_key(e): e for e in pred.group_by}
    operations: list[EditOperation] = [
        AddGroupKey(e) for key, e in gold_keys.items() if key not in pred_keys
    ]
    operations.extend(
        RemoveGroupKey(e) for key, e in pred_keys.items() if key not in gold_keys
    )
    return operations
