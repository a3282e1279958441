"""Typed edit operations on SELECT ASTs.

FISQL's feedback editor translates user feedback into these operations and
applies them to the previous turn's SQL. Each operation is pure: AST nodes
are frozen, so ``apply`` builds a new tree from its input (with
:func:`dataclasses.replace` and :func:`repro.sql.ast.rewrite`) and shares
the subtrees it keeps. Operations raise
:class:`~repro.errors.EditError` when they cannot anchor to the query (e.g.
replacing a column that is not present) — the session layer surfaces that as
"could not interpret the feedback".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import EditError
from repro.sql import ast
from repro.sql.analysis import conjuncts, join_conjuncts
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


def rewrite_query_expressions(
    query: ast.Select, fn: Callable, clauses: bool = True
) -> ast.Select:
    """``query`` with :func:`~repro.sql.ast.rewrite` applied to its select
    list and, with ``clauses``, to its WHERE, GROUP BY, HAVING and ORDER BY
    expressions, in that order. The FROM clause is left alone."""
    if not clauses:
        return replace(query, items=ast.rewrite(query.items, fn))
    return replace(
        query,
        items=ast.rewrite(query.items, fn),
        where=ast.rewrite(query.where, fn),
        group_by=ast.rewrite(query.group_by, fn),
        having=ast.rewrite(query.having, fn),
        order_by=ast.rewrite(query.order_by, fn),
    )


@dataclass
class ReplaceColumn(EditOperation):
    """Rename ``old`` to ``new`` — in the select list only, or everywhere."""

    old: str
    new: str
    everywhere: bool = False
    new_table: Optional[str] = None

    def apply(self, query: ast.Select) -> ast.Select:
        old = self.old.lower()
        hits = 0

        def rename(node):
            nonlocal hits
            if isinstance(node, ast.ColumnRef) and node.column.lower() == old:
                hits += 1
                return replace(node, column=self.new)
            return node

        out = rewrite_query_expressions(query, rename, clauses=self.everywhere)
        if hits == 0:
            raise EditError(
                f"column {self.old!r} does not appear in the query"
            )
        if self.new_table is not None:
            new = self.new.lower()

            def retable(node):
                if isinstance(node, ast.ColumnRef) and node.column.lower() == new:
                    return replace(node, table=self.new_table)
                return node

            out = replace(out, items=ast.rewrite(out.items, retable))
        return out

    def describe(self) -> str:
        return f"replace column {self.old} with {self.new}"


@dataclass
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


@dataclass
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

        out = rewrite_query_expressions(query, swap, clauses=False)
        if hits == 0:
            raise EditError("no matching aggregate call to replace")
        return out

    def describe(self) -> str:
        extra = " DISTINCT" if self.distinct else ""
        return f"use aggregate {self.new_function.upper()}{extra}"


@dataclass
class ReplaceQuery(EditOperation):
    """Swap in an entirely new query (used for structural rebuilds)."""

    new_query: ast.Select

    def apply(self, query: ast.Select) -> ast.Select:
        return self.new_query

    def describe(self) -> str:
        return "rebuild the query"


@dataclass
class AddSelectItem(EditOperation):
    feedback_type = "add"

    expression: ast.Expression
    alias: Optional[str] = None

    def apply(self, query: ast.Select) -> ast.Select:
        key = print_expression(self.expression).lower()
        for item in query.items:
            if print_expression(item.expression).lower() == key:
                raise EditError("expression already in the select list")
        added = ast.SelectItem(expression=self.expression, alias=self.alias)
        return replace(query, items=(*query.items, added))

    def describe(self) -> str:
        return f"also select {print_expression(self.expression)}"


@dataclass
class RemoveSelectItem(EditOperation):
    feedback_type = "remove"

    column: str

    def apply(self, query: ast.Select) -> ast.Select:
        if len(query.items) <= 1:
            raise EditError("cannot remove the only select item")
        kept = []
        removed = 0
        for item in query.items:
            if self._mentions(item.expression):
                removed += 1
            else:
                kept.append(item)
        if removed == 0:
            raise EditError(f"{self.column!r} is not in the select list")
        if not kept:
            raise EditError("removal would empty the select list")
        return replace(query, items=tuple(kept))

    def _mentions(self, expr: ast.Expression) -> bool:
        for node in ast.walk_expressions(expr):
            if (
                isinstance(node, ast.ColumnRef)
                and node.column.lower() == self.column.lower()
            ):
                return True
        return False

    def describe(self) -> str:
        return f"do not select {self.column}"


@dataclass
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


@dataclass
class RemoveWhereConjunct(EditOperation):
    feedback_type = "remove"

    matcher: Callable[[ast.Expression], bool]
    description: str = "remove a condition"

    def apply(self, query: ast.Select) -> ast.Select:
        parts = conjuncts(query.where)
        kept = [part for part in parts if not self.matcher(part)]
        if len(kept) == len(parts):
            raise EditError("no matching condition to remove")
        return replace(query, where=join_conjuncts(kept))

    def describe(self) -> str:
        return self.description


@dataclass
class ReplaceWhereConjunct(EditOperation):
    """Replace the conjunct(s) selected by ``matcher`` with ``condition``."""

    matcher: Callable[[ast.Expression], bool]
    condition: ast.Expression

    def apply(self, query: ast.Select) -> ast.Select:
        parts = conjuncts(query.where)
        replaced = False
        new_parts: list[ast.Expression] = []
        for part in parts:
            if not replaced and self.matcher(part):
                new_parts.append(self.condition)
                replaced = True
            else:
                new_parts.append(part)
        if not replaced:
            raise EditError("no matching condition to replace")
        return replace(query, where=join_conjuncts(new_parts))

    def describe(self) -> str:
        return f"condition should be {print_expression(self.condition)}"


@dataclass
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


@dataclass
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


@dataclass
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


@dataclass
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
