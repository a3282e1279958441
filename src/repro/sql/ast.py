"""Typed abstract syntax tree for the SQL dialect.

Every node is a frozen, slotted dataclass whose sequences are tuples, so a
tree is immutable and hashable. A parsed tree can therefore be shared by
every caller that parses the same text (:func:`repro.sql.parser.parse_query`
memoizes by text), and an edit (:mod:`repro.sql.edits`) builds a new tree
instead of changing its input; :func:`rewrite` rebuilds a tree bottom-up.
The pretty printer in :mod:`repro.sql.printer` renders nodes back to SQL
text.

Nodes implement structural equality through dataclass equality, which the
analysis/diff machinery relies on.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """A constant: integer, float, string, boolean or NULL (value=None)."""

    value: Union[int, float, str, bool, None]


@dataclass(frozen=True, slots=True)
class ColumnRef(Expression):
    """Reference to a column, optionally qualified by table name or alias."""

    column: str
    table: Optional[str] = None

    def key(self) -> str:
        """Lower-cased ``table.column`` key used in matching heuristics."""
        if self.table:
            return f"{self.table.lower()}.{self.column.lower()}"
        return self.column.lower()


@dataclass(frozen=True, slots=True)
class Star(Expression):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


class BinaryOperator(enum.Enum):
    """Binary operators, with their SQL spellings."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    CONCAT = "||"
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "AND"
    OR = "OR"

    @property
    def is_comparison(self) -> bool:
        return self in _COMPARISONS

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOperator.AND, BinaryOperator.OR)


_COMPARISONS = frozenset(
    {
        BinaryOperator.EQ,
        BinaryOperator.NE,
        BinaryOperator.LT,
        BinaryOperator.LE,
        BinaryOperator.GT,
        BinaryOperator.GE,
    }
)


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    """``left <op> right``."""

    op: BinaryOperator
    left: Expression
    right: Expression


class UnaryOperator(enum.Enum):
    NOT = "NOT"
    NEG = "-"
    POS = "+"


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    """``NOT expr`` or ``-expr``."""

    op: UnaryOperator
    operand: Expression


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """Scalar or aggregate function call.

    ``COUNT(*)`` is represented as ``FunctionCall("COUNT", (Star(),))``.
    """

    name: str
    args: tuple[Expression, ...] = ()
    distinct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.upper())


#: The aggregate functions of the dialect.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def is_aggregate_call(expr: Expression) -> bool:
    """Return True if ``expr`` is a call to an aggregate function."""
    return isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS


@dataclass(frozen=True, slots=True)
class Like(Expression):
    """``operand [NOT] LIKE pattern``."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Between(Expression):
    """``operand [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InList(Expression):
    """``operand [NOT] IN (item, item, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InSubquery(Expression):
    """``operand [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class ScalarSubquery(Expression):
    """A parenthesized SELECT used as a scalar value."""

    subquery: "Select"


@dataclass(frozen=True, slots=True)
class IsNull(Expression):
    """``operand IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True, slots=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    branches: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None


# ---------------------------------------------------------------------------
# Table expressions
# ---------------------------------------------------------------------------


class TableExpression:
    """Marker base class for FROM-clause items."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TableRef(TableExpression):
    """A base table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is visible as (alias if given, else name)."""
        return self.alias or self.name


class JoinKind(enum.Enum):
    INNER = "JOIN"
    LEFT = "LEFT JOIN"
    CROSS = "CROSS JOIN"


@dataclass(frozen=True, slots=True)
class Join(TableExpression):
    """``left <kind> right ON condition`` (condition is None for CROSS)."""

    kind: JoinKind
    left: TableExpression
    right: TableExpression
    condition: Optional[Expression] = None


@dataclass(frozen=True, slots=True)
class SubquerySource(TableExpression):
    """A derived table: ``(SELECT ...) AS alias``."""

    subquery: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Marker base class for statements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SelectItem:
    """One element of the select list: an expression plus optional alias."""

    expression: Expression
    alias: Optional[str] = None


class SortOrder(enum.Enum):
    ASC = "ASC"
    DESC = "DESC"


@dataclass(frozen=True, slots=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    order: SortOrder = SortOrder.ASC


@dataclass(frozen=True, slots=True)
class Select(Statement):
    """A single SELECT block (set operations live in :class:`SetOperation`)."""

    items: tuple[SelectItem, ...]
    source: Optional[TableExpression] = None
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


class SetOperator(enum.Enum):
    UNION = "UNION"
    UNION_ALL = "UNION ALL"
    INTERSECT = "INTERSECT"
    EXCEPT = "EXCEPT"


@dataclass(frozen=True, slots=True)
class SetOperation(Statement):
    """``left UNION/INTERSECT/EXCEPT right`` with optional trailing ORDER BY."""

    op: SetOperator
    left: Union[Select, "SetOperation"]
    right: Union[Select, "SetOperation"]
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


#: A query is either a plain SELECT or a tree of set operations.
Query = Union[Select, SetOperation]


@dataclass(frozen=True, slots=True)
class ColumnDef:
    """Column definition inside CREATE TABLE."""

    name: str
    type_name: str
    primary_key: bool = False


@dataclass(frozen=True, slots=True)
class ForeignKeyDef:
    """``FOREIGN KEY (col) REFERENCES table(col)``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True, slots=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    foreign_keys: tuple[ForeignKeyDef, ...] = ()


@dataclass(frozen=True, slots=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...] = ()


@dataclass(frozen=True, slots=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expression], ...] = ()
    where: Optional[Expression] = None


@dataclass(frozen=True, slots=True)
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True, slots=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


def walk_expressions(expr: Optional[Expression]):
    """Yield ``expr`` and every expression nested inside it (pre-order).

    Subqueries are *not* descended into; callers that need nested query
    traversal should use :func:`walk_queries`.
    """
    if expr is None:
        return
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinaryOp):
            stack.extend((node.right, node.left))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, FunctionCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, Like):
            stack.extend((node.pattern, node.operand))
        elif isinstance(node, Between):
            stack.extend((node.high, node.low, node.operand))
        elif isinstance(node, InList):
            stack.extend(reversed(node.items))
            stack.append(node.operand)
        elif isinstance(node, InSubquery):
            stack.append(node.operand)
        elif isinstance(node, IsNull):
            stack.append(node.operand)
        elif isinstance(node, CaseWhen):
            for cond, value in reversed(node.branches):
                stack.extend((value, cond))
            if node.default is not None:
                stack.append(node.default)


#: Node type → the fields :func:`rewrite` descends into, in the order
#: :func:`walk_expressions` visits them. Subqueries are not entered.
_REWRITE_CHILDREN: dict[type, tuple[str, ...]] = {
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    FunctionCall: ("args",),
    Like: ("operand", "pattern"),
    Between: ("operand", "low", "high"),
    InList: ("operand", "items"),
    InSubquery: ("operand",),
    IsNull: ("operand",),
    CaseWhen: ("default", "branches"),
    Join: ("left", "right", "condition"),
    SelectItem: ("expression",),
    OrderItem: ("expression",),
}


def rewrite(node, fn: Callable):
    """Rebuild ``node`` bottom-up, replacing every node by ``fn(node)``.

    ``node`` may be an expression, a FROM item, a select or order item, a
    tuple of those, or None. Children are rewritten left to right before
    their parent, and ``fn`` sees the parent with its rewritten children;
    it returns the node itself to keep it. Subqueries are not entered,
    as in :func:`walk_expressions`. Subtrees ``fn`` keeps are returned
    as the same objects, so an edit shares them with its input.
    """
    if node is None:
        return None
    if isinstance(node, tuple):
        rebuilt = tuple(rewrite(child, fn) for child in node)
        return node if all(map(operator.is_, rebuilt, node)) else rebuilt
    changes = {}
    for name in _REWRITE_CHILDREN.get(type(node), ()):
        child = getattr(node, name)
        new = rewrite(child, fn)
        if new is not child:
            changes[name] = new
    if changes:
        node = dataclasses.replace(node, **changes)
    return fn(node)


def walk_queries(query: Query):
    """Yield every SELECT block in ``query``, including nested subqueries."""
    stack: list[Query] = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, SetOperation):
            stack.extend((node.right, node.left))
            continue
        yield node
        sources = [node.source] if node.source is not None else []
        while sources:
            src = sources.pop()
            if isinstance(src, Join):
                sources.extend((src.right, src.left))
                if src.condition is not None:
                    stack.extend(_subqueries_in(src.condition))
            elif isinstance(src, SubquerySource):
                stack.append(src.subquery)
        for item in node.items:
            stack.extend(_subqueries_in(item.expression))
        for clause in (node.where, node.having):
            stack.extend(_subqueries_in(clause))
        for expr in node.group_by:
            stack.extend(_subqueries_in(expr))
        for order in node.order_by:
            stack.extend(_subqueries_in(order.expression))


def _subqueries_in(expr: Optional[Expression]) -> list[Query]:
    found: list[Query] = []
    for node in walk_expressions(expr):
        if isinstance(node, (InSubquery, Exists)):
            found.append(node.subquery)
        elif isinstance(node, ScalarSubquery):
            found.append(node.subquery)
    return found
