"""Simulated feedback-providing user (the paper's annotator stand-in).

The paper's feedback was written by the authors using only the information
the tool shows: the question, the generated SQL, its natural-language
explanation, and the execution result — never the gold SQL or schema
internals. The simulator enforces the same protocol:

* It knows the *intent* (the gold query's semantics — exactly what a user
  who asked the question knows) and compares the visible behaviour against
  it via the structural diff, which returns the edit operations that would
  turn the prediction into gold (:func:`repro.sql.edits.diff_queries`).
* It verbalizes **one** error per round, as the paper observed users doing.
* It is imperfect on purpose, with calibrated rates of *vague* feedback
  (terse, ungrounded — "change to 2024") and *misaligned* feedback
  (misdiagnosing the problem), the two residual-error causes in the
  paper's error analysis besides multi-error queries.

All stochasticity is deterministic per (example, round) via stable hashes.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.feedback import Feedback, Highlight
from repro.sql import ast
from repro.sql.edits import (
    AddGroupKey,
    AddSelectItem,
    AddWhereConjunct,
    EditOperation,
    RemoveGroupKey,
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
from repro.sql.printer import print_expression, print_select
from repro.sql.schema import DatabaseSchema
from repro.util import stable_choice, stable_fraction

_DATE_YEAR_RE = re.compile(r"^((?:19|20)\d{2})-\d{2}-\d{2}")

#: How many (gold, predicted) diffs one annotator keeps (least recently
#: used first out). A full sweep diffs 320 distinct pairs, 339 counted per
#: database (a pair can recur in another database), at most 43 in one.
DIFF_MEMO_SIZE = 256


@dataclass
class AnnotatorConfig:
    """Calibrated imperfection rates (all deterministic per example)."""

    #: Probability a given error example gets annotated at all (the paper
    #: annotated 101 of 243 SPIDER errors).
    annotate_rate: float = 1.0
    #: Probability the feedback is terse/ungrounded ("change to 2024").
    vague_rate: float = 0.10
    #: Probability the feedback misdiagnoses the error entirely.
    misaligned_rate: float = 0.10
    #: Cap on how many distinct errors (diff operations) a query may
    #: contain and still be considered annotatable from the visible
    #: information.
    max_expressible_deltas: int = 3


class SimulatedAnnotator:
    """Produces natural-language feedback for incorrect SQL."""

    def __init__(
        self,
        schema: DatabaseSchema,
        config: Optional[AnnotatorConfig] = None,
        salt: str = "annotator",
    ) -> None:
        self._schema = schema
        self._config = config or AnnotatorConfig()
        self._salt = salt
        self._lock = threading.Lock()
        self._diffs: OrderedDict[tuple[int, int], tuple] = OrderedDict()

    # -- annotatability (the 101-of-243 selection) ------------------------------

    def can_annotate(
        self, example_id: str, gold: ast.Select, predicted: ast.Select
    ) -> bool:
        """Whether feedback can be written from the visible information."""
        deltas = self._deltas(gold, predicted)
        if not deltas:
            return False
        if len(deltas) > self._config.max_expressible_deltas:
            return False
        if self._config.annotate_rate < 1.0:
            keep = stable_fraction(self._salt, "annotate", example_id)
            if keep >= self._config.annotate_rate:
                return False
        return True

    # -- feedback generation --------------------------------------------------------

    def give_feedback(
        self,
        example_id: str,
        question: str,
        gold: ast.Select,
        predicted: ast.Select,
        round_index: int = 0,
        use_highlights: bool = False,
    ) -> Optional[Feedback]:
        """Produce one round of feedback, or None when satisfied/stuck."""
        deltas = self._deltas(gold, predicted)
        if not deltas:
            return None
        operation = self._pick_delta(deltas)

        misaligned = (
            stable_fraction(self._salt, "misaligned", example_id)
            < self._config.misaligned_rate
        )
        if misaligned:
            text = stable_choice(
                [
                    "these numbers do not look right to me",
                    "this is not what I asked for",
                    "the result seems off, can you double check",
                ],
                self._salt,
                "misaligned-text",
                example_id,
                round_index,
            )
            return Feedback(text=text, intent_kind="misaligned")

        vague = (
            stable_fraction(self._salt, "vague", example_id)
            < self._config.vague_rate
        )
        feedback = self._verbalize(operation, question, predicted, vague)
        if feedback is None:
            return None
        if use_highlights:
            feedback = replace(
                feedback, highlight=self._make_highlight(operation, predicted)
            )
        return feedback

    def _deltas(
        self, gold: ast.Select, predicted: ast.Select
    ) -> tuple[EditOperation, ...]:
        """``diff_queries(gold, predicted)``, computed once per pair of trees.

        The error-set check and every round of feedback on one prediction
        ask for the same diff. Pairs are keyed by the trees' identity, not
        their equality: ``Literal(7) == Literal(7.0)``, but the feedback
        quotes each as printed. A kept entry holds its trees, so their ids
        cannot be reused while it is kept.
        """
        key = (id(gold), id(predicted))
        with self._lock:
            kept = self._diffs.get(key)
            if kept is not None and kept[0] is gold and kept[1] is predicted:
                self._diffs.move_to_end(key)
                return kept[2]
        deltas = tuple(diff_queries(gold, predicted))
        with self._lock:
            self._diffs[key] = (gold, predicted, deltas)
            if len(self._diffs) > DIFF_MEMO_SIZE:
                self._diffs.popitem(last=False)
        return deltas

    def _pick_delta(self, deltas: Sequence[EditOperation]) -> EditOperation:
        def rank(operation: EditOperation) -> tuple[int, int]:
            # Among missing tables, users describe the *relationship* —
            # which lives in the fact/link table (the one with FKs).
            fact_bonus = 1
            if isinstance(operation, SetSource) and operation.joined:
                name = operation.table
                if self._schema.has_table(name) and self._schema.table(
                    name
                ).foreign_keys:
                    fact_bonus = 0
            return (_RANK[type(operation)], fact_bonus)

        return min(deltas, key=rank)

    # -- verbalization ------------------------------------------------------------

    def _verbalize(
        self,
        operation: EditOperation,
        question: str,
        predicted: ast.Select,
        vague: bool,
    ) -> Optional[Feedback]:
        handler = _HANDLERS[_RANK[type(operation)]][1]
        return handler(self, operation, question, predicted, vague)

    def _column_nl(self, table_name: Optional[str], column_name: str) -> str:
        if table_name and self._schema.has_table(table_name):
            table = self._schema.table(table_name)
            if table.has_column(column_name):
                return table.column(column_name).nl_name
        return column_name.replace("_", " ")

    def _v_select(self, operation, question, predicted, vague):
        table_name = _main_table_name(predicted)
        if isinstance(operation, ReplaceSelectItem):
            gold_expr = operation.new.expression
            pred_expr = operation.old.expression
            # COUNT vs COUNT DISTINCT / SUM — aggregate-level feedback.
            if isinstance(gold_expr, ast.FunctionCall) and isinstance(
                pred_expr, ast.FunctionCall
            ):
                if (
                    gold_expr.name == "COUNT"
                    and pred_expr.name == "COUNT"
                    and gold_expr.distinct
                    and not pred_expr.distinct
                ):
                    column = _call_column(gold_expr) or "value"
                    nl = self._column_nl(table_name, column)
                    return Feedback(
                        text=f"count each {nl} only once, not every row",
                        intent_kind="count_distinct",
                    )
                if gold_expr.name == "SUM" and pred_expr.name == "COUNT":
                    column = _call_column(gold_expr) or "value"
                    nl = self._column_nl(table_name, column)
                    return Feedback(
                        text=f"sum the {nl} instead of counting rows",
                        intent_kind="sum_not_count",
                    )
            gold_col = _expr_column(gold_expr)
            pred_col = _expr_column(pred_expr)
            if gold_col and pred_col:
                gold_nl = self._column_nl(table_name, gold_col)
                pred_nl = self._column_nl(table_name, pred_col)
                return Feedback(
                    text=f"provide the {gold_nl} instead of the {pred_nl}",
                    intent_kind="select_edit",
                )
            return None
        if isinstance(operation, RemoveSelectItem):
            pred_col = _expr_column(operation.items[0].expression)
            if pred_col is None:
                return None
            nl = self._column_nl(table_name, pred_col)
            plural = nl if nl.endswith("s") else nl + "s"
            return Feedback(
                text=f"do not give {plural}", intent_kind="select_remove"
            )
        gold_col = _expr_column(operation.expression)
        if gold_col is None:
            return None
        nl = self._column_nl(table_name, gold_col)
        return Feedback(text=f"also show the {nl}", intent_kind="select_add")

    def _v_where(self, operation, question, predicted, vague):
        table_name = _main_table_name(predicted)
        if isinstance(operation, RemoveWhereConjunct):
            column, _value = _condition_column_value(operation.conditions[0])
            if column is None:
                return None
            nl = self._column_nl(table_name, column)
            return Feedback(
                text=f"remove the condition on {nl}", intent_kind="filter_remove"
            )
        gold_cond = operation.condition
        # Year corrections get the paper's canonical phrasing.
        year = _condition_year(gold_cond)
        if year is not None and isinstance(operation, ReplaceWhereConjunct):
            if vague:
                return Feedback(text=f"change to {year}", intent_kind="year_vague")
            return Feedback(text=f"we are in {year}", intent_kind="year")
        column, value = _condition_column_value(gold_cond)
        if column is None or value is None:
            return None
        nl = self._column_nl(table_name, column)
        if vague:
            return Feedback(text=f"change to '{value}'", intent_kind="filter_vague")
        phrase = stable_choice(
            [
                f"only include the ones whose {nl} is '{value}'",
                f"I meant only those with {nl} '{value}'",
                f"that means the {nl} is '{value}'",
            ],
            self._salt,
            "filter-phrase",
            question,
            column,
        )
        return Feedback(text=phrase, intent_kind="filter")

    def _v_table(self, operation, question, predicted, vague):
        if isinstance(operation, SetSource):
            # Missing join tables are expressed through the fact relation.
            return self._v_fact_table(operation.table) if operation.joined else None
        gold_table = operation.new
        if self._schema.has_table(gold_table):
            nl = self._schema.table(gold_table).nl_name
        else:
            nl = gold_table.replace("_", " ")
        jargon = _jargon_word(question)
        if jargon:
            return Feedback(
                text=f"by {jargon} I mean the {nl} table",
                intent_kind="table_edit",
            )
        return Feedback(
            text=f"use the {nl} table", intent_kind="table_edit"
        )

    def _v_fact_table(self, table_name):
        if not self._schema.has_table(table_name):
            return None
        table = self._schema.table(table_name)
        if not table.foreign_keys:
            return None
        nl = table.nl_name
        return Feedback(
            text=(
                f"they are linked through the {nl} table, "
                f"look at the entries there"
            ),
            intent_kind="fact_join",
        )

    def _v_group(self, operation, question, predicted, vague):
        if isinstance(operation, RemoveGroupKey):
            return None
        column = _expr_column(operation.expression)
        if column is None:
            return None
        nl = self._column_nl(_main_table_name(predicted), column)
        return Feedback(
            text=f"break the numbers down by {nl}", intent_kind="group_add"
        )

    def _v_order(self, operation, question, predicted, vague):
        items = operation.items
        if not items:
            return Feedback(
                text="no need to sort the results", intent_kind="order_remove"
            )
        if not predicted.order_by:
            column = _expr_column(items[0].expression) or "names"
            nl = self._column_nl(_main_table_name(predicted), column)
            direction = (
                "ascending"
                if items[0].order is ast.SortOrder.ASC
                else "descending"
            )
            return Feedback(
                text=f"order the {nl}s in {direction} order.",
                intent_kind="order_add",
            )
        direction = (
            "descending" if items[0].order is ast.SortOrder.DESC else "ascending"
        )
        return Feedback(
            text=f"sort in {direction} order, please", intent_kind="order_edit"
        )

    def _v_distinct(self, operation, question, predicted, vague):
        if operation.distinct:
            return Feedback(
                text="remove duplicates from the results",
                intent_kind="distinct_add",
            )
        return Feedback(
            text="keep all rows, including duplicates",
            intent_kind="distinct_remove",
        )

    def _v_limit(self, operation, question, predicted, vague):
        if operation.limit is not None:
            return Feedback(
                text=f"limit it to {operation.limit}", intent_kind="limit"
            )
        return Feedback(
            text="remove the limit, show all of them", intent_kind="limit_remove"
        )

    # -- highlights -------------------------------------------------------------

    def _make_highlight(
        self, operation: EditOperation, predicted: ast.Select
    ) -> Optional[Highlight]:
        """Highlight the SQL span containing the part being discussed."""
        sql_text = print_select(predicted)
        target: Optional[str] = None
        if isinstance(operation, ReplaceWhereConjunct):
            target = print_expression(operation.old)
        elif isinstance(operation, RemoveWhereConjunct):
            target = print_expression(operation.conditions[0])
        elif isinstance(operation, AddWhereConjunct):
            # Nothing wrong is *present*; the user highlights the FROM
            # clause to show where the restriction belongs.
            table_name = _main_table_name(predicted)
            if table_name is not None:
                target = f"FROM {table_name}"
        elif isinstance(operation, ReplaceSelectItem):
            target = print_expression(operation.old.expression)
        elif isinstance(operation, RemoveSelectItem):
            target = print_expression(operation.items[0].expression)
        elif isinstance(operation, SetOrderBy) and predicted.order_by:
            target = print_expression(predicted.order_by[0].expression)
        if target is None:
            return None
        start = sql_text.find(target)
        if start == -1:
            return None
        return Highlight(text=target, start=start, end=start + len(target))


#: The diff's operations by the part of the query they change, in the order
#: the annotator addresses them when several are present, each with the
#: handler that verbalizes it.
_HANDLERS = (
    ((ReplaceTable, SetSource), SimulatedAnnotator._v_table),
    (
        (ReplaceSelectItem, AddSelectItem, RemoveSelectItem),
        SimulatedAnnotator._v_select,
    ),
    (
        (ReplaceWhereConjunct, AddWhereConjunct, RemoveWhereConjunct),
        SimulatedAnnotator._v_where,
    ),
    ((AddGroupKey, RemoveGroupKey), SimulatedAnnotator._v_group),
    ((SetOrderBy,), SimulatedAnnotator._v_order),
    ((SetDistinct,), SimulatedAnnotator._v_distinct),
    ((SetLimit,), SimulatedAnnotator._v_limit),
)
_RANK = {
    kind: rank for rank, (kinds, _handler) in enumerate(_HANDLERS) for kind in kinds
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _main_table_name(query: ast.Select) -> Optional[str]:
    source = query.source
    while isinstance(source, ast.Join):
        source = source.left
    if isinstance(source, ast.TableRef):
        return source.name
    return None


def _expr_column(expr) -> Optional[str]:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FunctionCall):
        return _call_column(expr)
    return None


def _call_column(call: ast.FunctionCall) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.ColumnRef):
        return call.args[0].column
    return None


def _condition_year(condition) -> Optional[str]:
    """The year of a date-literal comparison, if that is what it is."""
    if not isinstance(condition, ast.Expression):
        return None
    for node in ast.walk_expressions(condition):
        if isinstance(node, ast.Literal) and isinstance(node.value, str):
            match = _DATE_YEAR_RE.match(node.value)
            if match:
                return match.group(1)
    return None


def _condition_column_value(condition):
    """(column, literal value) of a simple comparison condition."""
    if isinstance(condition, ast.BinaryOp) and condition.op.is_comparison:
        if isinstance(condition.left, ast.ColumnRef) and isinstance(
            condition.right, ast.Literal
        ):
            return condition.left.column, condition.right.value
    if isinstance(condition, ast.Like) and isinstance(
        condition.operand, ast.ColumnRef
    ):
        if isinstance(condition.pattern, ast.Literal):
            return condition.operand.column, condition.pattern.value
    return None, None


def _jargon_word(question: str) -> Optional[str]:
    """The jargon noun in the question, if recognizable."""
    lowered = question.lower()
    for word in ("audiences", "audience"):
        if word in lowered:
            return word
    return None
