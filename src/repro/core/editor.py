"""The feedback editor: turns NL feedback into anchored AST edits.

This module implements the behaviour of the (simulated) NL2SQL model when
prompted with the Figure 6 feedback prompt: the previous SQL query anchors
the revision, and the feedback selects a typed edit
(:mod:`repro.sql.edits`) to apply to it.

Routing matters here exactly as in the paper: with routing, the prompt
carries *all* demonstrations for the identified feedback type, so every
revision pattern of that type is covered; without routing only a small
generic demonstration set fits, and a calibrated fraction of feedback
phrasings fall outside its coverage (the model produces no usable edit on
that round). The miss is deterministic per (context, feedback) so every
experiment reproduces exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.feedback import ADD, EDIT, REMOVE, Feedback
from repro.core.linking import SchemaLinker
from repro.errors import EditError
from repro.nlp.tokenize import quoted_strings
from repro.sql import ast
from repro.sql.analysis import conjuncts
from repro.sql.edits import (
    AddSelectItem,
    AddWhereConjunct,
    EditOperation,
    RemoveSelectItem,
    RemoveWhereConjunct,
    ReplaceAggregate,
    ReplaceColumn,
    ReplaceLiteral,
    ReplaceQuery,
    ReplaceWhereConjunct,
    SetDistinct,
    SetLimit,
    SetOrderBy,
    rewrite_query_expressions,
)
from repro.sql.schema import DatabaseSchema, Table
from repro.util import stable_fraction

_YEAR_RE = re.compile(r"\b((?:19|20)\d{2})\b")
_DATE_YEAR_RE = re.compile(r"^((?:19|20)\d{2})-\d{2}-\d{2}")

# Feedback patterns, matched against the lower-cased feedback, in the
# order of :meth:`FeedbackEditor._candidates`' rules.
_INSTEAD_OF_RE = re.compile(
    r"(?:provide|use|show|give|select|i want)?\s*(?:the )?(.+?) "
    r"(?:instead of|rather than|not) (?:the )?(.+)$"
)
_DO_NOT_GIVE_RE = re.compile(
    r"(?:do not|don't|no need to|please don't) "
    r"(?:give|show|include|return|display|list) (?:the |any )?(\w+)"
)
_REMOVE_COLUMN_RE = re.compile(
    r"(?:remove|drop|omit|leave out|exclude) (?:the )?(\w+)"
    r"(?: column| field)?"
)
_ADD_SELECT_RE = re.compile(
    r"(?:also (?:show|include|give|return|display)|"
    r"add|include) (?:the |a )?([\w ]+?)"
    r"(?: as well| too| column| field)?$"
)
_ORDER_BY_RE = re.compile(
    r"(?:order|sort) (?:the )?([\w ]+?) in (ascending|descending) order"
)
_DIRECTION_RE = re.compile(r"\b(descending|ascending)\b(?: order)?")
_HIGHEST_FIRST_RE = re.compile(r"(highest|best|largest) first")
_ADD_FILTER_RES = (
    re.compile(
        r"(?:only|just) (?:include|count|show|keep|list|want)?[\w ]*?"
        r"(?:with|whose|where) (?:the )?([\w ]+?) (?:is |= ?|equals )?'?([\w ]+?)'?$"
    ),
    re.compile(r"\b([\w]+) (?:should be|must be|needs to be) '?([\w ]+?)'?$"),
    re.compile(r"\bmeans? (?:the )?([\w ]+?) (?:is|=) '?([\w ]+?)'?$"),
    re.compile(r"\bfilter (?:on|by) ([\w ]+?) (?:is |= ?)'?([\w ]+?)'?$"),
)
_REMOVE_CONDITION_RE = re.compile(
    r"(?:remove|drop|ignore|do not use|don't use) the "
    r"(?:condition|filter|restriction) on (?:the )?([\w ]+)$"
)
_DO_NOT_FILTER_RE = re.compile(r"do(?:n't| not) filter (?:by|on) ([\w ]+)$")
_COUNT_DISTINCT_RE = re.compile(
    r"(count (?:the )?(?:distinct|different|unique)|"
    r"count each [\w ]+ (?:only )?once|"
    r"(?:distinct|unique|different) (?:values|ones) (?:only|once)?)"
)
_SUM_NOT_COUNT_RE = re.compile(
    r"(\bsum\b|\badd (?:them |the [\w ]+ )?up\b|\btotal\b.*\bnot\b.*\bcount\b|"
    r"\bnot\b.*\bcount\b.*\bsum\b)"
)
_SUM_COLUMN_RE = re.compile(r"sum (?:up )?(?:the )?([\w ]+?)(?: values| column)?$")
_DISTINCT_ROWS_RE = re.compile(
    r"(remove (?:the )?duplicates|each (?:value|one|row) (?:only )?once|"
    r"no duplicates|duplicates should not|only (?:the )?(?:distinct|unique|"
    r"different) values)"
)
_USE_TABLE_RE = re.compile(
    r"(?:use|look (?:in|at)|query|check)(?: the)? ([\w ]+?) table"
)
_STORED_IN_TABLE_RE = re.compile(
    r"(?:are|is) (?:stored |kept |held )?in the ([\w ]+?) table"
)
_MEANT_TABLE_RE = re.compile(r"\bi mean(?:t)? the ([\w ]+?) table")
_FACT_TABLE_RE = re.compile(r"(?:through|via|using|in) the ([\w ]+?) table")
_SET_LIMIT_RE = re.compile(r"(?:limit (?:it )?to|only the first|top) (\d+)")
_REMOVE_LIMIT_RE = re.compile(r"remove the limit|no limit|all of them, not just")
_CHANGE_TO_RE = re.compile(r"^change (?:it |this |that )?to '?([\w\- ]+?)'?$")


@dataclass
class EditCandidate:
    """One possible interpretation of the feedback."""

    operation: EditOperation
    score: float
    feedback_type: str
    pattern: str


class FeedbackEditor:
    """Interprets feedback against the previous query."""

    #: Probability that the demonstration context fails to cover the
    #: feedback's phrasing on a given round — the paper's residual-error
    #: cause (b), "inability of the approaches to interpret user feedback".
    #: Routing retrieves *all* demonstrations of the identified type, so its
    #: coverage gap is smaller than the generic no-routing context's.
    ROUTED_MISS_RATE = 0.08
    UNROUTED_MISS_RATE = 0.10

    #: Candidates below this score are not confident enough to act on.
    MIN_USABLE_SCORE = 0.5

    def __init__(self, schema: DatabaseSchema) -> None:
        self._schema = schema
        self._linker = schema.linker()

    # -- public API ----------------------------------------------------------------

    def interpret(
        self,
        feedback: Feedback,
        previous: ast.Select,
        question: str,
        feedback_type: Optional[str] = None,
        context_key: str = "",
    ) -> Optional[EditOperation]:
        """Choose the edit operation the feedback asks for.

        Args:
            feedback: The user's feedback (text + optional highlight).
            previous: The previous turn's query AST.
            question: The original question (for grounding values).
            feedback_type: The routed type, or None for the no-routing
                ablation.
            context_key: Stable key identifying (example, round) for the
                deterministic coverage model.

        Returns:
            The chosen operation, or None when the feedback could not be
            interpreted (the model returns the query unchanged).
        """
        candidates = self._candidates(feedback, previous, question)
        if not candidates:
            return None

        miss = stable_fraction("demo-coverage", context_key, feedback.text)
        if feedback_type is not None:
            if miss < self.ROUTED_MISS_RATE:
                return None
            typed = [c for c in candidates if c.feedback_type == feedback_type]
            pool = typed or candidates
        else:
            if miss < self.UNROUTED_MISS_RATE:
                return None
            pool = candidates

        pool = [c for c in pool if c.score >= self.MIN_USABLE_SCORE]
        if not pool:
            return None
        pool.sort(key=lambda c: (-c.score, c.pattern))
        return pool[0].operation

    def apply(
        self, operation: EditOperation, previous: ast.Select
    ) -> Optional[ast.Select]:
        """Apply an operation; None when it cannot anchor to the query."""
        try:
            return operation.apply(previous)
        except EditError:
            return None

    # -- candidate generation -----------------------------------------------------------

    def _candidates(
        self, feedback: Feedback, previous: ast.Select, question: str
    ) -> list[EditCandidate]:
        text = feedback.text.strip().lower()
        main_table = self._main_table(previous)
        out: list[EditCandidate] = []
        rules = (
            self._r_year,
            self._r_instead_of,
            self._r_remove_select,
            self._r_add_select,
            self._r_order,
            self._r_add_filter,
            self._r_remove_filter,
            self._r_count_distinct,
            self._r_sum_not_count,
            self._r_distinct_rows,
            self._r_replace_table,
            self._r_fact_join,
            self._r_limit,
            self._r_change_to,
        )
        for rule in rules:
            out.extend(rule(text, feedback, previous, question, main_table))
        return out

    def _main_table(self, query: ast.Select) -> Optional[Table]:
        source = query.source
        while isinstance(source, ast.Join):
            source = source.left
        if isinstance(source, ast.TableRef) and self._schema.has_table(source.name):
            return self._schema.table(source.name)
        return None

    # .. rules .....................................................................

    def _r_year(self, text, feedback, previous, question, main_table):
        """'we are in 2024' / 'it is 2024' / 'use 2024' → edit date years."""
        years = _YEAR_RE.findall(text)
        if not years:
            return []
        new_year = years[-1]
        old_years = _date_years_in(previous)
        old_years = [y for y in old_years if y != new_year]
        if not old_years:
            return []
        if feedback.highlight is not None:
            highlighted = _YEAR_RE.findall(feedback.highlight.text)
            narrowed = [y for y in old_years if y in highlighted]
            if narrowed:
                old_years = narrowed
        operation = ReplaceLiteral(old=old_years[0], new=new_year)
        return [
            EditCandidate(
                operation=operation, score=0.95, feedback_type=EDIT, pattern="year"
            )
        ]

    def _r_instead_of(self, text, feedback, previous, question, main_table):
        """'provide X instead of Y' → replace column (or value)."""
        match = _INSTEAD_OF_RE.search(text)
        if match is None or "instead of" not in text and "rather than" not in text:
            return []
        new_phrase = match.group(1).strip()
        old_phrase = match.group(2).strip().rstrip(".")
        out = []
        quoted = quoted_strings(feedback.text)
        if len(quoted) >= 2:
            out.append(
                EditCandidate(
                    operation=ReplaceLiteral(old=quoted[1], new=quoted[0]),
                    score=0.9,
                    feedback_type=EDIT,
                    pattern="instead-of-value",
                )
            )
        if main_table is not None:
            new_link = self._linker.link_column(main_table, new_phrase)
            old_link = self._linker.link_column(main_table, old_phrase)
            if new_link is not None and old_link is not None:
                if new_link.column.key != old_link.column.key:
                    out.append(
                        EditCandidate(
                            operation=ReplaceColumn(
                                old=old_link.column.name, new=new_link.column.name
                            ),
                            score=0.95,
                            feedback_type=EDIT,
                            pattern="instead-of-column",
                        )
                    )
        # Aggregate swap: "the total instead of the count".
        if "total" in new_phrase and "count" in old_phrase:
            out.append(
                EditCandidate(
                    operation=ReplaceAggregate("SUM", old_function="COUNT"),
                    score=0.85,
                    feedback_type=EDIT,
                    pattern="instead-of-aggregate",
                )
            )
        return out

    def _r_remove_select(self, text, feedback, previous, question, main_table):
        """'do not give descriptions' → drop a select column."""
        match = _DO_NOT_GIVE_RE.search(text)
        if match is None:
            match = _REMOVE_COLUMN_RE.search(text)
        if match is None or main_table is None:
            return []
        phrase = match.group(1)
        if phrase in ("duplicates", "duplicate"):
            return []
        link = self._linker.link_column(main_table, phrase)
        if link is None:
            return []
        items = tuple(
            item
            for item in previous.items
            if _mentions_column(item.expression, link.column.name)
        )
        return [
            EditCandidate(
                operation=RemoveSelectItem(
                    items, description=f"do not select {link.column.name}"
                ),
                score=0.9,
                feedback_type=REMOVE,
                pattern="remove-select",
            )
        ]

    def _r_add_select(self, text, feedback, previous, question, main_table):
        """'also show the X' → add a select column."""
        match = _ADD_SELECT_RE.search(text)
        if match is None or main_table is None:
            return []
        phrase = match.group(1).strip()
        link = self._linker.link_column(main_table, phrase)
        if link is None:
            return []
        return [
            EditCandidate(
                operation=AddSelectItem(
                    expression=ast.ColumnRef(link.column.name)
                ),
                score=0.7,
                feedback_type=ADD,
                pattern="add-select",
            )
        ]

    def _r_order(self, text, feedback, previous, question, main_table):
        """Ordering feedback: add an ORDER BY or flip its direction."""
        out = []
        match = _ORDER_BY_RE.search(text)
        if match is not None and main_table is not None:
            phrase, direction_word = match.groups()
            link = self._linker.link_column(main_table, phrase.strip())
            if link is None and phrase.strip() in ("names", "results", "rows"):
                name_column = self._linker.name_column(main_table)
                if name_column is not None:
                    link_column = name_column
                else:
                    link_column = None
            else:
                link_column = link.column if link else None
            if link_column is not None:
                direction = (
                    ast.SortOrder.ASC
                    if direction_word == "ascending"
                    else ast.SortOrder.DESC
                )
                ftype = EDIT if previous.order_by else ADD
                out.append(
                    EditCandidate(
                        operation=SetOrderBy(
                            (ast.OrderItem(ast.ColumnRef(link_column.name), direction),)
                        ),
                        score=0.85,
                        feedback_type=ftype,
                        pattern="order-by",
                    )
                )
        match = _DIRECTION_RE.search(text)
        if match is not None and previous.order_by and not out:
            direction = (
                ast.SortOrder.DESC
                if match.group(1) == "descending"
                else ast.SortOrder.ASC
            )
            items = tuple(
                ast.OrderItem(item.expression, direction)
                for item in previous.order_by
            )
            out.append(
                EditCandidate(
                    operation=SetOrderBy(items),
                    score=0.8,
                    feedback_type=EDIT,
                    pattern="order-direction",
                )
            )
        if _HIGHEST_FIRST_RE.search(text) and previous.order_by:
            items = tuple(
                ast.OrderItem(item.expression, ast.SortOrder.DESC)
                for item in previous.order_by
            )
            out.append(
                EditCandidate(
                    operation=SetOrderBy(items),
                    score=0.8,
                    feedback_type=EDIT,
                    pattern="order-direction",
                )
            )
        return out

    def _r_add_filter(self, text, feedback, previous, question, main_table):
        """'only include the ones whose status is active' → add a filter."""
        if main_table is None:
            return []
        for pattern in _ADD_FILTER_RES:
            match = pattern.search(text)
            if match is None:
                continue
            column_phrase, value = match.groups()
            link = self._linker.link_column(main_table, column_phrase.strip())
            if link is None:
                continue
            value = value.strip().strip("'\".")
            condition = ast.BinaryOp(
                ast.BinaryOperator.EQ,
                ast.ColumnRef(link.column.name),
                ast.Literal(value),
            )
            existing = _conditions_on(previous, link.column.name)
            if existing:
                operation: EditOperation = ReplaceWhereConjunct(
                    old=existing[0], condition=condition
                )
                ftype = EDIT
            else:
                operation = AddWhereConjunct(condition=condition)
                ftype = ADD
            return [
                EditCandidate(
                    operation=operation,
                    score=0.9,
                    feedback_type=ftype,
                    pattern="add-filter",
                )
            ]
        return []

    def _r_remove_filter(self, text, feedback, previous, question, main_table):
        """'remove the condition on X' / 'do not filter by X'."""
        match = _REMOVE_CONDITION_RE.search(text)
        if match is None:
            match = _DO_NOT_FILTER_RE.search(text)
        if match is None or main_table is None:
            return []
        link = self._linker.link_column(main_table, match.group(1).strip())
        if link is None:
            return []
        return [
            EditCandidate(
                operation=RemoveWhereConjunct(
                    _conditions_on(previous, link.column.name),
                    description=f"remove the condition on {link.column.name}",
                ),
                score=0.9,
                feedback_type=REMOVE,
                pattern="remove-filter",
            )
        ]

    def _r_count_distinct(self, text, feedback, previous, question, main_table):
        """'count each value only once' / 'count the distinct X'."""
        if not _COUNT_DISTINCT_RE.search(text):
            return []
        return [
            EditCandidate(
                operation=ReplaceAggregate(
                    "COUNT", old_function="COUNT", distinct=True
                ),
                score=0.85,
                feedback_type=EDIT,
                pattern="count-distinct",
            )
        ]

    def _r_sum_not_count(self, text, feedback, previous, question, main_table):
        """'sum them up, do not count rows' → COUNT → SUM."""
        if not _SUM_NOT_COUNT_RE.search(text):
            return []
        argument: Optional[ast.Expression] = None
        match = _SUM_COLUMN_RE.search(text)
        if match is not None and main_table is not None:
            link = self._linker.link_column(main_table, match.group(1).strip())
            if link is not None:
                argument = ast.ColumnRef(link.column.name)
        if argument is None:
            argument = _existing_count_argument(previous)
        if argument is None:
            return []
        return [
            EditCandidate(
                operation=ReplaceAggregate(
                    "SUM", new_argument=argument, old_function="COUNT"
                ),
                score=0.85,
                feedback_type=EDIT,
                pattern="sum-not-count",
            )
        ]

    def _r_distinct_rows(self, text, feedback, previous, question, main_table):
        """'remove duplicates' → SELECT DISTINCT."""
        if not _DISTINCT_ROWS_RE.search(text):
            return []
        if previous.distinct:
            return []
        return [
            EditCandidate(
                operation=SetDistinct(True),
                score=0.85,
                feedback_type=ADD,
                pattern="distinct-rows",
            )
        ]

    def _r_replace_table(self, text, feedback, previous, question, main_table):
        """'audiences are stored in the segment table' → retarget the query."""
        match = _USE_TABLE_RE.search(text)
        if match is None:
            match = _STORED_IN_TABLE_RE.search(text)
        if match is None:
            match = _MEANT_TABLE_RE.search(text)
        if match is None or main_table is None:
            return []
        link = self._linker.link_table(match.group(1).strip())
        if link is None or link.table.key == main_table.key:
            return []
        operation = _retarget_query(self._linker, previous, main_table, link.table)
        if operation is None:
            return []
        return [
            EditCandidate(
                operation=operation,
                score=0.9,
                feedback_type=EDIT,
                pattern="replace-table",
            )
        ]

    def _r_fact_join(self, text, feedback, previous, question, main_table):
        """'... linked through the activation table' → rebuild a fact join."""
        match = _FACT_TABLE_RE.search(text)
        if match is None:
            return []
        fact_link = self._linker.link_table(match.group(1).strip())
        if fact_link is None or not fact_link.table.foreign_keys:
            return []
        if main_table is not None and fact_link.table.key == main_table.key:
            return []
        rebuilt = self._build_fact_join(
            fact_link.table, previous, question, main_table
        )
        if rebuilt is None:
            return []
        return [
            EditCandidate(
                operation=ReplaceQuery(new_query=rebuilt),
                score=0.88,
                feedback_type=ADD,
                pattern="fact-join",
            )
        ]

    def _build_fact_join(
        self,
        fact: Table,
        previous: ast.Select,
        question: str,
        main_table: Optional[Table],
    ) -> Optional[ast.Select]:
        """Canonical dim–fact–dim join: target names filtered by the other dim.

        The target dimension is the previous query's table (what the user
        asked to see); the filter dimension is the fact's other FK target;
        the filter value is the quoted entity in the original question.
        """
        if main_table is None:
            return None
        fks = fact.foreign_keys
        target_fk = None
        other_fk = None
        for fk in fks:
            if fk.ref_table.lower() == main_table.key:
                target_fk = fk
            else:
                other_fk = fk
        if target_fk is None or other_fk is None:
            return None
        other = self._schema.table(other_fk.ref_table)
        target_name = self._linker.name_column(main_table)
        other_name = self._linker.name_column(other)
        if target_name is None or other_name is None:
            return None
        values = quoted_strings(question)
        if not values:
            return None
        join = ast.Join(
            kind=ast.JoinKind.INNER,
            left=ast.Join(
                kind=ast.JoinKind.INNER,
                left=ast.TableRef(fact.name, alias="T1"),
                right=ast.TableRef(main_table.name, alias="T2"),
                condition=ast.BinaryOp(
                    ast.BinaryOperator.EQ,
                    ast.ColumnRef(target_fk.column, table="T1"),
                    ast.ColumnRef(target_fk.ref_column, table="T2"),
                ),
            ),
            right=ast.TableRef(other.name, alias="T3"),
            condition=ast.BinaryOp(
                ast.BinaryOperator.EQ,
                ast.ColumnRef(other_fk.column, table="T1"),
                ast.ColumnRef(other_fk.ref_column, table="T3"),
            ),
        )
        return ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(target_name.name, table="T2")),),
            source=join,
            where=ast.BinaryOp(
                ast.BinaryOperator.EQ,
                ast.ColumnRef(other_name.name, table="T3"),
                ast.Literal(values[0]),
            ),
        )

    def _r_limit(self, text, feedback, previous, question, main_table):
        match = _SET_LIMIT_RE.search(text)
        if match is not None:
            return [
                EditCandidate(
                    operation=SetLimit(int(match.group(1))),
                    score=0.75,
                    feedback_type=EDIT if previous.limit else ADD,
                    pattern="limit",
                )
            ]
        if _REMOVE_LIMIT_RE.search(text):
            if previous.limit is None:
                return []
            return [
                EditCandidate(
                    operation=SetLimit(None),
                    score=0.75,
                    feedback_type=REMOVE,
                    pattern="limit",
                )
            ]
        return []

    def _r_change_to(self, text, feedback, previous, question, main_table):
        """Terse 'change to X' — needs grounding; highlights provide it."""
        match = _CHANGE_TO_RE.match(text)
        if match is None:
            return []
        new_value = match.group(1).strip()
        if _YEAR_RE.fullmatch(new_value):
            # Year handled with date-literal awareness by _r_year already.
            return []
        literals = _string_literals_in(previous)
        if not literals:
            if main_table is None:
                return []
            status_column = self._linker.status_column(main_table)
            if status_column is None:
                return []
            condition = ast.BinaryOp(
                ast.BinaryOperator.EQ,
                ast.ColumnRef(status_column.name),
                ast.Literal(new_value),
            )
            score = 0.8 if feedback.highlight is not None else 0.4
            return [
                EditCandidate(
                    operation=AddWhereConjunct(condition=condition),
                    score=score,
                    feedback_type=ADD,
                    pattern="change-to-status",
                )
            ]
        target: Optional[str] = None
        if feedback.highlight is not None:
            for literal in literals:
                if literal in feedback.highlight.text:
                    target = literal
                    break
        if target is None:
            if len(literals) == 1:
                target = literals[0]
            else:
                # Ambiguous grounding: the model picks deterministically —
                # and sometimes wrongly. This is precisely what Table 3's
                # highlighting experiment measures.
                index = int(
                    stable_fraction("change-to-ground", text, len(literals))
                    * len(literals)
                )
                target = literals[min(index, len(literals) - 1)]
        return [
            EditCandidate(
                operation=ReplaceLiteral(old=target, new=new_value),
                score=0.7,
                feedback_type=EDIT,
                pattern="change-to",
            )
        ]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _date_years_in(query: ast.Select) -> list[str]:
    """Years found in date-shaped string literals, in walk order."""
    years = []
    for select in ast.walk_queries(query):
        for expr in _query_expressions(select):
            for node in ast.walk_expressions(expr):
                if isinstance(node, ast.Literal) and isinstance(node.value, str):
                    match = _DATE_YEAR_RE.match(node.value)
                    if match and match.group(1) not in years:
                        years.append(match.group(1))
    return years


def _string_literals_in(query: ast.Select) -> list[str]:
    literals = []
    for select in ast.walk_queries(query):
        for expr in _query_expressions(select):
            for node in ast.walk_expressions(expr):
                if isinstance(node, ast.Literal) and isinstance(node.value, str):
                    if node.value not in literals:
                        literals.append(node.value)
    return literals


def _query_expressions(select: ast.Select) -> list[ast.Expression]:
    exprs = [item.expression for item in select.items]
    if select.where is not None:
        exprs.append(select.where)
    exprs.extend(select.group_by)
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(order.expression for order in select.order_by)
    return exprs


def _mentions_column(expr: ast.Expression, column: str) -> bool:
    for node in ast.walk_expressions(expr):
        if isinstance(node, ast.ColumnRef) and node.column.lower() == column.lower():
            return True
    return False


def _conditions_on(query: ast.Select, column: str) -> tuple[ast.Expression, ...]:
    """The WHERE conjuncts of ``query`` that mention ``column``."""
    return tuple(c for c in conjuncts(query.where) if _mentions_column(c, column))


def _existing_count_argument(query: ast.Select) -> Optional[ast.Expression]:
    """The column a COUNT() aggregates, if any (COUNT(*) yields None)."""
    for item in query.items:
        for node in ast.walk_expressions(item.expression):
            if (
                isinstance(node, ast.FunctionCall)
                and node.name == "COUNT"
                and node.args
                and isinstance(node.args[0], ast.ColumnRef)
            ):
                return node.args[0]
    return None


def _retarget_query(
    linker: SchemaLinker,
    previous: ast.Select,
    old_table: Table,
    new_table: Table,
) -> Optional[EditOperation]:
    """Move a single-table query to a different table, remapping columns.

    Columns are remapped by NL similarity (``datasetname`` → ``segmentname``,
    ``name`` → ``name``); when a referenced column has no counterpart the
    retarget fails and the editor reports no usable edit.
    """
    source = previous.source
    if not (
        isinstance(source, ast.TableRef) and source.name.lower() == old_table.key
    ):
        return None

    def remap(node):
        if isinstance(node, ast.ColumnRef) and not new_table.has_column(
            node.column
        ):
            replacement = _counterpart_column(linker, node.column, new_table)
            if replacement is None:
                raise _NoCounterpart
            return replace(node, column=replacement)
        return node

    try:
        out = rewrite_query_expressions(previous, remap)
    except _NoCounterpart:
        return None
    return ReplaceQuery(
        new_query=replace(out, source=replace(source, name=new_table.name))
    )


class _NoCounterpart(Exception):
    """A retargeted column has no counterpart in the new table."""


def _counterpart_column(
    linker: SchemaLinker, column_name: str, new_table: Table
) -> Optional[str]:
    # Strip the old table's prefix-style naming: datasetname → name.
    suffixes = ("name", "id", "type", "count", "time", "date", "status")
    for suffix in suffixes:
        if column_name.lower().endswith(suffix):
            for column in new_table.columns:
                if column.key.endswith(suffix):
                    if suffix == "id" and not column.primary_key:
                        continue
                    return column.name
    link = linker.link_column(new_table, column_name.replace("_", " "))
    if link is not None:
        return link.column.name
    return None
