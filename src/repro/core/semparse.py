"""Rule-based semantic parser: the simulated base NL2SQL model.

This is the executable stand-in for GPT-3.5-turbo's text-to-SQL skill. It is
a genuinely competent parser for the question styles common in SPIDER-like
benchmarks, with the *same defensible failure modes* the paper's error
analysis attributes to LLMs:

* ``X of the Y`` resolves Y as an entity; when Y is not a table the modifier
  is dropped and the bare head is linked — picking decoy columns
  (the paper's singer-name / song-name example).
* Month references without a year resolve to the model's prior-year default
  (:data:`~repro.datasets.names.MODEL_DEFAULT_YEAR`).
* Unknown qualifiers ("currently running", "live") are treated as noise
  unless a glossary entry (learned in-context from demonstrations) maps
  them to a filter.
* "List the X" includes the description column — LLM helpfulness — unless
  the name-only house convention was demonstrated.
* Phrasing conventions ("first N by", "how many <values>") follow the
  *literal* reading unless a demonstration taught the idiomatic one.

Conventions and glossary entries arrive via :class:`ParserConfig`; the
NL2SQL wrapper derives them from retrieved demonstrations, which is how
"in-context learning" is realized mechanistically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.core.linking import ColumnLink, SchemaLinker, TableLink
from repro.datasets.names import MODEL_DEFAULT_YEAR, MONTH_NAMES
from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize
from repro.sql import ast
from repro.sql.schema import Column, DatabaseSchema, Table

#: Convention flags that demonstrations can teach (see module docstring).
CONVENTION_COUNT_DISTINCT = "count_distinct"
CONVENTION_SUM_HOW_MANY = "sum_how_many"
CONVENTION_DISTINCT_VALUES = "distinct_values"
CONVENTION_FIRST_IS_TOP = "first_is_top"
CONVENTION_NAME_ONLY = "name_only_listing"

ALL_CONVENTIONS = frozenset(
    {
        CONVENTION_COUNT_DISTINCT,
        CONVENTION_SUM_HOW_MANY,
        CONVENTION_DISTINCT_VALUES,
        CONVENTION_FIRST_IS_TOP,
        CONVENTION_NAME_ONLY,
    }
)

_COMPARISONS = {
    "greater than": ast.BinaryOperator.GT,
    "more than": ast.BinaryOperator.GT,
    "less than": ast.BinaryOperator.LT,
    "fewer than": ast.BinaryOperator.LT,
    "at least": ast.BinaryOperator.GE,
    "at most": ast.BinaryOperator.LE,
    "above": ast.BinaryOperator.GT,
    "below": ast.BinaryOperator.LT,
}

_COMPARISON_ALT = "|".join(sorted(_COMPARISONS, key=len, reverse=True))

_MONTHS = {name.lower(): index + 1 for index, name in enumerate(MONTH_NAMES)}
_MONTH_ALT = "|".join(_MONTHS)

_AGG_WORDS = {
    "average": "AVG",
    "mean": "AVG",
    "maximum": "MAX",
    "highest": "MAX",
    "largest": "MAX",
    "minimum": "MIN",
    "lowest": "MIN",
    "smallest": "MIN",
    "total": "SUM",
}

_AGG_ALT = "|".join(_AGG_WORDS)

# Question patterns, matched against the normalized question, one per
# handler (in :meth:`SemanticParser.parse` order), then the entity-phrase
# filters of :func:`_split_entity_filters`.
_JOIN_PAIR_RE = re.compile(
    r"^show the name of each (.+?) together with the name of its (.+)$"
)
_GROUP_COUNT_RE = re.compile(r"^how many (.+?) are there for each (.+)$")
_COUNT_MONTH_RE = re.compile(
    rf"^how many (.+?) were (\w+) in ({_MONTH_ALT})(?: (\d{{4}}))?$"
)
_COUNT_HAVE_VALUE_RE = re.compile(r"^how many (.+?) have (.+?) '(.+)'$")
_COUNT_MEASURE_TOTAL_RE = re.compile(
    r"^how many (.+?) do the (.+?) have (?:altogether|in total)$"
)
_COUNT_CATEGORY_VALUES_RE = re.compile(
    r"^how many (.+?) (?:are represented among the|do the) (.+?)"
    r"(?: come from)?$"
)
_COUNT_PLAIN_RE = re.compile(r"^how many (.+?) (?:are there|do we have|exist)$")
_AGGREGATE_RE = re.compile(rf"^what is the ({_AGG_ALT}) (.+)$")
_AGGREGATE_DIVIDER_RE = re.compile(r" (?:of|across) (?:all |our |the )?")
_SUPERLATIVE_SHOW_RE = re.compile(
    r"^(?:show|give) the (.+?) by the (.+?) with the (highest|lowest) (.+)$"
)
_ATTR_OF_NAMED_RE = re.compile(r"^what is the (.+) of the (.+?) named '(.+)'$")
_SUPERLATIVE_WHAT_RE = re.compile(
    r"^what is the (.+) of the (.+?) with the (highest|lowest) (.+)$"
)
_DISTINCT_VALUES_RE = re.compile(
    r"^what are the (different )?(.+?) values of the (.+)$"
)
_LIST_TOP_N_RE = re.compile(
    r"^(?:list|show|give) the names? of the (top|first) (\d+) (.+?) by (.+)$"
)
_LIST_NAMES_RE = re.compile(
    r"^(?:list|show|give|what are) the names? of (?:all |the )?(.+)$"
)
_LIST_ENTITIES_RE = re.compile(r"^(?:list|show|give) the (.+)$")
_WHICH_ENTITIES_RE = re.compile(r"^which (.+?) (?:is|are) (.+)$")
_ABOVE_AVERAGE_RE = re.compile(
    r"^(.+?) whose (.+?) is (above|below) the average$"
)
_COMPARISON_FILTER_RE = re.compile(
    rf"^(.+?) (?:whose|with) (.+?) (?:is )?({_COMPARISON_ALT}) "
    r"(\d+(?:\.\d+)?)$"
)
_BETWEEN_FILTER_RE = re.compile(
    r"^(.+?) with (.+?) between (\d+(?:\.\d+)?) and (\d+(?:\.\d+)?)$"
)
_MONTH_FILTER_RE = re.compile(
    rf"^(.+?) (\w+) in ({_MONTH_ALT})(?: (\d{{4}}))?$"
)
_SPACE_RE = re.compile(r"\s+")


@dataclass
class ParserConfig:
    """Knobs that model the prompt context of the simulated LLM.

    Attributes:
        default_year: Year assumed for month phrases with no explicit year.
        conventions: Phrasing conventions taught by demonstrations.
        glossary: In-context vocabulary: phrase → table name, or
            ``column=value`` filter shorthand.
    """

    default_year: int = MODEL_DEFAULT_YEAR
    conventions: frozenset = frozenset()
    glossary: dict[str, str] = field(default_factory=dict)

    def knows(self, convention: str) -> bool:
        return convention in self.conventions


@dataclass
class ParseOutcome:
    """The parser's result plus notes for the Assistant's explanation."""

    query: ast.Select
    main_table: Table
    notes: list[str] = field(default_factory=list)


class SemanticParser:
    """Parses one natural-language question against one schema."""

    def __init__(
        self, schema: DatabaseSchema, config: Optional[ParserConfig] = None
    ) -> None:
        self._schema = schema
        self._config = config or ParserConfig()
        self._linker = schema.linker()

    @property
    def linker(self) -> SchemaLinker:
        return self._linker

    # -- entry point -------------------------------------------------------------

    def parse(self, question: str) -> ParseOutcome:
        """Parse a question into a SELECT AST (always returns something)."""
        self._original_question = question
        text = _normalize(question)
        handlers = (
            self._p_join_pair,
            self._p_group_count,
            self._p_count_month,
            self._p_count_have_value,
            self._p_count_measure_total,
            self._p_count_category_values,
            self._p_count_plain,
            self._p_aggregate,
            self._p_superlative_show,
            self._p_attr_of_named,
            self._p_superlative_what,
            self._p_distinct_values,
            self._p_list_top_n,
            self._p_list_names,
            self._p_list_entities,
            self._p_which_entities,
        )
        for handler in handlers:
            outcome = handler(text)
            if outcome is not None:
                return outcome
        return self._fallback(text)

    def _original_case(self, value: str) -> str:
        """Recover a quoted literal's original casing from the question.

        The pattern matching runs on lower-cased text; string values must be
        emitted exactly as the user wrote them.
        """
        original = getattr(self, "_original_question", "")
        index = original.lower().find(value.lower())
        if index >= 0:
            return original[index : index + len(value)]
        return value

    # -- entity & column resolution ----------------------------------------------

    def _resolve_entity(self, phrase: str) -> tuple[TableLink, list[str]]:
        """Resolve an entity phrase to a table; return leftover modifier words.

        The glossary is consulted token-by-token first (in-context
        vocabulary), then the linker. Modifier words (everything that did
        not participate in the table link) are returned for filter
        extraction.
        """
        words = [w for w in tokenize(phrase) if w not in ("the", "all", "our", "a")]
        # Glossary table mappings win outright.
        for word in words:
            target = self._config.glossary.get(word) or self._config.glossary.get(
                stem(word)
            )
            if target and "=" not in target and self._schema.has_table(target):
                table = self._schema.table(target)
                leftovers = [w for w in words if w != word]
                return TableLink(table=table, score=1.0, phrase=word), leftovers

        # Try suffixes of the phrase (entity head is usually at the end).
        best: Optional[TableLink] = None
        best_used: list[str] = []
        for start in range(len(words)):
            candidate = " ".join(words[start:])
            link = self._linker.link_table(candidate)
            if link is not None and (best is None or link.score > best.score):
                best = link
                best_used = words[start:]
        if best is not None:
            leftovers = [w for w in words if w not in best_used]
            return best, leftovers
        guess = self._linker.guess_table(" ".join(words) or phrase)
        return guess, []

    def _modifier_filters(
        self, table: Table, modifiers: list[str]
    ) -> list[ast.Expression]:
        """Turn modifier words into filters via glossary value mappings.

        Unknown modifiers are dropped — the zero-shot model has no way to
        know that "currently running" means ``status = 'active'``.
        """
        filters: list[ast.Expression] = []
        for word in modifiers:
            target = self._config.glossary.get(word) or self._config.glossary.get(
                stem(word)
            )
            if target and "=" in target:
                column_name, _, value = target.partition("=")
                if table.has_column(column_name):
                    filters.append(
                        _eq(table.column(column_name).name, value)
                    )
        return filters

    def _resolve_target_column(
        self, phrase: str, table: Table
    ) -> tuple[Optional[ColumnLink], Optional[str]]:
        """Link the asked-for attribute phrase to a column.

        Implements the paper's ambiguity failure: ``X of the Y`` first tries
        to read Y as an entity; when Y is not a table, the modifier is
        dropped and the bare head X is linked (note returned for logging).
        """
        phrase = phrase.strip()
        if " of the " in phrase:
            head, _, modifier = phrase.partition(" of the ")
            modifier_link = self._linker.link_table(modifier)
            if modifier_link is None:
                link = self._linker.link_column(table, head.strip())
                note = (
                    f"could not resolve entity {modifier!r}; "
                    f"linked bare head {head!r}"
                )
                return link, note
            # The modifier names another entity — keep the full phrase and
            # link it within the *current* table (our templates never need a
            # cross-table attribute here).
        return self._linker.link_column(table, phrase), None

    # -- handlers ------------------------------------------------------------------

    def _p_count_plain(self, text: str) -> Optional[ParseOutcome]:
        match = _COUNT_PLAIN_RE.match(text)
        if match is None:
            return None
        link, modifiers = self._resolve_entity(match.group(1))
        filters = self._modifier_filters(link.table, modifiers)
        query = _select_count(link.table, filters)
        return ParseOutcome(query=query, main_table=link.table)

    def _p_count_month(self, text: str) -> Optional[ParseOutcome]:
        match = _COUNT_MONTH_RE.match(text)
        if match is None:
            return None
        entity, verb, month_word, year_text = match.groups()
        link, modifiers = self._resolve_entity(entity)
        date_column = self._linker.date_column(link.table, hint=verb)
        if date_column is None:
            return None
        year = int(year_text) if year_text else self._config.default_year
        month = _MONTHS[month_word]
        filters = self._modifier_filters(link.table, modifiers)
        filters.extend(_month_filters(date_column.name, year, month))
        query = _select_count(link.table, filters)
        notes = []
        if not year_text:
            notes.append(f"assumed year {year} for {month_word}")
        return ParseOutcome(query=query, main_table=link.table, notes=notes)

    def _p_count_have_value(self, text: str) -> Optional[ParseOutcome]:
        match = _COUNT_HAVE_VALUE_RE.match(text)
        if match is None:
            return None
        entity, attr_phrase, value = match.groups()
        link, modifiers = self._resolve_entity(entity)
        target, _note = self._resolve_target_column(attr_phrase, link.table)
        if target is None:
            return None
        column = target.column
        filters = self._modifier_filters(link.table, modifiers)
        filters.append(_eq(column.name, self._original_case(value)))
        query = _select_count(link.table, filters)
        return ParseOutcome(query=query, main_table=link.table)

    def _p_count_measure_total(self, text: str) -> Optional[ParseOutcome]:
        match = _COUNT_MEASURE_TOTAL_RE.match(text)
        if match is None:
            return None
        measure_phrase, entity = match.groups()
        link, _modifiers = self._resolve_entity(entity)
        target, _note = self._resolve_target_column(measure_phrase, link.table)
        if target is None:
            return None
        column = target.column
        function = (
            "SUM" if self._config.knows(CONVENTION_SUM_HOW_MANY) else "COUNT"
        )
        query = ast.Select(
            items=(
                ast.SelectItem(
                    ast.FunctionCall(function, (ast.ColumnRef(column.name),))
                ),
            ),
            source=ast.TableRef(link.table.name),
        )
        return ParseOutcome(query=query, main_table=link.table)

    def _p_count_category_values(self, text: str) -> Optional[ParseOutcome]:
        match = _COUNT_CATEGORY_VALUES_RE.match(text)
        if match is None:
            return None
        value_phrase, entity = match.groups()
        link, _modifiers = self._resolve_entity(entity)
        target, _note = self._resolve_target_column(value_phrase, link.table)
        if target is None:
            return None
        column = target.column
        distinct = self._config.knows(CONVENTION_COUNT_DISTINCT)
        query = ast.Select(
            items=(
                ast.SelectItem(
                    ast.FunctionCall(
                        "COUNT", (ast.ColumnRef(column.name),), distinct=distinct
                    )
                ),
            ),
            source=ast.TableRef(link.table.name),
        )
        return ParseOutcome(query=query, main_table=link.table)

    def _p_aggregate(self, text: str) -> Optional[ParseOutcome]:
        match = _AGGREGATE_RE.match(text)
        if match is None:
            return None
        agg_word, rest = match.groups()
        # The attribute phrase may itself contain "of" ("number of
        # branches of all teams"), so try every "of/across" split point and
        # keep the one where both the entity and the column link best.
        best: Optional[tuple[float, Column, TableLink]] = None
        for divider in _AGGREGATE_DIVIDER_RE.finditer(rest):
            attr_phrase = rest[: divider.start()]
            entity = rest[divider.end():]
            if not attr_phrase or not entity:
                continue
            link, _modifiers = self._resolve_entity(entity)
            target, note = self._resolve_target_column(attr_phrase, link.table)
            if target is None:
                continue
            # The link scores the phrase itself, except the bare-head
            # fallback of an unresolved "X of the Y": score the whole phrase.
            if note is None:
                score = link.score + target.score
            else:
                score = link.score + self._linker.column_score(
                    target.column, attr_phrase
                )
            if best is None or score > best[0]:
                best = (score, target.column, link)
        if best is None:
            return None
        _score, column, link = best
        query = ast.Select(
            items=(
                ast.SelectItem(
                    ast.FunctionCall(
                        _AGG_WORDS[agg_word], (ast.ColumnRef(column.name),)
                    )
                ),
            ),
            source=ast.TableRef(link.table.name),
        )
        return ParseOutcome(query=query, main_table=link.table)

    def _p_superlative_what(self, text: str) -> Optional[ParseOutcome]:
        match = _SUPERLATIVE_WHAT_RE.match(text)
        if match is None:
            return None
        return self._superlative(*match.groups())

    def _p_superlative_show(self, text: str) -> Optional[ParseOutcome]:
        match = _SUPERLATIVE_SHOW_RE.match(text)
        if match is None:
            return None
        return self._superlative(*match.groups())

    def _superlative(
        self, target_phrase: str, entity: str, direction_word: str, attr_phrase: str
    ) -> Optional[ParseOutcome]:
        link, _modifiers = self._resolve_entity(entity)
        target, note = self._resolve_target_column(target_phrase, link.table)
        order, _n2 = self._resolve_target_column(attr_phrase, link.table)
        if target is None or order is None:
            return None
        direction = (
            ast.SortOrder.DESC if direction_word == "highest" else ast.SortOrder.ASC
        )
        query = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(target.column.name)),),
            source=ast.TableRef(link.table.name),
            order_by=(ast.OrderItem(ast.ColumnRef(order.column.name), direction),),
            limit=1,
        )
        notes = [note] if note else []
        return ParseOutcome(query=query, main_table=link.table, notes=notes)

    def _p_attr_of_named(self, text: str) -> Optional[ParseOutcome]:
        match = _ATTR_OF_NAMED_RE.match(text)
        if match is None:
            return None
        attr_phrase, entity, name_value = match.groups()
        link, _modifiers = self._resolve_entity(entity)
        target, note = self._resolve_target_column(attr_phrase, link.table)
        name_column = self._linker.name_column(link.table)
        if target is None or name_column is None:
            return None
        query = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(target.column.name)),),
            source=ast.TableRef(link.table.name),
            where=_eq(name_column.name, self._original_case(name_value)),
        )
        notes = [note] if note else []
        return ParseOutcome(query=query, main_table=link.table, notes=notes)

    def _p_distinct_values(self, text: str) -> Optional[ParseOutcome]:
        match = _DISTINCT_VALUES_RE.match(text)
        if match is None:
            return None
        different, attr_phrase, entity = match.groups()
        link, _modifiers = self._resolve_entity(entity)
        target, _note = self._resolve_target_column(attr_phrase, link.table)
        if target is None:
            return None
        column = target.column
        distinct = bool(different) or self._config.knows(
            CONVENTION_DISTINCT_VALUES
        )
        query = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(column.name)),),
            source=ast.TableRef(link.table.name),
            distinct=distinct,
        )
        return ParseOutcome(query=query, main_table=link.table)

    def _p_list_top_n(self, text: str) -> Optional[ParseOutcome]:
        match = _LIST_TOP_N_RE.match(text)
        if match is None:
            return None
        rank_word, n_text, entity, attr_phrase = match.groups()
        link, _modifiers = self._resolve_entity(entity)
        name_column = self._linker.name_column(link.table)
        order, _note = self._resolve_target_column(attr_phrase, link.table)
        if name_column is None or order is None:
            return None
        if rank_word == "top":
            direction = ast.SortOrder.DESC
        elif self._config.knows(CONVENTION_FIRST_IS_TOP):
            direction = ast.SortOrder.DESC
        else:
            direction = ast.SortOrder.ASC
        query = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(name_column.name)),),
            source=ast.TableRef(link.table.name),
            order_by=(ast.OrderItem(ast.ColumnRef(order.column.name), direction),),
            limit=int(n_text),
        )
        return ParseOutcome(query=query, main_table=link.table)

    def _p_list_names(self, text: str) -> Optional[ParseOutcome]:
        match = _LIST_NAMES_RE.match(text)
        if match is None:
            return None
        remainder = match.group(1)
        return self._entity_listing(remainder, names_only=True)

    def _p_list_entities(self, text: str) -> Optional[ParseOutcome]:
        match = _LIST_ENTITIES_RE.match(text)
        if match is None:
            return None
        return self._entity_listing(match.group(1), names_only=False)

    def _p_which_entities(self, text: str) -> Optional[ParseOutcome]:
        match = _WHICH_ENTITIES_RE.match(text)
        if match is None:
            return None
        entity, _rest = match.groups()
        link, modifiers = self._resolve_entity(entity)
        name_column = self._linker.name_column(link.table)
        if name_column is None:
            return None
        filters = self._modifier_filters(link.table, modifiers)
        query = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(name_column.name)),),
            source=ast.TableRef(link.table.name),
            where=_and(filters),
        )
        notes = ["could not interpret the relation; listing all candidates"]
        return ParseOutcome(query=query, main_table=link.table, notes=notes)

    def _entity_listing(
        self, remainder: str, names_only: bool
    ) -> Optional[ParseOutcome]:
        """Shared handling for 'list the names of X' / 'list the X'."""
        entity_phrase, filters_fn = _split_entity_filters(remainder)
        link, modifiers = self._resolve_entity(entity_phrase)
        filters = self._modifier_filters(link.table, modifiers)
        built = filters_fn(self, link.table)
        if built is None:
            return None
        extra_filters, order_by, limit = built
        filters.extend(extra_filters)

        name_column = self._linker.name_column(link.table)
        if name_column is None:
            return None
        items = [ast.SelectItem(ast.ColumnRef(name_column.name))]
        notes: list[str] = []
        if not names_only and not self._config.knows(CONVENTION_NAME_ONLY):
            description = self._linker.description_column(link.table)
            if description is not None:
                items.append(ast.SelectItem(ast.ColumnRef(description.name)))
                notes.append("included descriptions for readability")
        query = ast.Select(
            items=tuple(items),
            source=ast.TableRef(link.table.name),
            where=_and(filters),
            order_by=order_by,
            limit=limit,
        )
        return ParseOutcome(query=query, main_table=link.table, notes=notes)

    def _p_group_count(self, text: str) -> Optional[ParseOutcome]:
        match = _GROUP_COUNT_RE.match(text)
        if match is None:
            return None
        entity, key_phrase = match.groups()
        link, _modifiers = self._resolve_entity(entity)
        column_link = self._linker.link_column(link.table, key_phrase)
        if (
            column_link is not None
            and not column_link.column.primary_key
            and not column_link.column.key.endswith("_id")
            and not column_link.column.key.endswith("id")
        ):
            query = ast.Select(
                items=(
                    ast.SelectItem(ast.ColumnRef(column_link.column.name)),
                    ast.SelectItem(ast.FunctionCall("COUNT", (ast.Star(),))),
                ),
                source=ast.TableRef(link.table.name),
                group_by=(ast.ColumnRef(column_link.column.name),),
            )
            return ParseOutcome(query=query, main_table=link.table)
        # Maybe the key is a parent table reachable by FK.
        parent_link = self._linker.link_table(key_phrase)
        if parent_link is not None:
            outcome = self._group_by_parent(link.table, parent_link.table)
            if outcome is not None:
                return outcome
        return None

    def _group_by_parent(
        self, child: Table, parent: Table
    ) -> Optional[ParseOutcome]:
        fk = self._schema.join_path(child.name, parent.name)
        if fk is None:
            return None
        parent_name = self._linker.name_column(parent)
        if parent_name is None:
            return None
        join = _fk_join(child, parent, fk)
        query = ast.Select(
            items=(
                ast.SelectItem(ast.ColumnRef(parent_name.name, table="T2")),
                ast.SelectItem(ast.FunctionCall("COUNT", (ast.Star(),))),
            ),
            source=join,
            group_by=(ast.ColumnRef(parent_name.name, table="T2"),),
        )
        return ParseOutcome(query=query, main_table=child)

    def _p_join_pair(self, text: str) -> Optional[ParseOutcome]:
        match = _JOIN_PAIR_RE.match(text)
        if match is None:
            return None
        child_phrase, parent_phrase = match.groups()
        child_link = self._linker.link_table(child_phrase)
        parent_link = self._linker.link_table(parent_phrase)
        if child_link is None or parent_link is None:
            return None
        fk = self._schema.join_path(child_link.table.name, parent_link.table.name)
        if fk is None:
            return None
        child_name = self._linker.name_column(child_link.table)
        parent_name = self._linker.name_column(parent_link.table)
        if child_name is None or parent_name is None:
            return None
        join = _fk_join(child_link.table, parent_link.table, fk)
        query = ast.Select(
            items=(
                ast.SelectItem(ast.ColumnRef(child_name.name, table="T1")),
                ast.SelectItem(ast.ColumnRef(parent_name.name, table="T2")),
            ),
            source=join,
        )
        return ParseOutcome(query=query, main_table=child_link.table)

    def _fallback(self, text: str) -> ParseOutcome:
        """Last resort: the model outputs its best guess rather than nothing."""
        link = self._linker.guess_table(text)
        if text.startswith("how many"):
            query = _select_count(link.table, [])
        else:
            name_column = self._linker.name_column(link.table)
            target = (
                ast.ColumnRef(name_column.name)
                if name_column is not None
                else ast.Star()
            )
            query = ast.Select(
                items=(ast.SelectItem(target),),
                source=ast.TableRef(link.table.name),
            )
        return ParseOutcome(
            query=query,
            main_table=link.table,
            notes=["no pattern matched; produced a best-effort guess"],
        )


# ---------------------------------------------------------------------------
# Filter extraction inside entity phrases
# ---------------------------------------------------------------------------


def _split_entity_filters(remainder: str):
    """Split "products whose price is greater than 70" style phrases.

    Returns (entity_phrase, builder) where builder(parser, table) returns
    (filters, order_by, limit) or None when the referenced column cannot be
    linked.
    """
    remainder = remainder.strip().rstrip(".")

    match = _ABOVE_AVERAGE_RE.match(remainder)
    if match is not None:
        entity, attr_phrase, word = match.groups()

        def build_avg(parser: SemanticParser, table: Table):
            target, _note = parser._resolve_target_column(attr_phrase, table)
            if target is None:
                return None
            column = target.column
            op = _COMPARISONS[word]
            sub = ast.Select(
                items=(
                    ast.SelectItem(
                        ast.FunctionCall("AVG", (ast.ColumnRef(column.name),))
                    ),
                ),
                source=ast.TableRef(table.name),
            )
            condition = ast.BinaryOp(
                op, ast.ColumnRef(column.name), ast.ScalarSubquery(sub)
            )
            return [condition], (), None

        return entity, build_avg

    match = _COMPARISON_FILTER_RE.match(remainder)
    if match is not None:
        entity, attr_phrase, cmp_word, number = match.groups()

        def build_cmp(parser: SemanticParser, table: Table):
            target, _note = parser._resolve_target_column(attr_phrase, table)
            if target is None:
                return None
            column = target.column
            value = float(number) if "." in number else int(number)
            condition = ast.BinaryOp(
                _COMPARISONS[cmp_word],
                ast.ColumnRef(column.name),
                ast.Literal(value),
            )
            return [condition], (), None

        return entity, build_cmp

    match = _BETWEEN_FILTER_RE.match(remainder)
    if match is not None:
        entity, attr_phrase, low, high = match.groups()

        def build_between(parser: SemanticParser, table: Table):
            target, _note = parser._resolve_target_column(attr_phrase, table)
            if target is None:
                return None
            column = target.column
            low_v = float(low) if "." in low else int(low)
            high_v = float(high) if "." in high else int(high)
            condition = ast.Between(
                operand=ast.ColumnRef(column.name),
                low=ast.Literal(low_v),
                high=ast.Literal(high_v),
            )
            return [condition], (), None

        return entity, build_between

    match = _MONTH_FILTER_RE.match(remainder)
    if match is not None:
        entity, verb, month_word, year_text = match.groups()

        def build_month(parser: SemanticParser, table: Table):
            date_column = parser.linker.date_column(table, hint=verb)
            if date_column is None:
                return None
            year = (
                int(year_text) if year_text else parser._config.default_year
            )
            return (
                _month_filters(date_column.name, year, _MONTHS[month_word]),
                (),
                None,
            )

        return entity, build_month

    def build_nothing(parser: SemanticParser, table: Table):
        return [], (), None

    return remainder, build_nothing


# ---------------------------------------------------------------------------
# AST construction helpers
# ---------------------------------------------------------------------------


def _normalize(question: str) -> str:
    text = question.strip().lower()
    text = _SPACE_RE.sub(" ", text)
    return text.rstrip("?.! ")


def _eq(column: str, value: object) -> ast.Expression:
    return ast.BinaryOp(
        ast.BinaryOperator.EQ, ast.ColumnRef(column), ast.Literal(value)
    )


def _and(filters: list[ast.Expression]) -> Optional[ast.Expression]:
    if not filters:
        return None
    result = filters[0]
    for part in filters[1:]:
        result = ast.BinaryOp(ast.BinaryOperator.AND, result, part)
    return result


def _select_count(table: Table, filters: list[ast.Expression]) -> ast.Select:
    return ast.Select(
        items=(ast.SelectItem(ast.FunctionCall("COUNT", (ast.Star(),))),),
        source=ast.TableRef(table.name),
        where=_and(filters),
    )


def _month_filters(column: str, year: int, month: int) -> list[ast.Expression]:
    start = f"{year:04d}-{month:02d}-01"
    if month == 12:
        end = f"{year + 1:04d}-01-01"
    else:
        end = f"{year:04d}-{month + 1:02d}-01"
    return [
        ast.BinaryOp(
            ast.BinaryOperator.GE, ast.ColumnRef(column), ast.Literal(start)
        ),
        ast.BinaryOp(
            ast.BinaryOperator.LT, ast.ColumnRef(column), ast.Literal(end)
        ),
    ]


def _fk_join(child: Table, parent: Table, fk) -> ast.Join:
    """Build ``child AS T1 JOIN parent AS T2 ON T1.fk = T2.pk``."""
    if fk.ref_table.lower() == parent.key:
        child_col, parent_col = fk.column, fk.ref_column
    else:
        child_col, parent_col = fk.ref_column, fk.column
    return ast.Join(
        kind=ast.JoinKind.INNER,
        left=ast.TableRef(child.name, alias="T1"),
        right=ast.TableRef(parent.name, alias="T2"),
        condition=ast.BinaryOp(
            ast.BinaryOperator.EQ,
            ast.ColumnRef(child_col, table="T1"),
            ast.ColumnRef(parent_col, table="T2"),
        ),
    )
