"""Dataset containers: examples, benchmarks, and JSON serialization, plus
the helpers both suite generators share."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from repro.errors import DatasetError
from repro.sql.comparison import query_is_ordered, results_match
from repro.sql.engine import Database
from repro.sql.parser import parse_query


@dataclass
class Example:
    """One NL2SQL example.

    Attributes:
        example_id: Stable unique id within its benchmark.
        db_id: Database the question targets.
        question: The user's natural-language question.
        gold_sql: Reference SQL whose execution defines correctness.
        hardness: SPIDER-style bucket: easy / medium / hard / extra.
        trap_kind: Name of the planted difficulty (None for clean examples).
        trap_meta: Trap parameters (e.g. decoy column, intended year).
    """

    example_id: str
    db_id: str
    question: str
    gold_sql: str
    hardness: str = "easy"
    trap_kind: Optional[str] = None
    trap_meta: dict = field(default_factory=dict)

    @property
    def is_trapped(self) -> bool:
        return self.trap_kind is not None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Example":
        return cls(**data)


@dataclass
class Benchmark:
    """A set of databases plus the examples asked against them."""

    name: str
    databases: dict[str, Database]
    examples: list[Example]

    def database(self, db_id: str) -> Database:
        if db_id not in self.databases:
            raise DatasetError(
                f"benchmark {self.name!r} has no database {db_id!r}"
            )
        return self.databases[db_id]

    def trapped_examples(self) -> list[Example]:
        return [ex for ex in self.examples if ex.is_trapped]

    def __len__(self) -> int:
        return len(self.examples)



@dataclass
class Demonstration:
    """A (question, SQL) pair used for in-context demonstrations.

    ``glossary`` carries the closed-domain phrase→schema mappings that the
    demonstration implicitly teaches. The simulated LLM 'reads' these when
    the demonstration is present in its prompt — an executable stand-in for
    in-context learning.
    """

    question: str
    sql: str
    db_id: str
    glossary: dict[str, str] = field(default_factory=dict)
    #: The phrasing conventions the demonstration teaches, derived from its
    #: question and SQL the first time a prompt to the simulated model
    #: holds it (:func:`repro.llm.simulated.derive_conventions`) and kept:
    #: no demonstration is edited after it is built.
    conventions: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False
    )

    def render(self) -> str:
        return f"Question: {self.question}\nQuery: {self.sql}"


def demonstrations_from_examples(
    examples: Iterable[Example], glossaries: Optional[dict[str, dict]] = None
) -> list[Demonstration]:
    """Turn clean examples into RAG demonstrations."""
    demos = []
    for example in examples:
        glossary = {}
        if glossaries and example.db_id in glossaries:
            glossary = glossaries[example.db_id]
        demos.append(
            Demonstration(
                question=example.question,
                sql=example.gold_sql,
                db_id=example.db_id,
                glossary=glossary,
            )
        )
    return demos


def results_differ(database: Database, gold_sql: str, foil_sql: str) -> bool:
    """True when the foil query's result differs from gold's."""
    gold_ast = parse_query(gold_sql)
    foil_ast = parse_query(foil_sql)
    gold_result = database.execute_ast(gold_ast)
    foil_result = database.execute_ast(foil_ast)
    ordered = query_is_ordered(gold_ast)
    return not results_match(gold_result, foil_result, ordered=ordered)


def month_range(year: int, month: int) -> tuple[str, str]:
    """[start, end) ISO dates covering one month."""
    start = f"{year:04d}-{month:02d}-01"
    if month == 12:
        end = f"{year + 1:04d}-01-01"
    else:
        end = f"{year:04d}-{month + 1:02d}-01"
    return start, end
