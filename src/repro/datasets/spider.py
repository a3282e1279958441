"""SPIDER-like benchmark generator.

Generates a seeded suite shaped like the SPIDER dev environment the paper
uses: ~200 databases with 5–20 tables and 5–10 columns per table, a dev
split of 1034 questions with gold SQL, plus a train split used as the RAG
demonstration pool. A configurable fraction of dev questions carry *traps*
(see :mod:`repro.datasets.traps`) that reproduce the error classes GPT-class
models make on SPIDER.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.datasets.base import (
    Benchmark,
    Demonstration,
    Example,
    demonstrations_from_examples,
    month_range,
    results_differ,
)
from repro.datasets.names import (
    CURRENT_YEAR,
    ENTITY_CATEGORIES,
    MODEL_DEFAULT_YEAR,
    MONTH_NAMES,
    OBJECT_ENTITIES,
    STATUS_POOLS,
    AttrSpec,
    attribute_pool,
)
from repro.datasets.populate import make_entity_name, make_value
from repro.errors import DatasetError
from repro.sql.engine import Database
from repro.sql.schema import Column, DatabaseSchema, ForeignKey, Table
from repro.sql.types import DataType


@dataclass
class GeneratedTable:
    """Bookkeeping for one generated table (schema + NL metadata)."""

    singular: str
    plural: str
    category: str
    table: Table
    attrs: list[AttrSpec] = field(default_factory=list)
    status_values: tuple[str, ...] = ()
    status_vague_phrase: str = ""
    compound_noun: str = ""  # e.g. "song" when a song_name column was added
    parent: Optional["GeneratedTable"] = None
    fk_column: str = ""

    @property
    def id_column(self) -> str:
        return f"{self.singular}_id"

    def attr(self, kind: str) -> list[AttrSpec]:
        return [spec for spec in self.attrs if spec.kind == kind]

    def has_attr(self, column: str) -> bool:
        return any(spec.column == column for spec in self.attrs)


@dataclass
class GeneratedDatabase:
    """A generated database plus its per-table metadata."""

    db_id: str
    database: Database
    tables: list[GeneratedTable]


@dataclass
class SpiderSuite:
    """The full generated environment: databases + dev/train splits."""

    benchmark: Benchmark
    train_examples: list[Example]
    generated: dict[str, GeneratedDatabase]
    #: The RAG demonstrations of the train split, built with the suite,
    #: so every context that shares the suite shares them and the
    #: conventions each one keeps (:attr:`Demonstration.conventions`).
    demos: list[Demonstration] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.demos = demonstrations_from_examples(self.train_examples)

    @property
    def dev_examples(self) -> list[Example]:
        return self.benchmark.examples


#: Default trap mix (weights within the trapped portion of the dev split).
#: The first three are *not* fixable by RAG demonstrations (they hinge on
#: instance-specific context); the rest are phrasing conventions that
#: demonstrations can teach. This split is what separates zero-shot accuracy
#: (Figure 2) from the RAG Assistant's accuracy (the 243-error set).
DEFAULT_TRAP_WEIGHTS: dict[str, float] = {
    "ambiguous_column": 0.20,
    "default_year": 0.20,
    "missing_filter": 0.14,
    "multi": 0.24,
    "extra_description": 0.05,
    "count_distinct": 0.04,
    "missing_distinct": 0.04,
    "order_direction": 0.04,
    "wrong_aggregate": 0.04,
}


#: Trap mix for the *train* split (the RAG demonstration pool): only the
#: phrasing-convention traps appear there — their gold SQL is correct and
#: demonstrates the house conventions. The context-dependent traps
#: (ambiguous columns, implicit years, org-specific filters) cannot appear
#: in curated training data, which is exactly why RAG cannot fix them.
TRAIN_TRAP_WEIGHTS: dict[str, float] = {
    "extra_description": 0.28,
    "count_distinct": 0.18,
    "missing_distinct": 0.18,
    "order_direction": 0.18,
    "wrong_aggregate": 0.18,
}


class SpiderGenerator:
    """Seeded generator for the SPIDER-like suite.

    Args:
        seed: RNG seed; the full suite is a pure function of it.
        n_databases: Number of databases (paper: "about 200").
        n_dev: Dev-split size (paper: 1034).
        n_train: Train-split size (RAG demonstration pool).
        trap_rate: Fraction of dev questions that carry a trap.
        trap_weights: Relative frequency of each trap kind.
    """

    def __init__(
        self,
        seed: int = 20250325,
        n_databases: int = 200,
        n_dev: int = 1034,
        n_train: int = 600,
        trap_rate: float = 0.345,
        trap_weights: Optional[dict[str, float]] = None,
    ) -> None:
        self._seed = seed
        self._n_databases = n_databases
        self._n_dev = n_dev
        self._n_train = n_train
        self._trap_rate = trap_rate
        self._trap_weights = dict(trap_weights or DEFAULT_TRAP_WEIGHTS)

    # -- public API -------------------------------------------------------------

    def generate(self) -> SpiderSuite:
        """Generate the databases and both question splits."""
        rng = random.Random(self._seed)
        generated: dict[str, GeneratedDatabase] = {}
        for index in range(self._n_databases):
            gdb = self._generate_database(rng, index)
            generated[gdb.db_id] = gdb

        db_ids = sorted(generated)
        dev = self._generate_split(
            rng, generated, db_ids, self._n_dev, "dev", trapped=True
        )
        train = self._generate_split(
            rng,
            generated,
            db_ids,
            self._n_train,
            "train",
            trapped=True,
            trap_weights=TRAIN_TRAP_WEIGHTS,
            trap_rate=0.45,
        )
        benchmark = Benchmark(
            name="spider_like",
            databases={db_id: gdb.database for db_id, gdb in generated.items()},
            examples=dev,
        )
        return SpiderSuite(
            benchmark=benchmark, train_examples=train, generated=generated
        )

    # -- schema generation ----------------------------------------------------------

    def _generate_database(
        self, rng: random.Random, index: int
    ) -> GeneratedDatabase:
        n_tables = rng.randint(5, 20)
        entity_pool = [
            (singular, plural, category)
            for category, entities in ENTITY_CATEGORIES.items()
            for singular, plural in entities
        ]
        chosen = rng.sample(entity_pool, n_tables)
        db_id = f"{chosen[0][0]}_db_{index:03d}"

        metas: list[GeneratedTable] = []
        used_nouns = {singular for singular, _plural, _cat in chosen}
        for position, (singular, plural, category) in enumerate(chosen):
            meta = self._generate_table(rng, singular, plural, category, used_nouns)
            # Foreign key to a previously generated table.
            if metas and rng.random() < 0.55:
                parent = rng.choice(metas)
                fk_column = f"{parent.singular}_id"
                if not any(c.key == fk_column for c in meta.table.columns):
                    meta.table.columns.append(
                        Column(
                            name=fk_column,
                            dtype=DataType.INTEGER,
                            nl_name=f"{parent.singular} id",
                        )
                    )
                    meta.table.foreign_keys.append(
                        ForeignKey(
                            column=fk_column,
                            ref_table=parent.table.name,
                            ref_column=parent.id_column,
                        )
                    )
                    meta.parent = parent
                    meta.fk_column = fk_column
                    # Rebuild the internal column index.
                    meta.table.__post_init__()
            metas.append(meta)

        schema = DatabaseSchema(db_id, [meta.table for meta in metas])
        database = Database(schema)
        self._populate(rng, database, metas)
        return GeneratedDatabase(db_id=db_id, database=database, tables=metas)

    def _generate_table(
        self,
        rng: random.Random,
        singular: str,
        plural: str,
        category: str,
        used_nouns: set[str],
    ) -> GeneratedTable:
        pool = attribute_pool(category)
        n_attrs = rng.randint(3, 6)
        attrs = rng.sample(pool, min(n_attrs, len(pool)))

        status_values: tuple[str, ...] = ()
        vague_phrase = ""
        if any(spec.kind == "status" for spec in attrs):
            status_values, vague_phrase = rng.choice(STATUS_POOLS)

        columns = [
            Column(
                name=f"{singular}_id",
                dtype=DataType.INTEGER,
                nl_name=f"{singular} id",
                primary_key=True,
            ),
            Column(name="name", dtype=DataType.TEXT, nl_name="name"),
        ]
        for spec in attrs:
            columns.append(
                Column(name=spec.column, dtype=spec.dtype, nl_name=spec.nl)
            )

        # Optionally add a compound "{noun}_name" decoy target for the
        # ambiguous-column trap; the noun must not be a table in this DB.
        compound_noun = ""
        if category == "person" and rng.random() < 0.65:
            candidates = [
                noun for noun, _plural in OBJECT_ENTITIES if noun not in used_nouns
            ]
            if candidates:
                compound_noun = rng.choice(candidates)
                columns.append(
                    Column(
                        name=f"{compound_noun}_name",
                        dtype=DataType.TEXT,
                        nl_name=f"{compound_noun} name",
                    )
                )

        table = Table(name=singular, columns=columns, nl_name=singular)
        return GeneratedTable(
            singular=singular,
            plural=plural,
            category=category,
            table=table,
            attrs=attrs,
            status_values=status_values,
            status_vague_phrase=vague_phrase,
            compound_noun=compound_noun,
        )

    def _populate(
        self,
        rng: random.Random,
        database: Database,
        metas: list[GeneratedTable],
    ) -> None:
        """Draw each table's rows and write them in one call. A row's
        values are drawn in column order: id, name, attributes, compound
        name, foreign key."""
        row_counts: dict[str, int] = {}
        for meta in metas:
            n_rows = rng.randint(18, 55)
            row_counts[meta.table.key] = n_rows
            parent_rows = (
                row_counts[meta.parent.table.key] if meta.parent is not None else 0
            )
            rows = []
            for row_id in range(1, n_rows + 1):
                row = [row_id, make_entity_name(rng, meta.category)]
                for spec in meta.attrs:
                    row.append(make_value(rng, spec, meta.status_values))
                if meta.compound_noun:
                    row.append(make_entity_name(rng, "object"))
                if meta.parent is not None:
                    row.append(rng.randint(1, parent_rows))
                rows.append(row)
            database.data(meta.table.name).insert(*rows)

    # -- question generation -----------------------------------------------------------

    def _generate_split(
        self,
        rng: random.Random,
        generated: dict[str, GeneratedDatabase],
        db_ids: list[str],
        count: int,
        split: str,
        trapped: bool,
        trap_weights: Optional[dict[str, float]] = None,
        trap_rate: Optional[float] = None,
    ) -> list[Example]:
        examples: list[Example] = []
        attempts = 0
        rate = trap_rate if trap_rate is not None else self._trap_rate
        weights = trap_weights or self._trap_weights
        while len(examples) < count and attempts < count * 60:
            attempts += 1
            db_id = db_ids[(len(examples) + attempts) % len(db_ids)]
            gdb = generated[db_id]
            use_trap = trapped and rng.random() < rate
            try:
                if use_trap:
                    example = self._make_trapped(
                        rng, gdb, split, len(examples), weights
                    )
                else:
                    example = self._make_clean(rng, gdb, split, len(examples))
            except DatasetError:
                continue
            if example is not None:
                examples.append(example)
        if len(examples) < count:
            raise DatasetError(
                f"could only generate {len(examples)} of {count} examples"
            )
        return examples

    # .. clean templates ..........................................................

    def _make_clean(
        self,
        rng: random.Random,
        gdb: GeneratedDatabase,
        split: str,
        index: int,
    ) -> Optional[Example]:
        builders: list[Callable] = [
            self._q_count_all,
            self._q_list_names,
            self._q_list_names_filtered,
            self._q_attr_of_named,
            self._q_aggregate,
            self._q_count_filtered,
            self._q_group_count,
            self._q_top_n,
            self._q_superlative,
            self._q_distinct_explicit,
            self._q_above_average,
            self._q_join_names,
            self._q_count_per_parent,
            self._q_month_explicit,
            self._q_between,
        ]
        builder = rng.choice(builders)
        built = builder(rng, gdb)
        if built is None:
            raise DatasetError("template not applicable")
        question, gold_sql, hardness = built
        return Example(
            example_id=f"spider-{split}-{index:05d}",
            db_id=gdb.db_id,
            question=question,
            gold_sql=gold_sql,
            hardness=hardness,
        )

    def _pick_meta(
        self, rng: random.Random, gdb: GeneratedDatabase, needs: str = ""
    ) -> GeneratedTable:
        candidates = gdb.tables
        if needs:
            candidates = [m for m in gdb.tables if m.attr(needs)]
        if not candidates:
            raise DatasetError(f"no table with a {needs!r} attribute")
        return rng.choice(candidates)

    def _sample_value(
        self, gdb: GeneratedDatabase, meta: GeneratedTable, column: str, rng: random.Random
    ):
        data = gdb.database.data(meta.table.name)
        index = data.column_index(column)
        values = [row[index] for row in data.rows if row[index] is not None]
        if not values:
            raise DatasetError(f"no values for {meta.table.name}.{column}")
        return rng.choice(values)

    @staticmethod
    def _comparison(rng: random.Random) -> tuple[str, str]:
        """(phrase, operator) for numeric comparisons."""
        return rng.choice(
            [
                ("greater than", ">"),
                ("less than", "<"),
                ("at least", ">="),
                ("at most", "<="),
            ]
        )

    def _q_count_all(self, rng, gdb):
        meta = self._pick_meta(rng, gdb)
        question = f"How many {meta.plural} are there?"
        gold = f"SELECT COUNT(*) FROM {meta.table.name}"
        return question, gold, "easy"

    def _q_list_names(self, rng, gdb):
        meta = self._pick_meta(rng, gdb)
        question = f"List the names of all {meta.plural}."
        gold = f"SELECT name FROM {meta.table.name}"
        return question, gold, "easy"

    def _q_list_names_filtered(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="numeric")
        spec = rng.choice(meta.attr("numeric") + meta.attr("measure"))
        threshold = int((spec.low + spec.high) / 2)
        phrase, op = self._comparison(rng)
        question = (
            f"List the names of {meta.plural} whose {spec.nl} is "
            f"{phrase} {threshold}."
        )
        gold = (
            f"SELECT name FROM {meta.table.name} "
            f"WHERE {spec.column} {op} {threshold}"
        )
        return question, gold, "medium"

    def _q_attr_of_named(self, rng, gdb):
        meta = self._pick_meta(rng, gdb)
        specs = meta.attrs
        if not specs:
            return None
        spec = rng.choice(specs)
        name = self._sample_value(gdb, meta, "name", rng)
        escaped = str(name).replace("'", "''")
        question = (
            f"What is the {spec.nl} of the {meta.singular} named '{name}'?"
        )
        gold = (
            f"SELECT {spec.column} FROM {meta.table.name} "
            f"WHERE name = '{escaped}'"
        )
        return question, gold, "easy"

    def _q_aggregate(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="numeric")
        spec = rng.choice(meta.attr("numeric") + meta.attr("measure"))
        agg_phrase, agg_fn = rng.choice(
            [
                ("average", "AVG"),
                ("maximum", "MAX"),
                ("minimum", "MIN"),
            ]
        )
        question = f"What is the {agg_phrase} {spec.nl} of all {meta.plural}?"
        gold = f"SELECT {agg_fn}({spec.column}) FROM {meta.table.name}"
        return question, gold, "medium"

    def _q_count_filtered(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="category")
        spec = rng.choice(meta.attr("category"))
        value = self._sample_value(gdb, meta, spec.column, rng)
        escaped = str(value).replace("'", "''")
        question = f"How many {meta.plural} have {spec.nl} '{value}'?"
        gold = (
            f"SELECT COUNT(*) FROM {meta.table.name} "
            f"WHERE {spec.column} = '{escaped}'"
        )
        return question, gold, "medium"

    def _q_group_count(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="category")
        spec = rng.choice(meta.attr("category"))
        question = f"How many {meta.plural} are there for each {spec.nl}?"
        gold = (
            f"SELECT {spec.column}, COUNT(*) FROM {meta.table.name} "
            f"GROUP BY {spec.column}"
        )
        return question, gold, "medium"

    def _q_top_n(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="numeric")
        spec = rng.choice(meta.attr("numeric") + meta.attr("measure"))
        n = rng.randint(3, 8)
        question = (
            f"List the names of the top {n} {meta.plural} by {spec.nl}."
        )
        gold = (
            f"SELECT name FROM {meta.table.name} "
            f"ORDER BY {spec.column} DESC LIMIT {n}"
        )
        return question, gold, "medium"

    def _q_superlative(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="numeric")
        spec = rng.choice(meta.attr("numeric") + meta.attr("measure"))
        phrase, direction = rng.choice(
            [("highest", "DESC"), ("lowest", "ASC")]
        )
        question = (
            f"What is the name of the {meta.singular} with the "
            f"{phrase} {spec.nl}?"
        )
        gold = (
            f"SELECT name FROM {meta.table.name} "
            f"ORDER BY {spec.column} {direction} LIMIT 1"
        )
        return question, gold, "medium"

    def _q_distinct_explicit(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="category")
        spec = rng.choice(meta.attr("category"))
        question = (
            f"What are the different {spec.nl} values of the {meta.plural}?"
        )
        gold = f"SELECT DISTINCT {spec.column} FROM {meta.table.name}"
        return question, gold, "easy"

    def _q_above_average(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="numeric")
        spec = rng.choice(meta.attr("numeric") + meta.attr("measure"))
        question = (
            f"List the names of {meta.plural} whose {spec.nl} is above "
            f"the average."
        )
        gold = (
            f"SELECT name FROM {meta.table.name} WHERE {spec.column} > "
            f"(SELECT AVG({spec.column}) FROM {meta.table.name})"
        )
        return question, gold, "extra"

    def _child_with_parent(
        self, rng: random.Random, gdb: GeneratedDatabase
    ) -> GeneratedTable:
        candidates = [m for m in gdb.tables if m.parent is not None]
        if not candidates:
            raise DatasetError("no parent-linked tables")
        return rng.choice(candidates)

    def _q_join_names(self, rng, gdb):
        child = self._child_with_parent(rng, gdb)
        parent = child.parent
        question = (
            f"Show the name of each {child.singular} together with the "
            f"name of its {parent.singular}."
        )
        gold = (
            f"SELECT T1.name, T2.name FROM {child.table.name} AS T1 "
            f"JOIN {parent.table.name} AS T2 "
            f"ON T1.{child.fk_column} = T2.{parent.id_column}"
        )
        return question, gold, "hard"

    def _q_count_per_parent(self, rng, gdb):
        child = self._child_with_parent(rng, gdb)
        parent = child.parent
        question = (
            f"How many {child.plural} are there for each {parent.singular}?"
        )
        gold = (
            f"SELECT T2.name, COUNT(*) FROM {child.table.name} AS T1 "
            f"JOIN {parent.table.name} AS T2 "
            f"ON T1.{child.fk_column} = T2.{parent.id_column} "
            f"GROUP BY T2.name"
        )
        return question, gold, "hard"

    def _q_month_explicit(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="date")
        spec = rng.choice(meta.attr("date"))
        month = rng.randint(1, 12)
        year = rng.choice((2023, CURRENT_YEAR))
        start, end = month_range(year, month)
        question = (
            f"How many {meta.plural} were created in "
            f"{MONTH_NAMES[month - 1]} {year}?"
        )
        gold = (
            f"SELECT COUNT(*) FROM {meta.table.name} "
            f"WHERE {spec.column} >= '{start}' AND {spec.column} < '{end}'"
        )
        return question, gold, "medium"

    def _q_between(self, rng, gdb):
        meta = self._pick_meta(rng, gdb, needs="numeric")
        spec = rng.choice(meta.attr("numeric") + meta.attr("measure"))
        span = spec.high - spec.low
        low = spec.low + int(span * 0.2)
        high = spec.low + int(span * 0.7)
        question = (
            f"List the names of {meta.plural} with {spec.nl} between "
            f"{low} and {high}."
        )
        gold = (
            f"SELECT name FROM {meta.table.name} "
            f"WHERE {spec.column} BETWEEN {low} AND {high}"
        )
        return question, gold, "medium"

    # .. trapped templates ..........................................................

    def _make_trapped(
        self,
        rng: random.Random,
        gdb: GeneratedDatabase,
        split: str,
        index: int,
        trap_weights: Optional[dict[str, float]] = None,
    ) -> Optional[Example]:
        weights_map = trap_weights or self._trap_weights
        kinds = list(weights_map)
        weights = [weights_map[k] for k in kinds]
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        builder = getattr(self, f"_t_{kind}")
        built = builder(rng, gdb)
        if built is None:
            raise DatasetError("trap not applicable")
        question, gold_sql, hardness, meta_dict = built
        # A trap is only "live" when the naive misreading (the foil) would
        # actually produce a different execution result; otherwise the
        # planted error would be invisible to execution accuracy.
        foil_sql = meta_dict.get("foil_sql")
        if foil_sql and not results_differ(gdb.database, gold_sql, foil_sql):
            raise DatasetError("trap foil does not change the result")
        return Example(
            example_id=f"spider-{split}-{index:05d}",
            db_id=gdb.db_id,
            question=question,
            gold_sql=gold_sql,
            hardness=hardness,
            trap_kind=kind,
            trap_meta=meta_dict,
        )

    def _t_ambiguous_column(self, rng, gdb):
        candidates = [m for m in gdb.tables if m.compound_noun]
        if not candidates:
            return None
        meta = rng.choice(candidates)
        noun = meta.compound_noun
        compound_column = f"{noun}_name"
        numeric = meta.attr("numeric") + meta.attr("measure")
        if numeric and rng.random() < 0.6:
            spec = rng.choice(numeric)
            phrase, direction = rng.choice(
                [("highest", "DESC"), ("lowest", "ASC")]
            )
            question = (
                f"Show the name of the {noun} by the {meta.singular} "
                f"with the {phrase} {spec.nl}."
            )
            gold = (
                f"SELECT {compound_column} FROM {meta.table.name} "
                f"ORDER BY {spec.column} {direction} LIMIT 1"
            )
            hardness = "medium"
            foil = gold.replace(f"SELECT {compound_column}", "SELECT name", 1)
        else:
            name = self._sample_value(gdb, meta, "name", rng)
            escaped = str(name).replace("'", "''")
            question = (
                f"What is the name of the {noun} of the {meta.singular} "
                f"named '{name}'?"
            )
            gold = (
                f"SELECT {compound_column} FROM {meta.table.name} "
                f"WHERE name = '{escaped}'"
            )
            hardness = "easy"
            foil = gold.replace(f"SELECT {compound_column}", "SELECT name", 1)
        return (
            question,
            gold,
            hardness,
            {
                "decoy_column": "name",
                "gold_column": compound_column,
                "noun": noun,
                "foil_sql": foil,
            },
        )

    def _t_default_year(self, rng, gdb):
        try:
            meta = self._pick_meta(rng, gdb, needs="date")
        except DatasetError:
            return None
        spec = rng.choice(meta.attr("date"))
        month = rng.randint(1, 12)
        start, end = month_range(CURRENT_YEAR, month)
        question = (
            f"How many {meta.plural} were created in {MONTH_NAMES[month - 1]}?"
        )
        gold = (
            f"SELECT COUNT(*) FROM {meta.table.name} "
            f"WHERE {spec.column} >= '{start}' AND {spec.column} < '{end}'"
        )
        foil_start, foil_end = month_range(MODEL_DEFAULT_YEAR, month)
        foil = (
            f"SELECT COUNT(*) FROM {meta.table.name} "
            f"WHERE {spec.column} >= '{foil_start}' AND "
            f"{spec.column} < '{foil_end}'"
        )
        return (
            question,
            gold,
            "medium",
            {
                "intended_year": CURRENT_YEAR,
                "assumed_year": MODEL_DEFAULT_YEAR,
                "month": month,
                "date_column": spec.column,
                "foil_sql": foil,
            },
        )

    def _t_missing_filter(self, rng, gdb):
        candidates = [
            m for m in gdb.tables if m.status_values and m.has_attr("status")
        ]
        if not candidates:
            return None
        meta = rng.choice(candidates)
        value = meta.status_values[0]
        vague = meta.status_vague_phrase
        question = f"List the names of the {vague} {meta.plural}."
        gold = (
            f"SELECT name FROM {meta.table.name} WHERE status = '{value}'"
        )
        foil = f"SELECT name FROM {meta.table.name}"
        return (
            question,
            gold,
            "medium",
            {
                "status_column": "status",
                "status_value": value,
                "phrase": vague,
                "foil_sql": foil,
            },
        )

    def _t_extra_description(self, rng, gdb):
        candidates = [m for m in gdb.tables if m.has_attr("description")]
        if not candidates:
            return None
        meta = rng.choice(candidates)
        numeric = meta.attr("numeric") + meta.attr("measure")
        if not numeric:
            return None
        spec = rng.choice(numeric)
        threshold = int((spec.low + spec.high) / 2)
        phrase, op = self._comparison(rng)
        question = (
            f"List the {meta.plural} whose {spec.nl} is {phrase} {threshold}."
        )
        gold = (
            f"SELECT name FROM {meta.table.name} "
            f"WHERE {spec.column} {op} {threshold}"
        )
        foil = gold.replace("SELECT name", "SELECT name, description", 1)
        return (
            question,
            gold,
            "medium",
            {"extra_column": "description", "foil_sql": foil},
        )

    def _t_count_distinct(self, rng, gdb):
        try:
            meta = self._pick_meta(rng, gdb, needs="category")
        except DatasetError:
            return None
        spec = rng.choice(meta.attr("category"))
        plural_nl = spec.nl if spec.nl.endswith("s") else spec.nl + "s"
        question = (
            f"How many {plural_nl} do the {meta.plural} come from?"
            if spec.pool == "countries"
            else f"How many {plural_nl} are represented among the {meta.plural}?"
        )
        gold = (
            f"SELECT COUNT(DISTINCT {spec.column}) FROM {meta.table.name}"
        )
        foil = f"SELECT COUNT({spec.column}) FROM {meta.table.name}"
        return (
            question,
            gold,
            "medium",
            {"column": spec.column, "foil_sql": foil},
        )

    def _t_missing_distinct(self, rng, gdb):
        try:
            meta = self._pick_meta(rng, gdb, needs="category")
        except DatasetError:
            return None
        spec = rng.choice(meta.attr("category"))
        question = f"What are the {spec.nl} values of the {meta.plural}?"
        gold = f"SELECT DISTINCT {spec.column} FROM {meta.table.name}"
        foil = f"SELECT {spec.column} FROM {meta.table.name}"
        return (
            question,
            gold,
            "easy",
            {"column": spec.column, "foil_sql": foil},
        )

    def _t_order_direction(self, rng, gdb):
        try:
            meta = self._pick_meta(rng, gdb, needs="numeric")
        except DatasetError:
            return None
        numeric = meta.attr("numeric") + meta.attr("measure")
        spec = rng.choice(numeric)
        n = rng.randint(3, 8)
        question = (
            f"List the names of the first {n} {meta.plural} by {spec.nl}."
        )
        gold = (
            f"SELECT name FROM {meta.table.name} "
            f"ORDER BY {spec.column} DESC LIMIT {n}"
        )
        foil = gold.replace("DESC", "ASC", 1)
        return (
            question,
            gold,
            "medium",
            {"column": spec.column, "limit": n, "foil_sql": foil},
        )

    def _t_multi(self, rng, gdb):
        """Two planted errors in one question (needs two feedback rounds)."""
        with_desc = [m for m in gdb.tables if m.has_attr("description")]
        if not with_desc:
            return None
        dated = [m for m in with_desc if m.attr("date")]
        stated = [m for m in with_desc if m.status_values and m.has_attr("status")]
        variant_pool = []
        if dated:
            variant_pool.append("year_desc")
        if stated:
            variant_pool.append("filter_desc")
        if not variant_pool:
            return None
        variant = rng.choice(variant_pool)
        if variant == "year_desc":
            meta = rng.choice(dated)
            spec = rng.choice(meta.attr("date"))
            month = rng.randint(1, 12)
            start, end = month_range(CURRENT_YEAR, month)
            foil_start, foil_end = month_range(MODEL_DEFAULT_YEAR, month)
            question = (
                f"List the {meta.plural} created in {MONTH_NAMES[month - 1]}."
            )
            gold = (
                f"SELECT name FROM {meta.table.name} WHERE {spec.column} >= "
                f"'{start}' AND {spec.column} < '{end}'"
            )
            foil = (
                f"SELECT name, description FROM {meta.table.name} WHERE "
                f"{spec.column} >= '{foil_start}' AND {spec.column} < "
                f"'{foil_end}'"
            )
            return (
                question,
                gold,
                "medium",
                {
                    "components": ["default_year", "extra_description"],
                    "intended_year": CURRENT_YEAR,
                    "assumed_year": MODEL_DEFAULT_YEAR,
                    "month": month,
                    "date_column": spec.column,
                    "extra_column": "description",
                    "foil_sql": foil,
                },
            )
        meta = rng.choice(stated)
        value = meta.status_values[0]
        vague = meta.status_vague_phrase
        question = f"List the {vague} {meta.plural}."
        gold = f"SELECT name FROM {meta.table.name} WHERE status = '{value}'"
        foil = f"SELECT name, description FROM {meta.table.name}"
        return (
            question,
            gold,
            "medium",
            {
                "components": ["missing_filter", "extra_description"],
                "status_column": "status",
                "status_value": value,
                "phrase": vague,
                "extra_column": "description",
                "foil_sql": foil,
            },
        )

    def _t_wrong_aggregate(self, rng, gdb):
        candidates = [m for m in gdb.tables if m.attr("measure")]
        if not candidates:
            return None
        meta = rng.choice(candidates)
        spec = rng.choice(meta.attr("measure"))
        question = (
            f"How many {spec.nl} do the {meta.plural} have altogether?"
        )
        gold = f"SELECT SUM({spec.column}) FROM {meta.table.name}"
        return question, gold, "medium", {"column": spec.column}


def generate_spider_suite(
    seed: int = 20250325,
    n_databases: int = 200,
    n_dev: int = 1034,
    n_train: int = 600,
    trap_rate: float = 0.345,
) -> SpiderSuite:
    """Convenience wrapper: build the default SPIDER-like suite."""
    return SpiderGenerator(
        seed=seed,
        n_databases=n_databases,
        n_dev=n_dev,
        n_train=n_train,
        trap_rate=trap_rate,
    ).generate()
