"""Closed-domain "Experience Platform" dataset.

A synthetic stand-in for the paper's in-house Adobe Experience Platform
question traffic: a marketing-analytics star schema whose identifiers are
warehouse-style (``hkg_dim_segment``), whose users speak platform jargon
("audience" for segment, "live" for active, "activated to" for the
activation fact join), and whose questions are phrased by non-technical
marketers. This reproduces the paper's central contrast with SPIDER:
closed-domain vocabulary + vague phrasing → far lower zero-shot accuracy.
"""

from __future__ import annotations

import random

from repro.datasets.base import (
    Benchmark,
    Demonstration,
    Example,
    month_range,
    results_differ,
)
from repro.datasets.names import CURRENT_YEAR, MODEL_DEFAULT_YEAR, MONTH_NAMES
from repro.errors import DatasetError
from repro.sql.engine import Database
from repro.sql.schema import Column, DatabaseSchema, ForeignKey, Table
from repro.sql.types import DataType

AEP_DB_ID = "experience_platform"

#: Jargon glossary the RAG demonstrations teach (user phrase → schema ref).
#: Values are table names, or "column=value" filters.
AEP_GLOSSARY: dict[str, str] = {
    "audience": "hkg_dim_segment",
    "audiences": "hkg_dim_segment",
    "live": "status=active",
    "enabled": "status=active",
    "paused": "status=inactive",
}

_SEGMENT_NAMES = [
    "ABC", "Loyalty Shoppers", "Cart Abandoners", "Holiday Buyers",
    "Newsletter Fans", "High Spenders", "Weekend Browsers", "VIP Members",
    "Trial Users", "Lapsed Customers", "Mobile First", "Early Adopters",
    "Frequent Flyers", "Gift Givers", "Deal Hunters", "Premium Upgraders",
    "Win Back", "New Parents", "Student Offers", "Local Events",
]

_DESTINATION_NAMES = [
    "Email Hub", "CRM Sync", "Ad Connect", "Webhook Relay", "SMS Gateway",
    "Push Notify", "Data Lake Export", "Social Sync", "Survey Tool",
    "Loyalty Engine",
]

_DATASET_NAMES = [
    "Web Events", "Purchase History", "Profile Snapshot", "Email Engagement",
    "Call Center Logs", "Mobile Sessions", "Loyalty Ledger", "Ad Impressions",
    "Store Visits", "Support Tickets",
]

_JOURNEY_NAMES = [
    "Welcome Series", "Cart Recovery", "Birthday Offer", "Win Back Flow",
    "Upsell Path", "Renewal Reminder", "Onboarding Tour", "Feedback Loop",
]


def build_aep_database(seed: int = 7041) -> Database:
    """Construct and populate the Experience Platform database."""
    rng = random.Random(seed)
    schema = DatabaseSchema(
        AEP_DB_ID,
        [
            Table(
                name="hkg_dim_segment",
                nl_name="segment",
                synonyms=("audience",),
                columns=[
                    Column("segmentid", DataType.INTEGER, "segment id", primary_key=True),
                    Column("segmentname", DataType.TEXT, "segment name"),
                    Column("description", DataType.TEXT, "description"),
                    Column("status", DataType.TEXT, "status"),
                    Column("createdtime", DataType.DATE, "created time"),
                    Column("profilecount", DataType.INTEGER, "profile count"),
                ],
            ),
            Table(
                name="hkg_dim_destination",
                nl_name="destination",
                columns=[
                    Column("destinationid", DataType.INTEGER, "destination id", primary_key=True),
                    Column("destinationname", DataType.TEXT, "destination name"),
                    Column("destinationtype", DataType.TEXT, "destination type"),
                    Column("status", DataType.TEXT, "status"),
                    Column("createdtime", DataType.DATE, "created time"),
                ],
            ),
            Table(
                name="hkg_fact_activation",
                nl_name="activation",
                columns=[
                    Column("activationid", DataType.INTEGER, "activation id", primary_key=True),
                    Column("segmentid", DataType.INTEGER, "segment id"),
                    Column("destinationid", DataType.INTEGER, "destination id"),
                    Column("activationdate", DataType.DATE, "activation date"),
                    Column("activationstatus", DataType.TEXT, "activation status"),
                ],
                foreign_keys=[
                    ForeignKey("segmentid", "hkg_dim_segment", "segmentid"),
                    ForeignKey("destinationid", "hkg_dim_destination", "destinationid"),
                ],
            ),
            Table(
                name="hkg_dim_dataset",
                nl_name="dataset",
                columns=[
                    Column("datasetid", DataType.INTEGER, "dataset id", primary_key=True),
                    Column("datasetname", DataType.TEXT, "dataset name"),
                    Column("datasettype", DataType.TEXT, "dataset type"),
                    Column("recordcount", DataType.INTEGER, "record count"),
                    Column("status", DataType.TEXT, "status"),
                    Column("createdtime", DataType.DATE, "created time"),
                ],
            ),
            Table(
                name="hkg_fact_ingestion",
                nl_name="ingestion",
                columns=[
                    Column("ingestionid", DataType.INTEGER, "ingestion id", primary_key=True),
                    Column("datasetid", DataType.INTEGER, "dataset id"),
                    Column("ingestiondate", DataType.DATE, "ingestion date"),
                    Column("rowsingested", DataType.INTEGER, "rows ingested"),
                    Column("failedrecords", DataType.INTEGER, "failed records"),
                ],
                foreign_keys=[
                    ForeignKey("datasetid", "hkg_dim_dataset", "datasetid"),
                ],
            ),
            Table(
                name="hkg_dim_journey",
                nl_name="journey",
                columns=[
                    Column("journeyid", DataType.INTEGER, "journey id", primary_key=True),
                    Column("journeyname", DataType.TEXT, "journey name"),
                    Column("description", DataType.TEXT, "description"),
                    Column("status", DataType.TEXT, "status"),
                    Column("createdtime", DataType.DATE, "created time"),
                ],
            ),
        ],
    )
    db = Database(schema)

    def date_in(year: int, month: int) -> str:
        return f"{year:04d}-{month:02d}-{rng.randint(1, 28):02d}"

    def spread_date() -> str:
        return date_in(rng.choice((2023, 2023, 2024, 2024)), rng.randint(1, 12))

    statuses = ("active", "active", "active", "inactive", "draft")
    # Each table's rows are drawn in order, then written in one call.
    db.data("hkg_dim_segment").insert(
        *[
            (
                index,
                name,
                f"segment targeting {name.lower()} profiles",
                rng.choice(statuses),
                spread_date(),
                rng.randint(500, 250000),
            )
            for index, name in enumerate(_SEGMENT_NAMES, start=1)
        ]
    )
    db.data("hkg_dim_destination").insert(
        *[
            (
                index,
                name,
                rng.choice(("email", "crm", "ad_platform", "webhook")),
                rng.choice(statuses),
                spread_date(),
            )
            for index, name in enumerate(_DESTINATION_NAMES, start=1)
        ]
    )
    activations = []
    for segment_id in range(1, len(_SEGMENT_NAMES) + 1):
        for destination_id in rng.sample(
            range(1, len(_DESTINATION_NAMES) + 1), rng.randint(0, 4)
        ):
            activations.append(
                (
                    len(activations) + 1,
                    segment_id,
                    destination_id,
                    spread_date(),
                    rng.choice(("success", "success", "failed")),
                )
            )
    db.data("hkg_fact_activation").insert(*activations)
    db.data("hkg_dim_dataset").insert(
        *[
            (
                index,
                name,
                rng.choice(("profile", "event", "lookup")),
                rng.randint(1000, 5000000),
                rng.choice(statuses),
                spread_date(),
            )
            for index, name in enumerate(_DATASET_NAMES, start=1)
        ]
    )
    ingestions = []
    for dataset_id in range(1, len(_DATASET_NAMES) + 1):
        for _ in range(rng.randint(2, 6)):
            ingestions.append(
                (
                    len(ingestions) + 1,
                    dataset_id,
                    spread_date(),
                    rng.randint(100, 90000),
                    rng.randint(0, 400),
                )
            )
    db.data("hkg_fact_ingestion").insert(*ingestions)
    db.data("hkg_dim_journey").insert(
        *[
            (
                index,
                name,
                f"journey automating the {name.lower()} campaign",
                rng.choice(statuses),
                spread_date(),
            )
            for index, name in enumerate(_JOURNEY_NAMES, start=1)
        ]
    )
    return db


_ENTITY_TABLES = {
    "segment": ("hkg_dim_segment", "segmentname"),
    "destination": ("hkg_dim_destination", "destinationname"),
    "dataset": ("hkg_dim_dataset", "datasetname"),
    "journey": ("hkg_dim_journey", "journeyname"),
}


class AepGenerator:
    """Generates the AEP question traffic and demonstration pool.

    Args:
        seed: RNG seed.
        n_questions: Size of the generated traffic (the paper derives its
            54-example error set from real traffic; we generate enough
            questions that the Assistant's error set lands in that range).
        clean_fraction: Fraction of traffic phrased without jargon traps.
    """

    def __init__(
        self,
        seed: int = 7041,
        n_questions: int = 160,
        clean_fraction: float = 0.20,
    ) -> None:
        self._seed = seed
        self._n_questions = n_questions
        self._clean_fraction = clean_fraction

    def generate(self) -> tuple[Benchmark, list[Demonstration]]:
        """Build (traffic benchmark, demonstration pool)."""
        database = build_aep_database(self._seed)
        rng = random.Random(self._seed + 1)
        examples: list[Example] = []
        attempts = 0
        while len(examples) < self._n_questions and attempts < self._n_questions * 50:
            attempts += 1
            if rng.random() < self._clean_fraction:
                built = self._make_clean(rng, database)
            else:
                built = self._make_trapped(rng, database)
            if built is None:
                continue
            question, gold, hardness, trap_kind, trap_meta = built
            foil = trap_meta.get("foil_sql")
            if foil and not results_differ(database, gold, foil):
                continue
            examples.append(
                Example(
                    example_id=f"aep-{len(examples):04d}",
                    db_id=AEP_DB_ID,
                    question=question,
                    gold_sql=gold,
                    hardness=hardness,
                    trap_kind=trap_kind,
                    trap_meta=trap_meta,
                )
            )
        if len(examples) < self._n_questions:
            raise DatasetError("could not generate enough AEP questions")
        benchmark = Benchmark(
            name="experience_platform",
            databases={AEP_DB_ID: database},
            examples=examples,
        )
        return benchmark, self._demonstrations()

    # -- clean questions ---------------------------------------------------------

    def _make_clean(self, rng: random.Random, db: Database):
        entity = rng.choice(sorted(_ENTITY_TABLES))
        table, name_col = _ENTITY_TABLES[entity]
        template = rng.randrange(4)
        if template == 0:
            return (
                f"How many {entity}s are there?",
                f"SELECT COUNT(*) FROM {table}",
                "easy",
                None,
                {},
            )
        if template == 1:
            return (
                f"List the names of all {entity}s.",
                f"SELECT {name_col} FROM {table}",
                "easy",
                None,
                {},
            )
        if template == 2:
            month = rng.randint(1, 12)
            year = rng.choice((2023, CURRENT_YEAR))
            start, end = month_range(year, month)
            return (
                f"How many {entity}s were created in "
                f"{MONTH_NAMES[month - 1]} {year}?",
                (
                    f"SELECT COUNT(*) FROM {table} WHERE createdtime >= "
                    f"'{start}' AND createdtime < '{end}'"
                ),
                "medium",
                None,
                {},
            )
        if entity == "segment":
            return (
                "What is the total profile count of all segments?",
                "SELECT SUM(profilecount) FROM hkg_dim_segment",
                "medium",
                None,
                {},
            )
        if entity == "dataset":
            return (
                "What is the maximum record count of all datasets?",
                "SELECT MAX(recordcount) FROM hkg_dim_dataset",
                "medium",
                None,
                {},
            )
        return None

    # -- trapped questions ----------------------------------------------------------

    def _make_trapped(self, rng: random.Random, db: Database):
        builders = [
            (self._t_jargon_table, 0.16),
            (self._t_jargon_value, 0.12),
            (self._t_jargon_join, 0.10),
            (self._t_default_year, 0.30),
            (self._t_missing_filter, 0.08),
            (self._t_extra_description, 0.08),
            (self._t_multi, 0.07),
        ]
        weights = [w for _b, w in builders]
        builder = rng.choices([b for b, _w in builders], weights=weights, k=1)[0]
        return builder(rng, db)

    def _t_jargon_table(self, rng: random.Random, db: Database):
        """'Audiences' means segments — pure closed-domain vocabulary."""
        variant = rng.randrange(3)
        meta = {"jargon": "audiences", "table": "hkg_dim_segment"}
        if variant == 0:
            return (
                "How many audiences are there?",
                "SELECT COUNT(*) FROM hkg_dim_segment",
                "easy",
                "jargon_table",
                dict(meta, foil_sql="SELECT COUNT(*) FROM hkg_dim_dataset"),
            )
        if variant == 1:
            return (
                "List the names of all audiences.",
                "SELECT segmentname FROM hkg_dim_segment",
                "easy",
                "jargon_table",
                dict(meta, foil_sql="SELECT datasetname FROM hkg_dim_dataset"),
            )
        return (
            "What is the total profile count across our audiences?",
            "SELECT SUM(profilecount) FROM hkg_dim_segment",
            "medium",
            "jargon_table",
            dict(meta, foil_sql="SELECT COUNT(*) FROM hkg_dim_segment"),
        )

    def _t_jargon_value(self, rng: random.Random, db: Database):
        """'Live' means status = 'active' — closed-domain value vocabulary."""
        entity = rng.choice(("segment", "destination", "journey", "dataset"))
        table, name_col = _ENTITY_TABLES[entity]
        jargon = rng.choice(("live", "enabled"))
        if rng.random() < 0.5:
            question = f"How many {jargon} {entity}s do we have?"
            gold = f"SELECT COUNT(*) FROM {table} WHERE status = 'active'"
            foil = f"SELECT COUNT(*) FROM {table}"
        else:
            question = f"List the names of the {jargon} {entity}s."
            gold = f"SELECT {name_col} FROM {table} WHERE status = 'active'"
            foil = f"SELECT {name_col} FROM {table}"
        return (
            question,
            gold,
            "medium",
            "jargon_value",
            {
                "jargon": jargon,
                "column": "status",
                "value": "active",
                "foil_sql": foil,
            },
        )

    def _t_jargon_join(self, rng: random.Random, db: Database):
        """'Activated to' means a join through the activation fact table."""
        result = db.query(
            "SELECT segmentname FROM hkg_dim_segment WHERE segmentid IN "
            "(SELECT segmentid FROM hkg_fact_activation) ORDER BY segmentid"
        )
        if not result.rows:
            return None
        segment_name = str(rng.choice(result.rows)[0])
        escaped = segment_name.replace("'", "''")
        question = (
            f"Which destinations is the '{segment_name}' segment activated to?"
        )
        gold = (
            "SELECT T2.destinationname FROM hkg_fact_activation AS T1 "
            "JOIN hkg_dim_destination AS T2 "
            "ON T1.destinationid = T2.destinationid "
            "JOIN hkg_dim_segment AS T3 ON T1.segmentid = T3.segmentid "
            f"WHERE T3.segmentname = '{escaped}'"
        )
        return (
            question,
            gold,
            "hard",
            "jargon_join",
            {
                "jargon": "activated",
                "fact_table": "hkg_fact_activation",
                "segment_name": segment_name,
                "foil_sql": "SELECT destinationname FROM hkg_dim_destination",
            },
        )

    def _t_default_year(self, rng: random.Random, db: Database):
        """'Created in January' with no year — the user means the current one."""
        entity = rng.choice(("segment", "dataset", "journey", "destination"))
        table, _name_col = _ENTITY_TABLES[entity]
        noun = "audiences" if entity == "segment" and rng.random() < 0.6 else f"{entity}s"
        month = rng.randint(1, 12)
        start, end = month_range(CURRENT_YEAR, month)
        question = (
            f"How many {noun} were created in {MONTH_NAMES[month - 1]}?"
        )
        gold = (
            f"SELECT COUNT(*) FROM {table} WHERE createdtime >= '{start}' "
            f"AND createdtime < '{end}'"
        )
        foil_start, foil_end = month_range(MODEL_DEFAULT_YEAR, month)
        trap_meta = {
            "intended_year": CURRENT_YEAR,
            "assumed_year": MODEL_DEFAULT_YEAR,
            "month": month,
            "date_column": "createdtime",
            "foil_sql": (
                f"SELECT COUNT(*) FROM {table} WHERE createdtime >= "
                f"'{foil_start}' AND createdtime < '{foil_end}'"
            ),
        }
        if noun == "audiences":
            trap_meta["jargon"] = "audiences"
        return question, gold, "medium", "default_year", trap_meta

    def _t_missing_filter(self, rng: random.Random, db: Database):
        """'Ready to use' implies an org-specific status filter."""
        entity = rng.choice(("dataset", "journey"))
        table, name_col = _ENTITY_TABLES[entity]
        question = f"List the names of the {entity}s that are ready to use."
        gold = f"SELECT {name_col} FROM {table} WHERE status = 'active'"
        return (
            question,
            gold,
            "medium",
            "missing_filter",
            {
                "status_column": "status",
                "status_value": "active",
                "phrase": "ready to use",
                "foil_sql": f"SELECT {name_col} FROM {table}",
            },
        )

    def _t_extra_description(self, rng: random.Random, db: Database):
        """Asked to 'list the segments ...', the model adds descriptions."""
        entity = rng.choice(("segment", "journey"))
        table, name_col = _ENTITY_TABLES[entity]
        month = rng.randint(1, 12)
        year = rng.choice((2023, CURRENT_YEAR))
        start, end = month_range(year, month)
        question = (
            f"List the {entity}s created in {MONTH_NAMES[month - 1]} {year}."
        )
        gold = (
            f"SELECT {name_col} FROM {table} WHERE createdtime >= '{start}' "
            f"AND createdtime < '{end}'"
        )
        return (
            question,
            gold,
            "medium",
            "extra_description",
            {
                "extra_column": "description",
                "foil_sql": gold.replace(
                    f"SELECT {name_col}", f"SELECT {name_col}, description", 1
                ),
            },
        )

    def _t_multi(self, rng: random.Random, db: Database):
        """Two planted errors: description verbosity plus the year default."""
        entity = rng.choice(("segment", "journey"))
        table, name_col = _ENTITY_TABLES[entity]
        noun = "audiences" if entity == "segment" else "journeys"
        month = rng.randint(1, 12)
        start, end = month_range(CURRENT_YEAR, month)
        foil_start, foil_end = month_range(MODEL_DEFAULT_YEAR, month)
        question = f"List the {noun} created in {MONTH_NAMES[month - 1]}."
        gold = (
            f"SELECT {name_col} FROM {table} WHERE createdtime >= '{start}' "
            f"AND createdtime < '{end}'"
        )
        foil = (
            f"SELECT {name_col}, description FROM {table} WHERE createdtime "
            f">= '{foil_start}' AND createdtime < '{foil_end}'"
        )
        trap_meta = {
            "components": ["default_year", "extra_description"],
            "intended_year": CURRENT_YEAR,
            "assumed_year": MODEL_DEFAULT_YEAR,
            "month": month,
            "date_column": "createdtime",
            "extra_column": "description",
            "foil_sql": foil,
        }
        if noun == "audiences":
            trap_meta["jargon"] = "audiences"
        return question, gold, "medium", "multi", trap_meta

    # -- demonstrations -------------------------------------------------------------

    def _demonstrations(self) -> list[Demonstration]:
        """The in-house demonstration pool the Assistant's RAG retrieves from.

        These demos teach the closed-domain vocabulary (via ``glossary``) and
        the house conventions (name-only projections); they cannot teach
        instance context such as which year "January" means.
        """
        demos = [
            Demonstration(
                question="How many audiences do we have in total?",
                sql="SELECT COUNT(*) FROM hkg_dim_segment",
                db_id=AEP_DB_ID,
                glossary={"audience": "hkg_dim_segment",
                          "audiences": "hkg_dim_segment"},
            ),
            Demonstration(
                question="List the names of all audiences.",
                sql="SELECT segmentname FROM hkg_dim_segment",
                db_id=AEP_DB_ID,
                glossary={"audience": "hkg_dim_segment",
                          "audiences": "hkg_dim_segment"},
            ),
            Demonstration(
                question="How many live destinations are there?",
                sql=(
                    "SELECT COUNT(*) FROM hkg_dim_destination "
                    "WHERE status = 'active'"
                ),
                db_id=AEP_DB_ID,
                glossary={"live": "status=active"},
            ),
            Demonstration(
                question="List the names of the live journeys.",
                sql=(
                    "SELECT journeyname FROM hkg_dim_journey "
                    "WHERE status = 'active'"
                ),
                db_id=AEP_DB_ID,
                glossary={"live": "status=active"},
            ),
            Demonstration(
                question="How many segments were created in June 2023?",
                sql=(
                    "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime "
                    ">= '2023-06-01' AND createdtime < '2023-07-01'"
                ),
                db_id=AEP_DB_ID,
            ),
            Demonstration(
                question="What is the total rows ingested across ingestions?",
                sql="SELECT SUM(rowsingested) FROM hkg_fact_ingestion",
                db_id=AEP_DB_ID,
            ),
        ]
        return demos


def generate_aep_suite(
    seed: int = 7041, n_questions: int = 160
) -> tuple[Benchmark, list[Demonstration]]:
    """Convenience wrapper: build the AEP traffic + demonstration pool."""
    return AepGenerator(seed=seed, n_questions=n_questions).generate()
