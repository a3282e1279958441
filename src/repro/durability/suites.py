"""Persisted SPIDER/AEP suites: generate once, load on every warm start.

Suite generation is a pure function of ``(scale, seed)`` but dominates
cold-start time (``harness.suite_build_ms``). This module serializes the
full generated environment — SPIDER databases + dev/train splits, the AEP
benchmark, and its demonstration pool — through the same schema+rows JSON
as :mod:`repro.sql.io`, wrapped in the checksummed atomic envelope from
:mod:`repro.durability.atomic`.

Ordering is load-bearing: benchmark examples and database insertion order
must survive the round trip, so both are stored as JSON *arrays* (which
canonical JSON never reorders), never as objects keyed by id.

A corrupt or stale suite file is quarantined and the caller regenerates —
a warm start can be slow, but never wrong.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.datasets.base import Benchmark, Demonstration, Example
from repro.datasets.spider import SpiderSuite
from repro.durability.atomic import (
    quarantine_file,
    read_checksummed_json,
    write_checksummed_json,
)
from repro import obs
from repro.sql.io import database_from_dict, database_to_dict

#: Bump when the suite payload layout changes (old files regenerate).
SUITE_SCHEMA_VERSION = 1


def suite_path(directory: Union[str, Path], scale: str, seed: int) -> Path:
    """The canonical file for a ``(scale, seed)`` suite."""
    return Path(directory) / f"suite-{scale}-{seed}.json"


def _benchmark_payload(benchmark: Benchmark) -> dict:
    return {
        "name": benchmark.name,
        "databases": [
            database_to_dict(db) for db in benchmark.databases.values()
        ],
        "examples": [example.to_dict() for example in benchmark.examples],
    }


def _benchmark_from_payload(payload: dict) -> Benchmark:
    databases = {}
    for data in payload["databases"]:
        database = database_from_dict(data)
        databases[database.schema.name] = database
    return Benchmark(
        name=payload["name"],
        databases=databases,
        examples=[Example.from_dict(data) for data in payload["examples"]],
    )


def save_suites(
    directory: Union[str, Path],
    scale: str,
    seed: int,
    spider: SpiderSuite,
    aep_benchmark: Benchmark,
    aep_demos: list[Demonstration],
) -> Optional[Path]:
    """Persist a generated environment for ``(scale, seed)``.

    A disk fault costs the suite file, never the run: the writer counts a
    degraded ``suite`` write and None comes back, so the next start
    generates again.
    """
    payload = {
        "version": SUITE_SCHEMA_VERSION,
        "scale": scale,
        "seed": seed,
        "spider": {
            "benchmark": _benchmark_payload(spider.benchmark),
            "train": [example.to_dict() for example in spider.train_examples],
        },
        "aep": {
            "benchmark": _benchmark_payload(aep_benchmark),
            "demos": [
                {
                    "question": demo.question,
                    "sql": demo.sql,
                    "db_id": demo.db_id,
                    "glossary": dict(demo.glossary),
                }
                for demo in aep_demos
            ],
        },
    }
    path = write_checksummed_json(
        suite_path(directory, scale, seed), payload, "suite"
    )
    if path is not None:
        obs.count("suite.saved", scale=scale)
    return path


def load_suites(
    directory: Union[str, Path], scale: str, seed: int
) -> Optional[tuple[SpiderSuite, Benchmark, list[Demonstration]]]:
    """Load a persisted environment; None when absent, stale, or corrupt.

    The returned :class:`SpiderSuite` carries an empty ``generated`` map —
    the per-table generator bookkeeping is only needed *during* generation
    and is deliberately not persisted.
    """
    path = suite_path(directory, scale, seed)
    payload = read_checksummed_json(path, kind="suite")
    if payload is None:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != SUITE_SCHEMA_VERSION
        or payload.get("scale") != scale
        or payload.get("seed") != seed
    ):
        # Checksum was fine but the payload is from another schema version
        # or a mismatched (scale, seed): regenerate rather than trust it.
        quarantine_file(path)
        obs.count("durability.quarantined", kind="suite")
        return None
    try:
        spider = SpiderSuite(
            benchmark=_benchmark_from_payload(payload["spider"]["benchmark"]),
            train_examples=[
                Example.from_dict(data)
                for data in payload["spider"]["train"]
            ],
            generated={},
        )
        aep_benchmark = _benchmark_from_payload(payload["aep"]["benchmark"])
        aep_demos = [
            Demonstration(
                question=demo["question"],
                sql=demo["sql"],
                db_id=demo["db_id"],
                glossary=dict(demo.get("glossary", {})),
            )
            for demo in payload["aep"]["demos"]
        ]
    except (KeyError, TypeError, ValueError):
        quarantine_file(path)
        obs.count("durability.quarantined", kind="suite")
        return None
    obs.count("suite.loaded", scale=scale)
    return spider, aep_benchmark, aep_demos
