"""Suite goldens at small scale: set-up builds the same rows and examples.

Every table's rows and every example of ``build_context("small",
20250325)`` reduce to one short digest per key
(:func:`repro.eval.predictions.suite_digests`), and
``suite_digests_small.json`` pins them. A change to how set-up draws or
writes rows must leave every digest as it is; a failure lists each table
or example that changed, appeared or disappeared. Re-pin on purpose with::

    PYTHONPATH=src python tests/datasets/test_suite_digests.py
"""

from __future__ import annotations

from pathlib import Path

from repro.eval.harness import build_context
from repro.eval.predictions import (
    digest_changes,
    read_digests,
    suite_digests,
    write_digests,
)

SEED = 20250325
GOLDEN = Path(__file__).with_name("suite_digests_small.json")


def _digests() -> dict[str, str]:
    return suite_digests(build_context("small", SEED))


def test_every_table_and_example_matches_its_golden():
    changes = digest_changes(read_digests(GOLDEN), _digests())
    assert not changes, f"{len(changes)} suite entries differ:\n" + "\n".join(
        changes
    )


def test_the_golden_covers_every_table_and_split():
    kinds = {"/".join(key.split("/")[:2]) for key in read_digests(GOLDEN)}
    assert kinds == {
        "spider/db",
        "spider/dev",
        "spider/train",
        "aep/db",
        "aep/dev",
        "aep/demo",
    }


if __name__ == "__main__":
    write_digests(GOLDEN, _digests())
