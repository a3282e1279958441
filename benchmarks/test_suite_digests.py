"""Suite goldens at paper scale.

The full-scale twin of ``tests/datasets/test_suite_digests.py``: every
table's rows and every example of ``build_context("full", 20250325)``
reduce to one short digest per key, and ``suite_digests_full.json`` pins
them. A failure lists each table or example that changed, appeared or
disappeared. It takes about as long as one set-up. Re-pin on purpose
with::

    PYTHONPATH=src python benchmarks/test_suite_digests.py
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
GOLDEN = Path(__file__).with_name("suite_digests_full.json")


def _digests() -> dict[str, str]:
    return suite_digests(build_context("full", SEED))


def test_every_full_scale_table_and_example_matches_its_golden():
    changes = digest_changes(read_digests(GOLDEN), _digests())
    assert not changes, f"{len(changes)} suite entries differ:\n" + "\n".join(
        changes
    )


if __name__ == "__main__":
    write_digests(GOLDEN, _digests())
