"""Per-example prediction goldens at paper scale.

The full-scale twin of ``tests/eval/test_prediction_goldens.py``: every
prediction behind the four artifacts of ``build_context("full",
20250325)`` becomes one row (:mod:`repro.eval.predictions`), and
``prediction_goldens_full.json`` pins a short digest per row key. A
failure lists each row that changed, appeared or disappeared. It takes
about as long as one set-up and sweep. Re-pin on purpose with::

    PYTHONPATH=src python benchmarks/test_prediction_goldens.py
"""

from __future__ import annotations

from pathlib import Path

from repro.eval.harness import ExperimentContext, build_context
from repro.eval.predictions import (
    digest_changes,
    read_digests,
    row_digests,
    sweep_rows,
    write_digests,
)

SEED = 20250325
GOLDEN = Path(__file__).with_name("prediction_goldens_full.json")


def _digests() -> dict[str, str]:
    built = build_context("full", SEED)
    context = ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
    )
    return row_digests(sweep_rows(context))


def test_every_full_scale_prediction_row_matches_its_golden():
    changes = digest_changes(read_digests(GOLDEN), _digests())
    assert not changes, f"{len(changes)} prediction rows differ:\n" + "\n".join(
        changes
    )


if __name__ == "__main__":
    write_digests(GOLDEN, _digests())
