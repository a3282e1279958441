"""Per-example prediction goldens at small scale.

The render goldens (``test_artifact_goldens.py``) say *that* an artifact
changed; these say *which* examples did. Every prediction behind the four
artifacts of ``build_context("small", 20250325)`` becomes one row
(:mod:`repro.eval.predictions`), and ``prediction_goldens_small.json``
pins a short digest per row key. A failure lists each row that changed,
appeared or disappeared. An intended change re-pins the file, with
EXPERIMENTS.md, by running this module as a script::

    PYTHONPATH=src python tests/eval/test_prediction_goldens.py
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
GOLDEN = Path(__file__).with_name("prediction_goldens_small.json")


def _digests() -> dict[str, str]:
    built = build_context("small", SEED)
    # A fresh context over the shared suites, as in the render goldens.
    context = ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
    )
    return row_digests(sweep_rows(context))


def test_every_prediction_row_matches_its_golden():
    changes = digest_changes(read_digests(GOLDEN), _digests())
    assert not changes, f"{len(changes)} prediction rows differ:\n" + "\n".join(
        changes
    )


def test_changes_name_every_changed_appeared_and_disappeared_row():
    expected = {"a/x/spider/e1/0": "1", "a/x/spider/e2/0": "2", "a/x/aep/e3/1": "3"}
    actual = {"a/x/spider/e1/0": "1", "a/x/spider/e2/0": "9", "a/x/aep/e4/1": "4"}
    assert digest_changes(expected, actual) == [
        "disappeared: a/x/aep/e3/1",
        "appeared:    a/x/aep/e4/1",
        "changed:     a/x/spider/e2/0",
    ]


if __name__ == "__main__":
    write_digests(GOLDEN, _digests())
