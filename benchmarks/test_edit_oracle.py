"""The edit oracle at paper scale.

The full-scale twin of ``tests/eval/test_edit_oracle.py``: for every
Assistant error of ``build_context("full", 20250325)`` whose diff the
annotator accepts, the diff's operations, applied to the prediction in
order, give a query that SQLite answers like gold. It takes about one
set-up and one Assistant pass over both datasets.
"""

from __future__ import annotations

from repro.eval.harness import build_context
from tests.eval.test_edit_oracle import SEED, oracle_failures


def test_the_diff_turns_every_full_scale_error_into_gold():
    checked, failures = oracle_failures(build_context("full", SEED))
    assert checked == 349
    assert not failures, "\n".join(failures)
