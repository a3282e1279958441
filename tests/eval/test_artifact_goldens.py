"""Byte goldens of the paper artifacts at small scale.

Parity tests compare execution modes with each other, and the shape tests
assert bands; neither catches a change that shifts every mode the same
way. These sha256 values pin the rendered Figure 2, Table 2, Figure 8 and
Table 3 of ``build_context("small", 20250325)``, so any speedup or
refactor that is meant to be byte-identical must keep them. An intended
change to the artifacts updates these values and EXPERIMENTS.md together.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.eval.experiments import run_figure2, run_figure8, run_table2, run_table3
from repro.eval.harness import ExperimentContext, build_context
from repro.eval.reporting import (
    render_figure2,
    render_figure8,
    render_table2,
    render_table3,
)

SEED = 20250325

#: Artifact name → (runner, renderer), in the order a full sweep renders.
ARTIFACTS = {
    "figure2": (run_figure2, render_figure2),
    "table2": (run_table2, render_table2),
    "figure8": (run_figure8, render_figure8),
    "table3": (run_table3, render_table3),
}

GOLDENS = {
    "figure2": "12fa8c030edfe47ffec63064c476f61addc0ee227ff60e096cccaeb75d0b7b1d",
    "table2": "479373fcd9f543d636ff5534c1367db618f8acfcccc8bb6c2b3bdb646cc0109d",
    "figure8": "5056a4226d0adfce06029dc623f5ff48e1d3545df652f2bca279bc2b0ff31f13",
    "table3": "99a0ccedd519544aa6fc2ba05e3a217ac5ac5801a6ae290bac4e6efdeeec32e3",
}

#: The four renders joined by a newline, as one sweep digests them.
JOINED_GOLDEN = "11a1f91fd02e0379ace6efb91b5a19d5cd98eb2692b07b7677ba6a2728a25070"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def renders() -> dict[str, str]:
    built = build_context("small", SEED)
    # A fresh context over the shared, read-only suites: no model, retriever
    # or report cached by an earlier test can leak into the artifacts.
    context = ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
    )
    return {name: render(run(context)) for name, (run, render) in ARTIFACTS.items()}


def test_each_artifact_matches_its_golden(renders):
    changed = [name for name, text in renders.items() if _sha256(text) != GOLDENS[name]]
    assert not changed, f"rendered artifacts changed: {', '.join(changed)}"


def test_joined_renders_match_the_sweep_golden(renders):
    assert _sha256("\n".join(renders.values())) == JOINED_GOLDEN
