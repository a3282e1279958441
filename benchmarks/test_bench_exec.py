"""Execution-layer speedup snapshot (``BENCH_exec.json``).

Times the Table 2 correction benchmark three ways — sequential cold,
parallel cold (``workers=4`` threads filling the completion cache), and
parallel warm (same, cache pre-filled) — and persists the wall-clocks
plus the speedup ratios. The acceptance bar for the dispatch
layer is >= 2x for parallel-warm over sequential-cold; the test asserts
the outputs stayed byte-identical while getting there, so the speedup is
never bought with drift.

The snapshot also carries a scaling curve for the thread tier: cold
Table 2 at workers 1/2/4, each cell and its sequential baseline on a
fresh context, so none of them reuses another's memoized Assistant
reports. Byte parity is asserted for every cell; ``cpu_count`` is
recorded so the snapshot is honest about what it was measured on. The
snapshot is written before the speedup bar is checked, so a run that
misses the bar still records its numbers.

Suite construction is excluded from every timing (the pristine context is
prebuilt and its suites shared), isolating the execution path this layer
actually changed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.eval.experiments import run_table2
from repro.eval.harness import ExperimentContext, build_context
from repro.eval.reporting import render_table2
from repro.llm.dispatch import CachingChatModel, CompletionCache
from repro.llm.simulated import SimulatedLLM

SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_exec.json"

WORKERS = 4
CURVE_WORKERS = (1, 2, 4)


def _timed_table2(context):
    started = time.perf_counter()
    result = run_table2(context)
    elapsed = time.perf_counter() - started
    return render_table2(result), elapsed


def _cold_context(built, workers=1):
    """A fresh context on the built suites, with nothing memoized yet."""
    return ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
        workers=workers,
    )


def _scaling_curve(built):
    """Cold Table 2 on worker threads at each curve worker count."""
    baseline_render, baseline_s = _timed_table2(_cold_context(built))
    curve = []
    for workers in CURVE_WORKERS:
        render, elapsed = _timed_table2(_cold_context(built, workers))
        assert render == baseline_render, f"{workers} worker threads drifted"
        curve.append(
            {
                "workers": workers,
                "ms": round(elapsed * 1000, 2),
                "speedup": round(baseline_s / elapsed, 2),
            }
        )
    return round(baseline_s * 1000, 2), curve


def test_bench_exec_snapshot():
    # Prebuild suites so no variant pays (or skips) construction cost.
    built = build_context(scale="small")

    sequential_render, sequential_s = _timed_table2(
        build_context(scale="small")
    )

    cache = CompletionCache()
    cold_render, cold_s = _timed_table2(
        build_context(
            scale="small",
            llm=CachingChatModel(SimulatedLLM(), cache),
            workers=WORKERS,
        )
    )
    cold_stats = cache.stats()

    warm_render, warm_s = _timed_table2(
        build_context(
            scale="small",
            llm=CachingChatModel(SimulatedLLM(), cache),
            workers=WORKERS,
        )
    )

    assert cold_render == sequential_render
    assert warm_render == sequential_render
    speedup_warm = sequential_s / warm_s

    scaling_sequential_ms, curve = _scaling_curve(built)

    document = {
        "benchmark": "table2",
        "scale": "small",
        "workers": WORKERS,
        "timings_ms": {
            "sequential_cold": round(sequential_s * 1000, 2),
            "parallel_cold": round(cold_s * 1000, 2),
            "parallel_warm": round(warm_s * 1000, 2),
        },
        "speedup": {
            "parallel_cold": round(sequential_s / cold_s, 2),
            "parallel_warm": round(speedup_warm, 2),
        },
        "cache": {
            "cold_misses": cold_stats["misses"],
            "cold_hits": cold_stats["hits"],
            "entries": len(cache),
        },
        "scaling": {
            "cpu_count": os.cpu_count() or 1,
            "sequential_cold_ms": scaling_sequential_ms,
            "curve": curve,
        },
        "byte_identical_outputs": True,
    }
    SNAPSHOT_PATH.write_text(json.dumps(document, indent=2, default=str) + "\n")

    assert speedup_warm >= 2.0, (
        f"parallel-warm must be >= 2x sequential-cold, got {speedup_warm:.2f}x "
        f"({sequential_s * 1000:.1f} ms -> {warm_s * 1000:.1f} ms)"
    )

    reloaded = json.loads(SNAPSHOT_PATH.read_text())
    assert reloaded["speedup"]["parallel_warm"] >= 2.0
