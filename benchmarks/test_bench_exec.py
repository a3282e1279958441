"""Execution-layer speedup snapshot (``BENCH_exec.json``).

The bar: a warm completion cache runs Table 2 at least 2x faster than a
cold one, at the same worker count, over a model that waits. The model
is an in-process ``FakeOpenAIServer`` that delays each completion by
5 ms, so a cache hit saves a whole call. Both runs use ``WORKERS``
threads and a fresh context over the same prebuilt suites, after an
uncached run that fills the process-wide memos, so the ratio measures
the cache alone: not thread scaling, and not the memos that a process's
first sweep fills and every later sweep reuses. The warm run must send
no request, and all three runs must render the same bytes.

The snapshot also records, without a bar, Table 2 on the simulated model
three ways (sequential cold, cold cache at ``WORKERS`` threads, warm
cache at ``WORKERS`` threads) and a scaling curve for the thread tier:
cold Table 2 at workers 1/2/4, each cell and its sequential baseline on
a fresh context, so none of them reuses another's memoized Assistant
reports. On the simulated model a hit saves only in-process work that
the memos already make cheap, so those ratios sit too close to 1 to
carry a bar. Byte parity is asserted for every cell; ``cpu_count`` is
recorded so the snapshot is honest about what it was measured on. The
snapshot is written before the bar is checked, so a run that misses the
bar still records its numbers.

Suite construction is excluded from every timing (the pristine context is
prebuilt and its suites shared), isolating the execution path.
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
from repro.llm.http_backend import FakeOpenAIServer, HttpChatModel
from repro.llm.simulated import SimulatedLLM

SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_exec.json"

WORKERS = 4
CURVE_WORKERS = (1, 2, 4)

#: Seconds the delayed backend waits before each completion.
BACKEND_DELAY_S = 0.005


def _timed_table2(context):
    started = time.perf_counter()
    result = run_table2(context)
    elapsed = time.perf_counter() - started
    return render_table2(result), elapsed


def _cold_context(built, workers=1, llm=None):
    """A fresh context on the built suites, with nothing memoized yet."""
    context = ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
        workers=workers,
    )
    if llm is not None:
        context.llm = llm
    return context


def _delayed_backend_cache(built):
    """Table 2 at ``WORKERS`` over the delayed backend: first uncached,
    which fills the process-wide memos, then a cold and a warm cache."""
    cache = CompletionCache()
    runs = {}
    with FakeOpenAIServer() as server:
        server.set_delay(BACKEND_DELAY_S)
        for run in ("uncached", "cold", "warm"):
            sent_before = server.requests
            llm = HttpChatModel(server.base_url)
            if run != "uncached":
                llm = CachingChatModel(llm, cache)
            render, elapsed = _timed_table2(
                _cold_context(built, WORKERS, llm=llm)
            )
            runs[run] = (render, elapsed, server.requests - sent_before)
    renders = {render for render, _elapsed, _sent in runs.values()}
    assert len(renders) == 1, "the cache changed Table 2"
    cold_s, warm_s = runs["cold"][1], runs["warm"][1]
    return {
        "backend": "FakeOpenAIServer",
        "delay_ms": BACKEND_DELAY_S * 1000,
        "workers": WORKERS,
        "uncached_ms": round(runs["uncached"][1] * 1000, 2),
        "cold_ms": round(cold_s * 1000, 2),
        "warm_ms": round(warm_s * 1000, 2),
        "speedup": round(cold_s / warm_s, 2),
        "cold_requests": runs["cold"][2],
        "warm_requests": runs["warm"][2],
    }


def _simulated(built):
    """Sequential cold, then cold and warm cache at ``WORKERS`` threads."""
    sequential_render, sequential_s = _timed_table2(_cold_context(built))
    cache = CompletionCache()
    cold_render, cold_s = _timed_table2(
        _cold_context(
            built, WORKERS, llm=CachingChatModel(SimulatedLLM(), cache)
        )
    )
    cold_stats = cache.stats()
    warm_render, warm_s = _timed_table2(
        _cold_context(
            built, WORKERS, llm=CachingChatModel(SimulatedLLM(), cache)
        )
    )
    assert cold_render == sequential_render
    assert warm_render == sequential_render
    return {
        "timings_ms": {
            "sequential_cold": round(sequential_s * 1000, 2),
            "parallel_cold": round(cold_s * 1000, 2),
            "parallel_warm": round(warm_s * 1000, 2),
        },
        "speedup": {
            "parallel_cold": round(sequential_s / cold_s, 2),
            "parallel_warm": round(sequential_s / warm_s, 2),
        },
        "cache": {
            "cold_misses": cold_stats["misses"],
            "cold_hits": cold_stats["hits"],
            "entries": len(cache),
        },
    }


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

    cache_bar = _delayed_backend_cache(built)
    simulated = _simulated(built)
    scaling_sequential_ms, curve = _scaling_curve(built)

    document = {
        "benchmark": "table2",
        "scale": "small",
        "workers": WORKERS,
        "delayed_backend_cache": cache_bar,
        "simulated": simulated,
        "scaling": {
            "cpu_count": os.cpu_count() or 1,
            "sequential_cold_ms": scaling_sequential_ms,
            "curve": curve,
        },
        "byte_identical_outputs": True,
    }
    SNAPSHOT_PATH.write_text(json.dumps(document, indent=2, default=str) + "\n")

    assert cache_bar["warm_requests"] == 0, cache_bar
    assert cache_bar["speedup"] >= 2.0, (
        f"a warm cache must be >= 2x a cold one at {WORKERS} workers over "
        f"the delayed backend, got {cache_bar['speedup']:.2f}x "
        f"({cache_bar['cold_ms']:.1f} ms -> {cache_bar['warm_ms']:.1f} ms)"
    )

    reloaded = json.loads(SNAPSHOT_PATH.read_text())
    assert reloaded["delayed_backend_cache"]["speedup"] >= 2.0
