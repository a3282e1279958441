"""Byte-parity: parallel/cached evaluation equals sequential.

The acceptance bar for the dispatch layer is not "roughly the same
accuracy" — it is byte-identical per-example outcomes and rendered
artifacts across {sequential, sharded workers, warm completion cache}. These tests pin that equivalence on the SPIDER error
set and on the table2 correction benchmark.
"""

from __future__ import annotations

import pytest

from repro.eval.experiments import run_figure2, run_table2
from repro.eval.harness import build_context
from repro.eval.metrics import evaluate_model, shard_examples
from repro.eval.reporting import render_figure2, render_table2
from repro.llm.dispatch import CachingChatModel, CompletionCache
from repro.llm.simulated import SimulatedLLM


@pytest.fixture(scope="module")
def error_examples():
    context = build_context(scale="small")
    return [record.example for record in context.error_set("spider")]


def _fingerprint(report):
    return [
        (
            record.example.example_id,
            record.predicted_sql,
            record.correct,
            record.failed,
            tuple(record.notes),
        )
        for record in report.records
    ]


def _evaluate(examples, llm=None, workers=1):
    context = build_context(scale="small", llm=llm, workers=workers)
    return evaluate_model(
        context.spider_assistant_model(),
        context.spider.benchmark,
        examples,
        workers=workers,
    )


class TestShardExamples:
    def test_shards_partition_in_order(self, error_examples):
        shards = shard_examples(error_examples, 4)
        flattened = [example for shard in shards for example in shard]
        assert flattened == list(error_examples)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_examples(self, error_examples):
        shards = shard_examples(error_examples[:2], 8)
        assert [len(shard) for shard in shards] == [1, 1]


class TestOutcomeParity:
    def test_workers_match_sequential(self, error_examples):
        baseline = _fingerprint(_evaluate(error_examples))
        sharded = _fingerprint(_evaluate(error_examples, workers=4))
        assert sharded == baseline

    def test_empty_pool_with_workers(self):
        assert _evaluate([], workers=4).records == []

    def test_more_workers_than_examples_match_sequential(
        self, error_examples
    ):
        # Eight workers over three examples: the empty shards drop out.
        baseline = _fingerprint(_evaluate(error_examples[:3]))
        sharded = _fingerprint(_evaluate(error_examples[:3], workers=8))
        assert sharded == baseline

    def test_warm_cache_with_workers_matches_sequential(
        self, error_examples, tmp_path
    ):
        baseline = _fingerprint(_evaluate(error_examples))

        cache = CompletionCache()
        cold_llm = CachingChatModel(SimulatedLLM(), cache)
        cold = _fingerprint(_evaluate(error_examples, llm=cold_llm, workers=4))
        assert cold == baseline
        assert cache.stats()["misses"] > 0

        # Round-trip through disk, then re-evaluate fully warm.
        cache.save(tmp_path)
        warmed = CompletionCache.load(tmp_path)
        warm_llm = CachingChatModel(SimulatedLLM(), warmed)
        warm = _fingerprint(_evaluate(error_examples, llm=warm_llm, workers=4))
        assert warm == baseline
        assert warmed.stats()["misses"] == 0
        assert warmed.stats()["hits"] > 0


class TestArtifactParity:
    def test_table2_render_is_byte_identical(self):
        sequential = render_table2(run_table2(build_context(scale="small")))
        cache = CompletionCache()
        parallel_context = build_context(
            scale="small",
            llm=CachingChatModel(SimulatedLLM(), cache),
            workers=4,
        )
        parallel = render_table2(run_table2(parallel_context))
        assert parallel == sequential

        warm_context = build_context(
            scale="small",
            llm=CachingChatModel(SimulatedLLM(), cache),
            workers=4,
        )
        warm = render_table2(run_table2(warm_context))
        assert warm == sequential

    def test_thread_workers_match_sequential(self):
        """Figure 2 and Table 2 under three worker threads, on another seed."""

        def artifacts(**kwargs):
            context = build_context(scale="small", seed=11, **kwargs)
            return (
                render_figure2(run_figure2(context)),
                render_table2(run_table2(context)),
            )

        assert artifacts(workers=3) == artifacts()
