"""Byte-parity: parallel/cached evaluation equals sequential.

The acceptance bar for the dispatch layer is not "roughly the same
accuracy" — it is byte-identical per-example outcomes and rendered
artifacts across {sequential, worker threads, warm completion cache}.
These tests pin that equivalence on the SPIDER error set and on the
table2 correction benchmark, and pin the one sweep map they all run on.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets.base import Example
from repro.durability import RunJournal
from repro.eval.experiments import run_figure2, run_table2
from repro.eval.harness import build_context
from repro.eval.journaling import prediction_key, prediction_to_dict
from repro.eval.metrics import PredictionRecord, evaluate_model, map_in_order
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


class _RecordingJournal(RunJournal):
    """A run journal that also lists the keys appended to it, in order."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.appended_keys: list[str] = []

    def append(self, key: str, kind: str, value: object) -> bool:
        self.appended_keys.append(key)
        return super().append(key, kind, value)


class TestMapInOrder:
    SCOPE = {"experiment": "map"}

    @staticmethod
    def _record(example: Example, sql: str) -> PredictionRecord:
        return PredictionRecord(example=example, predicted_sql=sql, correct=True)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_half_journaled_list_comes_back_in_list_order(
        self, tmp_path, workers
    ):
        examples = [
            Example(f"ex{i}", "db", f"question {i}", f"SELECT {i}")
            for i in range(9)
        ]
        keys = [prediction_key(self.SCOPE, example) for example in examples]
        journal = _RecordingJournal(tmp_path)
        for example, key in zip(examples[::2], keys[::2]):
            journal.append(
                key, "prediction", prediction_to_dict(self._record(example, "kept"))
            )
        journal.appended_keys.clear()
        ran: list[str] = []

        def run_one(example: Example) -> PredictionRecord:
            ran.append(example.example_id)
            # Later items finish first when threads run them side by side.
            time.sleep(0.002 * (len(examples) - examples.index(example)))
            return self._record(example, "fresh")

        try:
            records = map_in_order(
                run_one, examples, workers, journal, "prediction", self.SCOPE
            )
        finally:
            journal.close()
        assert [record.example for record in records] == examples
        assert [record.predicted_sql for record in records] == [
            "kept", "fresh", "kept", "fresh", "kept", "fresh", "kept", "fresh", "kept",
        ]
        assert sorted(ran) == [example.example_id for example in examples[1::2]]
        assert journal.replayed == 5
        assert sorted(journal.appended_keys) == sorted(keys[1::2])
        if workers == 1:
            assert journal.appended_keys == keys[1::2]


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
        # Eight workers over three examples: one thread per example.
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
