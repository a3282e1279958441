"""Experiment harness: shared context construction and caching.

Building the full SPIDER-like suite and running the Assistant over the
1034-question dev split is the expensive part of every experiment, so the
harness builds it once per (scale, seed) and caches it in-process.

A context also runs once what two artifacts share: each dataset's error
set, annotator and retriever, each round's feedback, each feedback
text's route, and one FISQL pipeline per (dataset, routing,
highlights), whose rounds Table 2, Figure 8 and Table 3 reuse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.core.feedback import Feedback
from repro.core.nl2sql import Nl2SqlModel
from repro.core.retrieval import DemonstrationRetriever
from repro.core.routing import FeedbackRouter
from repro.core.session import FisqlPipeline
from repro.core.user import AnnotatorConfig, SimulatedAnnotator
from repro.datasets.base import (
    Benchmark,
    Demonstration,
    demonstrations_from_examples,
)
from repro.datasets.aep import generate_aep_suite
from repro.datasets.spider import SpiderSuite, generate_spider_suite
from repro.durability import (
    RunJournal,
    load_suites,
    save_suites,
    suite_path,
)
from repro.eval.metrics import AccuracyReport, PredictionRecord, evaluate_model
from repro.llm.interface import ChatModel
from repro.llm.simulated import SimulatedLLM
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.sql.printer import print_select

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.semcache.store import SemanticAnswerCache

#: Scales: full reproduces the paper's sizes; small keeps tests fast.
SCALES = {
    "full": {"n_databases": 200, "n_dev": 1034, "n_train": 600, "aep_questions": 110},
    "medium": {"n_databases": 60, "n_dev": 320, "n_train": 220, "aep_questions": 100},
    "small": {"n_databases": 24, "n_dev": 120, "n_train": 90, "aep_questions": 60},
}

#: Annotator imperfection rates per dataset (see DESIGN.md calibration).
SPIDER_ANNOTATOR = AnnotatorConfig(
    annotate_rate=0.34, vague_rate=0.02, misaligned_rate=0.36
)
AEP_ANNOTATOR = AnnotatorConfig(
    annotate_rate=1.0, vague_rate=0.26, misaligned_rate=0.14
)


@dataclass
class ExperimentContext:
    """Everything the per-table/figure experiments share."""

    scale: str
    seed: int
    spider: SpiderSuite
    aep_benchmark: Benchmark
    aep_demos: list[Demonstration]
    llm: ChatModel = field(default_factory=SimulatedLLM)
    #: Evaluation parallelism: worker threads for each sweep
    #: (:func:`~repro.eval.metrics.map_in_order`). The default is the
    #: sequential seed path.
    workers: int = 1
    #: Write-ahead journal for resumable sweeps (None = not journaling).
    journal: Optional[RunJournal] = None
    #: Semantic answer cache wrapped over every model the context builds
    #: (None = off; the default, which keeps artifacts byte-identical).
    semcache: Optional["SemanticAnswerCache"] = None
    _spider_retriever: Optional[DemonstrationRetriever] = None
    _aep_retriever: Optional[DemonstrationRetriever] = None
    _assistant_reports: dict = field(default_factory=dict)
    _annotators: dict = field(default_factory=dict)
    _error_sets: dict = field(default_factory=dict)
    _pipelines: dict = field(default_factory=dict)
    _router: Optional[FeedbackRouter] = None

    # -- models -----------------------------------------------------------------

    def _wrap(self, model: Nl2SqlModel):
        """Put the semantic answer cache (when enabled) above the model."""
        if self.semcache is None:
            return model
        from repro.semcache.model import SemanticCachingNl2SqlModel

        return SemanticCachingNl2SqlModel(model, self.semcache, tenant="run")

    def zero_shot_model(self):
        """The Figure 1 setup: schema only, no demonstrations."""
        return self._wrap(Nl2SqlModel(llm=self.llm, retriever=None))

    def spider_assistant_model(self):
        """The Assistant's RAG pipeline over the SPIDER train pool."""
        if self._spider_retriever is None:
            demos = demonstrations_from_examples(self.spider.train_examples)
            self._spider_retriever = DemonstrationRetriever(demos, top_k=4)
        return self._wrap(
            Nl2SqlModel(llm=self.llm, retriever=self._spider_retriever)
        )

    def aep_assistant_model(self):
        """The Assistant's RAG pipeline over the in-house AEP demos."""
        if self._aep_retriever is None:
            self._aep_retriever = DemonstrationRetriever(self.aep_demos, top_k=4)
        return self._wrap(
            Nl2SqlModel(llm=self.llm, retriever=self._aep_retriever)
        )

    def assistant_model(self, dataset: str):
        """The Assistant's RAG pipeline for a dataset."""
        if dataset == "spider":
            return self.spider_assistant_model()
        if dataset == "aep":
            return self.aep_assistant_model()
        raise ValueError(f"unknown dataset {dataset!r}")

    # -- journaling -------------------------------------------------------------

    def scope(self, model: str, dataset: str) -> dict:
        """The journal-key namespace for one (model, dataset) evaluation.

        The parallelism knob (``workers``) is deliberately excluded: it
        does not change results, so a sweep journaled at one parallelism
        resumes cleanly at another.
        """
        return {
            "scale": self.scale,
            "seed": self.seed,
            "model": model,
            "dataset": dataset,
        }

    def eval_kwargs(self, model: str, dataset: str) -> dict:
        """The full ``evaluate_model`` parallelism/journal kwargs."""
        return {
            "workers": self.workers,
            "journal": self.journal,
            "scope": self.scope(model, dataset),
        }

    # -- assistant error sets -------------------------------------------------------

    def assistant_report(self, dataset: str) -> AccuracyReport:
        """Assistant predictions over a dataset's dev questions (cached)."""
        if dataset not in self._assistant_reports:
            self._assistant_reports[dataset] = evaluate_model(
                self.assistant_model(dataset),
                self.benchmark(dataset),
                **self.eval_kwargs("assistant", dataset),
            )
        return self._assistant_reports[dataset]

    def benchmark(self, dataset: str) -> Benchmark:
        if dataset == "spider":
            return self.spider.benchmark
        if dataset == "aep":
            return self.aep_benchmark
        raise ValueError(f"unknown dataset {dataset!r}")

    def annotator_for(self, dataset: str) -> SimulatedAnnotator:
        """A dataset-appropriate simulated annotator (shared across methods).

        One per dataset and context: FISQL rounds are keyed by their
        annotator, so artifacts share rounds only through this one.
        """
        if dataset not in self._annotators:
            benchmark = self.benchmark(dataset)
            # All databases in a benchmark share naming conventions; the
            # annotator needs a schema for NL column names, chosen per
            # example.
            config = SPIDER_ANNOTATOR if dataset == "spider" else AEP_ANNOTATOR
            self._annotators[dataset] = _MultiDbAnnotator(benchmark, config)
        return self._annotators[dataset]

    def fisql_pipeline(
        self, dataset: str, routing: bool, highlights: bool
    ) -> FisqlPipeline:
        """The context's FISQL pipeline for one configuration (cached).

        Artifacts that correct with the same configuration share it, and
        so reuse each other's rounds. Every pipeline routes through the
        context's one router, so each feedback text is routed once.
        """
        key = (dataset, routing, highlights)
        if key not in self._pipelines:
            if self._router is None:
                self._router = FeedbackRouter(self.llm)
            self._pipelines[key] = FisqlPipeline(
                model=self.assistant_model(dataset),
                llm=self.llm,
                routing=routing,
                highlights=highlights,
                router=self._router,
            )
        return self._pipelines[key]

    def error_set(self, dataset: str) -> list[PredictionRecord]:
        """The *annotated* error set used by the correction experiments.

        Mirrors the paper's protocol: take the Assistant's errors, keep the
        ones the annotator can write feedback for (101 of 243 on SPIDER).
        Computed once per dataset; each call gets a list of its own.
        """
        if dataset not in self._error_sets:
            report = self.assistant_report(dataset)
            annotator = self.annotator_for(dataset)
            annotated = []
            for record in report.errors():
                gold = parse_select(record.example.gold_sql)
                predicted = parse_select(record.predicted_sql)
                if gold is None or predicted is None:
                    continue
                if annotator.can_annotate(
                    record.example.example_id, gold, predicted
                ):
                    annotated.append(record)
            self._error_sets[dataset] = annotated
        return list(self._error_sets[dataset])


class _MultiDbAnnotator:
    """Annotator facade that picks the right schema per example.

    It gives each round's feedback once. Query Rewrite and every FISQL
    pipeline of a context ask for the same first-round feedback on the
    same prediction, and feedback is a pure function of the example, the
    two queries, the round and the highlight switch. The queries are
    keyed by their printed text, not their trees, since
    ``Literal(7) == Literal(7.0)``. Feedback is frozen, so every caller
    shares one answer.
    """

    def __init__(self, benchmark: Benchmark, config: AnnotatorConfig) -> None:
        self._benchmark = benchmark
        self._config = config
        self._lock = threading.Lock()
        self._per_db: dict[str, SimulatedAnnotator] = {}
        self._given: dict[tuple, Optional[Feedback]] = {}
        self._example_db: dict[str, str] = {
            example.example_id: example.db_id
            for example in benchmark.examples
        }

    def _annotator(self, example_id: str) -> SimulatedAnnotator:
        try:
            db_id = self._example_db[example_id]
        except KeyError:
            raise ValueError(
                f"unknown example_id {example_id!r}: not part of benchmark "
                f"{self._benchmark.name!r}"
            ) from None
        # Worker threads share one facade; the per-db annotators themselves
        # are stateless per call.
        with self._lock:
            if db_id not in self._per_db:
                schema = self._benchmark.database(db_id).schema
                self._per_db[db_id] = SimulatedAnnotator(schema, self._config)
            return self._per_db[db_id]

    def can_annotate(self, example_id, gold, predicted):
        return self._annotator(example_id).can_annotate(
            example_id, gold, predicted
        )

    def give_feedback(
        self,
        example_id: str,
        question: str,
        gold: ast.Select,
        predicted: ast.Select,
        round_index: int = 0,
        use_highlights: bool = False,
    ) -> Optional[Feedback]:
        annotator = self._annotator(example_id)
        key = (
            example_id,
            question,
            print_select(gold),
            print_select(predicted),
            round_index,
            use_highlights,
        )
        with self._lock:
            if key in self._given:
                return self._given[key]
        feedback = annotator.give_feedback(
            example_id=example_id,
            question=question,
            gold=gold,
            predicted=predicted,
            round_index=round_index,
            use_highlights=use_highlights,
        )
        with self._lock:
            self._given[key] = feedback
        return feedback


_CONTEXT_CACHE: dict[tuple[str, int], ExperimentContext] = {}


def build_context(
    scale: str = "full",
    seed: int = 20250325,
    llm: Optional[ChatModel] = None,
    workers: int = 1,
    journal: Optional[RunJournal] = None,
    suite_dir: Optional[str] = None,
    semcache: "Optional[SemanticAnswerCache]" = None,
) -> ExperimentContext:
    """Build (or fetch the cached) experiment context.

    ``llm`` swaps the context's chat model — the chaos CLI passes a
    fault-injecting/resilient wrapper stack here. Contexts with a custom
    model are never cached: wrapper state (fault plans, breaker state)
    must not leak into later fault-free runs. ``workers`` configures
    evaluation parallelism; a non-default value likewise gets a fresh
    (uncached) context so the pristine sequential one stays pristine,
    and so do a ``journal`` (per-run resume state) and a ``semcache``
    (cross-request answer store wrapped over every model the context
    builds).

    ``suite_dir`` enables suite persistence: a previously saved
    ``(scale, seed)`` suite loads instead of regenerating (suites are pure
    functions of scale+seed, so the loaded environment is identical), and
    a cache miss generates then saves for the next start.

    Raises:
        ValueError: when ``scale`` is not one of :data:`SCALES`.
    """
    if scale not in SCALES:
        valid = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown scale {scale!r}; valid scales: {valid}")
    pristine = (
        llm is None
        and workers == 1
        and journal is None
        and semcache is None
    )
    key = (scale, seed)
    if key in _CONTEXT_CACHE:
        cached = _CONTEXT_CACHE[key]
        # A suite_dir promises the file exists after the run even when the
        # suites came from this process's memory cache — the point is the
        # *next* process's warm start.
        if suite_dir is not None and not suite_path(
            suite_dir, scale, seed
        ).exists():
            save_suites(
                suite_dir,
                scale,
                seed,
                cached.spider,
                cached.aep_benchmark,
                cached.aep_demos,
            )
        if pristine:
            return cached
        # Suites are llm-independent and read-only: share them, but give
        # the custom model a fresh context (fresh retrievers/report cache).
        return ExperimentContext(
            scale=scale,
            seed=seed,
            spider=cached.spider,
            aep_benchmark=cached.aep_benchmark,
            aep_demos=cached.aep_demos,
            llm=llm if llm is not None else cached.llm,
            workers=workers,
            journal=journal,
            semcache=semcache,
        )
    params = SCALES[scale]
    with obs.span("harness.build_context", scale=scale, seed=seed):
        loaded = None
        if suite_dir is not None:
            with obs.timer("harness.suite_load_ms", scale=scale):
                loaded = load_suites(suite_dir, scale, seed)
        if loaded is not None:
            spider, aep_benchmark, aep_demos = loaded
        else:
            with obs.timer("harness.suite_build_ms", suite="spider"), obs.span(
                "harness.spider_suite", n_databases=params["n_databases"]
            ):
                spider = generate_spider_suite(
                    seed=seed,
                    n_databases=params["n_databases"],
                    n_dev=params["n_dev"],
                    n_train=params["n_train"],
                )
            with obs.timer("harness.suite_build_ms", suite="aep"), obs.span(
                "harness.aep_suite", n_questions=params["aep_questions"]
            ):
                aep_benchmark, aep_demos = generate_aep_suite(
                    n_questions=params["aep_questions"]
                )
            if suite_dir is not None:
                save_suites(
                    suite_dir, scale, seed, spider, aep_benchmark, aep_demos
                )
        obs.count("harness.contexts_built", scale=scale)
        context = ExperimentContext(
            scale=scale,
            seed=seed,
            spider=spider,
            aep_benchmark=aep_benchmark,
            aep_demos=aep_demos,
        )
        if llm is not None:
            context.llm = llm
        context.workers = workers
        context.journal = journal
        context.semcache = semcache
    if pristine:
        _CONTEXT_CACHE[key] = context
    return context
