"""RAG demonstration retriever tests."""

import gc
import sys
import threading
import weakref

import pytest

from repro import obs
from repro.core import retrieval
from repro.core.retrieval import RETRIEVAL_MEMO_SIZE, DemonstrationRetriever
from repro.datasets.base import Demonstration


def demo(question, db_id="db1", glossary=None):
    return Demonstration(
        question=question, sql="SELECT 1", db_id=db_id, glossary=glossary or {}
    )


POOL = [
    demo("How many singers are there?"),
    demo("List the names of all songs."),
    demo("What is the average age of the singers?"),
    demo("How many live destinations are there?", db_id="aep"),
    demo("How many stadiums are in the city?"),
    demo("List the names of the first 5 cars by price."),
]


class TestRetrieval:
    def test_top_k_size(self):
        retriever = DemonstrationRetriever(POOL, top_k=3)
        assert len(retriever.retrieve("how many singers exist")) == 3

    def test_most_similar_first(self):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        results = retriever.retrieve("How many singers are there?")
        assert results[0].question == "How many singers are there?"

    def test_db_preference(self):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        results = retriever.retrieve("How many destinations are there?", db_id="aep")
        assert results[0].db_id == "aep"

    def test_empty_pool(self):
        retriever = DemonstrationRetriever([], top_k=3)
        assert retriever.retrieve("anything") == []
        assert len(retriever) == 0

    def test_phrasing_convention_demo_retrieved(self):
        """Trapped phrasings share distinctive tokens with their demos —
        the mechanism behind RAG fixing convention traps."""
        retriever = DemonstrationRetriever(POOL, top_k=2)
        results = retriever.retrieve("List the names of the first 3 boats by size.")
        assert any("first 5 cars" in d.question for d in results)


class TestRetrievalMemo:
    """Each (question, db_id) pair is ranked once per retriever."""

    @pytest.fixture()
    def counters(self):
        obs.enable(max_spans=0)
        try:
            yield lambda: {
                name: obs.get_metrics().counter_total(name)
                for name in ("retrieval.calls", "retrieval.misses")
            }
        finally:
            obs.disable()

    def test_equal_question_ranks_once_and_every_call_counts(self, counters):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        answers = [retriever.retrieve("how many singers exist") for _ in range(3)]
        assert answers[0] == answers[1] == answers[2]
        assert counters() == {"retrieval.calls": 3, "retrieval.misses": 1}
        spans = {span["name"]: span for span in obs.snapshot()["spans"]}
        assert spans["retrieval.retrieve"]["count"] == 3

    def test_each_call_gets_a_list_of_its_own(self):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        first = retriever.retrieve("how many singers exist")
        expected = list(first)
        first.append(demo("appended by a caller"))
        first.reverse()
        assert retriever.retrieve("how many singers exist") == expected

    def test_the_database_is_part_of_the_key(self):
        retriever = DemonstrationRetriever(POOL, top_k=1)
        question = "How many destinations are there?"
        assert retriever.retrieve(question, db_id="aep")[0].db_id == "aep"
        assert retriever.retrieve(question, db_id="db1")[0].db_id == "db1"

    def test_the_memo_keeps_at_most_its_size(self, counters):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        questions = [f"singers number {i}" for i in range(RETRIEVAL_MEMO_SIZE + 1)]
        for question in questions:
            retriever.retrieve(question)
        assert retriever._rank.cache_info().currsize == RETRIEVAL_MEMO_SIZE
        retriever.retrieve(questions[-1])
        assert counters()["retrieval.misses"] == RETRIEVAL_MEMO_SIZE + 1
        retriever.retrieve(questions[0])
        assert counters()["retrieval.misses"] == RETRIEVAL_MEMO_SIZE + 2

    def test_threads_racing_over_a_small_memo_get_the_ranked_answers(
        self, monkeypatch
    ):
        # Evictions on nearly every miss, so a reader often finds its
        # key gone between looking it up and marking it used.
        monkeypatch.setattr(retrieval, "RETRIEVAL_MEMO_SIZE", 2)
        questions = [f"how many singers in city {i}" for i in range(6)]
        reference = DemonstrationRetriever(POOL, top_k=2)
        expected = {question: reference.retrieve(question) for question in questions}
        shared = DemonstrationRetriever(POOL, top_k=2)
        problems: list[str] = []

        def reader(offset: int) -> None:
            try:
                for step in range(2000):
                    question = questions[(offset + step) % len(questions)]
                    if shared.retrieve(question) != expected[question]:
                        problems.append(question)
            except Exception as error:  # surfaced by the assertion below
                problems.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert shared._rank.cache_info().currsize <= 2


def test_a_dropped_retriever_is_freed_without_the_cyclic_collector():
    # Each sweep context builds its own retrievers, with their TF-IDF
    # matrices; a memo that held its retriever would keep every dropped
    # one alive until the cyclic collector ran.
    retriever = DemonstrationRetriever(POOL, top_k=2)
    retriever.retrieve("how many singers exist")
    dropped = weakref.ref(retriever)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del retriever
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()
