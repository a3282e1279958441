"""The cached dispatch layer: canonical keys, the completion cache and its
chat-model wrapper."""

import sys
import threading
import time

import pytest

import repro.llm
from repro import obs
from repro.datasets.base import Demonstration
from repro.errors import TransientLLMError
from repro.llm.dispatch import (
    CachingChatModel,
    CompletionCache,
    canonical_prompt_key,
)
from repro.llm.interface import Completion, Prompt
from repro.llm.prompts import nl2sql_prompt
from repro.llm.simulated import SimulatedLLM
from repro.sql.schema import DatabaseSchema


@pytest.fixture(autouse=True)
def _obs_disabled_after_each_test():
    yield
    obs.disable()


class RecordingLLM:
    """A model that records every prompt it answers."""

    def __init__(self) -> None:
        self.seen = []

    def complete(self, prompt: Prompt) -> Completion:
        self.seen.append(prompt.text)
        return Completion(text=f"SQL({prompt.text})")


class FlakyLLM:
    """Fails every prompt whose text contains 'bad'."""

    def complete(self, prompt: Prompt) -> Completion:
        if "bad" in prompt.text:
            raise TransientLLMError(f"flaky: {prompt.text}")
        return Completion(text=prompt.text.upper())


class GatedLLM:
    """Holds every call until ``release`` is set; can fail its first."""

    def __init__(self, fail_first: bool = False) -> None:
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self._fail_first = fail_first
        self._lock = threading.Lock()

    def complete(self, prompt: Prompt) -> Completion:
        with self._lock:
            self.calls += 1
            call = self.calls
        self.entered.set()
        assert self.release.wait(timeout=10)
        if self._fail_first and call == 1:
            raise TransientLLMError("the first call fails")
        return Completion(text=f"SQL({prompt.text})", notes=["note"])


def _prompt(text: str, kind: str = "nl2sql", **payload) -> Prompt:
    return Prompt(kind=kind, text=text, payload=payload)


class TestCanonicalPromptKey:
    def test_deterministic(self):
        a = _prompt("q", question="q", n=1)
        b = _prompt("q", question="q", n=1)
        assert canonical_prompt_key(a) == canonical_prompt_key(b)

    def test_text_and_kind_matter(self):
        base = canonical_prompt_key(_prompt("q"))
        assert canonical_prompt_key(_prompt("other")) != base
        assert canonical_prompt_key(_prompt("q", kind="feedback")) != base

    def test_payload_scalars_matter_even_outside_text(self):
        # context_key/feedback_type influence the simulated editor but are
        # not part of the rendered text — the key must separate them.
        a = _prompt("same text", context_key="chat:1")
        b = _prompt("same text", context_key="chat:3")
        assert canonical_prompt_key(a) != canonical_prompt_key(b)

    def test_demo_glossary_matters(self, music_db):
        demo_plain = Demonstration(question="q", sql="SELECT 1", db_id="db")
        demo_glossed = Demonstration(
            question="q",
            sql="SELECT 1",
            db_id="db",
            glossary={"audience": "segments"},
        )
        a = nl2sql_prompt(music_db.schema, "how many?", demos=[demo_plain])
        b = nl2sql_prompt(music_db.schema, "how many?", demos=[demo_glossed])
        assert a.text == b.text  # glossary is invisible in the rendering...
        assert canonical_prompt_key(a) != canonical_prompt_key(b)

    def test_schema_objects_hash_by_name(self, music_db):
        prompt = nl2sql_prompt(music_db.schema, "how many singers?")
        assert isinstance(prompt.payload["schema"], DatabaseSchema)
        key = canonical_prompt_key(prompt)
        assert key == canonical_prompt_key(
            nl2sql_prompt(music_db.schema, "how many singers?")
        )


class TestBatchAdapters:
    """``SimulatedLLM.complete_batch`` stays because fisqlbench's layer
    timer patches it by name; nothing in the program calls it."""

    def test_simulated_native_batch_matches_sequential(self, music_db):
        prompts = [
            nl2sql_prompt(music_db.schema, "how many singers?"),
            nl2sql_prompt(music_db.schema, "list all songs"),
        ]
        sequential = [SimulatedLLM().complete(p).text for p in prompts]
        batched = [c.text for c in SimulatedLLM().complete_batch(prompts)]
        assert batched == sequential


class TestCompletionCache:
    def test_get_put_roundtrip(self):
        cache = CompletionCache()
        cache.put("k", Completion(text="SELECT 1", notes=["n"]))
        hit = cache.get("k")
        assert hit.text == "SELECT 1" and hit.notes == ["n"]
        # Mutating the returned completion must not poison the cache.
        hit.notes.append("mutated")
        assert cache.get("k").notes == ["n"]

    def test_hit_miss_stats(self):
        cache = CompletionCache()
        assert cache.get("missing") is None
        cache.put("k", Completion(text="x"))
        cache.get("k")
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_persistence_roundtrip(self, tmp_path):
        cache = CompletionCache()
        cache.put("k1", Completion(text="SELECT 1", notes=["a", "b"]))
        cache.put("k2", Completion(text="SELECT 2"))
        assert cache.save(tmp_path) == 2

        warmed = CompletionCache.load(tmp_path)
        assert len(warmed) == 2
        assert warmed.loaded == 2
        assert warmed.get("k1").notes == ["a", "b"]

    def test_save_is_canonical_bytes(self, tmp_path):
        a, b = CompletionCache(), CompletionCache()
        for cache in (a, b):
            cache.put("k2", Completion(text="two"))
            cache.put("k1", Completion(text="one"))
        a.save(tmp_path / "a")
        b.save(tmp_path / "b")
        assert (tmp_path / "a" / "completions.json").read_bytes() == (
            tmp_path / "b" / "completions.json"
        ).read_bytes()

    def test_corrupt_file_degrades_to_cold(self, tmp_path):
        (tmp_path / "completions.json").write_text("{not json", encoding="utf-8")
        assert len(CompletionCache.load(tmp_path)) == 0

    def test_corrupt_file_is_quarantined_then_rewritable(self, tmp_path):
        (tmp_path / "completions.json").write_text("{not json", encoding="utf-8")
        cache = CompletionCache.load(tmp_path)
        # The torn file moved aside as evidence; a fresh save works.
        assert (tmp_path / "completions.json.corrupt").exists()
        cache.put("k", Completion(text="x"))
        cache.save(tmp_path)
        assert len(CompletionCache.load(tmp_path)) == 1

    def test_missing_directory_degrades_to_cold(self, tmp_path):
        assert len(CompletionCache.load(tmp_path / "nope")) == 0

    def test_save_survives_partial_writer_crash(self, tmp_path):
        # Atomic replace: a pre-existing cache plus a leftover temp file
        # from a crashed writer must load the old (complete) contents.
        cache = CompletionCache()
        cache.put("k", Completion(text="old"))
        cache.save(tmp_path)
        (tmp_path / ".completions.json.tmp.999").write_text("{torn", encoding="utf-8")
        assert CompletionCache.load(tmp_path).get("k").text == "old"


class TestCompletionCacheLRU:
    def test_eviction_over_cap(self):
        cache = CompletionCache(max_entries=2)
        cache.put("a", Completion(text="1"))
        cache.put("b", Completion(text="2"))
        cache.put("c", Completion(text="3"))
        assert len(cache) == 2
        assert cache.get("a") is None  # the oldest went first
        assert cache.get("c").text == "3"
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = CompletionCache(max_entries=2)
        cache.put("a", Completion(text="1"))
        cache.put("b", Completion(text="2"))
        cache.get("a")  # now "b" is least recent
        cache.put("c", Completion(text="3"))
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_put_refreshes_recency(self):
        cache = CompletionCache(max_entries=2)
        cache.put("a", Completion(text="1"))
        cache.put("b", Completion(text="2"))
        cache.put("a", Completion(text="1*"))
        cache.put("c", Completion(text="3"))
        assert cache.get("a").text == "1*"
        assert cache.get("b") is None

    def test_clear_reports_dropped(self):
        cache = CompletionCache()
        cache.put("a", Completion(text="1"))
        cache.put("b", Completion(text="2"))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_stats_include_cap_and_evictions(self):
        cache = CompletionCache(max_entries=1)
        cache.put("a", Completion(text="1"))
        cache.put("b", Completion(text="2"))
        stats = cache.stats()
        assert stats["max_entries"] == 1
        assert stats["evictions"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionCache(max_entries=0)


class TestCachingChatModel:
    def test_second_call_hits(self):
        inner = RecordingLLM()
        model = CachingChatModel(inner)
        prompt = _prompt("q")
        first = model.complete(prompt)
        second = model.complete(prompt)
        assert first.text == second.text
        assert len(inner.seen) == 1

    def test_counters_by_kind(self):
        obs.enable()
        model = CachingChatModel(RecordingLLM())
        model.complete(_prompt("q"))
        model.complete(_prompt("q"))
        metrics = obs.get_metrics()
        assert metrics.counter_value("cache.miss", kind="nl2sql") == 1
        assert metrics.counter_value("cache.hit", kind="nl2sql") == 1

    def test_errors_are_not_cached(self):
        model = CachingChatModel(FlakyLLM())
        with pytest.raises(TransientLLMError):
            model.complete(_prompt("bad"))
        assert len(model.cache) == 0
        # A later fixed backend is consulted again, not the error replayed.
        assert model.cache.get(canonical_prompt_key(_prompt("bad"))) is None


class TestSingleFlight:
    """Concurrent misses on one prompt share one backend call."""

    @staticmethod
    def _two_misses(model, inner):
        """Start two callers of one prompt, the second once the first is
        inside the backend; release the backend once both missed."""
        results: dict = {}

        def call(name):
            try:
                results[name] = model.complete(_prompt("q"))
            except TransientLLMError as error:
                results[name] = error

        first = threading.Thread(target=call, args=("first",))
        first.start()
        assert inner.entered.wait(timeout=10)
        second = threading.Thread(target=call, args=("second",))
        second.start()
        deadline = time.monotonic() + 10
        while model.cache.stats()["misses"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        inner.release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        return results

    def test_concurrent_misses_make_one_backend_call(self):
        obs.enable()
        inner = GatedLLM()
        model = CachingChatModel(inner)
        results = self._two_misses(model, inner)
        assert inner.calls == 1
        first, second = results["first"], results["second"]
        assert first == second == Completion(text="SQL(q)", notes=["note"])
        assert first is not second and first.notes is not second.notes
        # The waiter counts as the miss it was.
        stats = model.cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)
        metrics = obs.get_metrics()
        assert metrics.counter_value("cache.miss", kind="nl2sql") == 2

    def test_a_waiter_calls_the_backend_when_the_leader_raises(self):
        inner = GatedLLM(fail_first=True)
        model = CachingChatModel(inner)
        results = self._two_misses(model, inner)
        assert isinstance(results["first"], TransientLLMError)
        assert results["second"] == Completion(text="SQL(q)", notes=["note"])
        assert inner.calls == 2
        # The waiter's own answer is cached; the error never was.
        assert model.complete(_prompt("q")) == results["second"]
        assert inner.calls == 2

    def test_many_threads_call_the_backend_once_per_prompt(self):
        """More threads than cores, switching often: every prompt is
        answered by exactly one backend call, and every lookup counts."""
        calls: dict = {}
        lock = threading.Lock()

        class CountingLLM:
            def complete(self, prompt: Prompt) -> Completion:
                with lock:
                    calls[prompt.text] = calls.get(prompt.text, 0) + 1
                time.sleep(0.001)  # a backend that waits
                return Completion(text=f"SQL({prompt.text})")

        model = CachingChatModel(CountingLLM())
        texts = [f"q{index}" for index in range(5)]
        wrong: list = []

        def worker():
            for _ in range(20):
                for text in texts:
                    if model.complete(_prompt(text)).text != f"SQL({text})":
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert calls == {text: 1 for text in texts}
        stats = model.cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 20 * len(texts)


def test_batch_names_are_not_exported():
    """Every model answers one prompt at a time: no batch adapters or
    coalescer are left in the package surface."""
    for name in ("BatchingChatModel", "complete_batch", "settle_batch"):
        assert not hasattr(repro.llm, name)
        assert name not in repro.llm.__all__
