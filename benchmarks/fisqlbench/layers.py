"""Per-layer self time, measured from outside the program.

A :class:`LayerTimer` replaces each layer's public functions with timing
wrappers. Every thread keeps a stack of open calls; when a call returns,
its inclusive time is added to the enclosing call's child time, so a
layer's *self* time is its inclusive time minus the time spent in other
wrapped calls beneath it. Self times therefore add up to at most the wall
time the wrapped calls cover, and recursion is not double counted.

Methods are patched on their class. A free function is rebound in its own
module *and* in every loaded ``repro`` module that holds the same object,
because ``from repro.sql.parser import parse_query`` copies the reference
into the importing module; modules imported after installation copy the
wrapper from the patched source module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import threading
import time
from typing import Callable, Optional

#: (layer, module, attribute) triples. ``Class.*`` wraps every public
#: method of the class; ``Class.record_*`` every public method with that
#: prefix. The layer names mirror the program's package layout.
TARGETS: tuple = (
    ("datasets.generate", "repro.datasets.spider", "generate_spider_suite"),
    ("datasets.generate", "repro.datasets.aep", "generate_aep_suite"),
    ("sql.storage.insert", "repro.sql.storage", "TableData.insert"),
    ("sql.storage.insert", "repro.sql.storage", "TableData.insert_named"),
    ("nlp.similarity", "repro.nlp.similarity", "string_similarity"),
    ("core.linking", "repro.core.linking", "SchemaLinker.*"),
    ("core.semparse", "repro.core.semparse", "SemanticParser.parse"),
    ("llm.simulated", "repro.llm.simulated", "SimulatedLLM.complete"),
    ("llm.simulated", "repro.llm.simulated", "SimulatedLLM.complete_batch"),
    ("llm.prompts", "repro.llm.prompts", "nl2sql_prompt"),
    ("llm.prompts", "repro.llm.prompts", "feedback_prompt"),
    ("core.retrieval", "repro.core.retrieval", "DemonstrationRetriever.retrieve"),
    ("core.assistant", "repro.core.assistant", "Assistant.answer"),
    ("core.assistant", "repro.core.explain", "explanation_text"),
    ("core.editor", "repro.core.editor", "FeedbackEditor.interpret"),
    ("core.editor", "repro.core.editor", "FeedbackEditor.apply"),
    ("core.routing", "repro.core.routing", "classify_feedback"),
    ("core.user", "repro.core.user", "SimulatedAnnotator.can_annotate"),
    ("core.user", "repro.core.user", "SimulatedAnnotator.give_feedback"),
    ("sql.parse", "repro.sql.parser", "parse_query"),
    ("sql.parse", "repro.sql.parser", "parse_statement"),
    ("sql.execute", "repro.sql.engine", "Database.execute_ast"),
    ("sql.print", "repro.sql.printer", "print_query"),
    ("sql.compare", "repro.sql.comparison", "results_match"),
    ("llm.dispatch", "repro.llm.dispatch", "CompletionCache.get"),
    ("llm.dispatch", "repro.llm.dispatch", "CompletionCache.put"),
    ("semcache", "repro.semcache.store", "SemanticAnswerCache.lookup"),
    ("semcache", "repro.semcache.store", "SemanticAnswerCache.store"),
    ("serve.app", "repro.serve.server", "ServeApp.handle_request"),
    ("serve.sessions", "repro.serve.sessions", "SessionManager.create"),
    ("serve.sessions", "repro.serve.sessions", "SessionManager.acquire"),
    ("serve.sessions", "repro.serve.sessions", "SessionManager.remove"),
    ("serve.protocol", "repro.serve.protocol", "json_encode"),
    ("serve.protocol", "repro.serve.protocol", "json_decode"),
    ("serve.protocol", "repro.serve.protocol", "answer_view"),
    ("obs", "repro.obs.telemetry", "TelemetryHub.record_*"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.count"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.observe"),
)

#: Every layer :data:`TARGETS` names, in table order.
LAYERS: tuple = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

_ROUTE_PATTERNS = (
    (re.compile(r"^/sessions/[^/]+/(ask|feedback|transcript)$"), None),
    (re.compile(r"^/sessions/[^/]+$"), "session"),
    (re.compile(r"^/(sessions|healthz|readyz|metrics|statusz)$"), None),
)


def route_of(path: str) -> str:
    """The serve route a request path addresses (``unknown`` otherwise)."""
    for pattern, name in _ROUTE_PATTERNS:
        match = pattern.match(path)
        if match:
            return name or match.group(1)
    return "unknown"


def _new_row() -> list:
    # calls, self seconds, failures, hits, lookups
    return [0, 0.0, 0, 0, 0]


class LayerTimer:
    """Wraps layer functions and accumulates calls and self time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._installed: list[tuple] = []
        #: Inclusive ``ServeApp.handle_request`` time per ``X-Request-Id``.
        self.request_ms: dict[str, float] = {}

    # -- accounting --------------------------------------------------------

    def _thread_state(self) -> tuple:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def wrap(
        self,
        layer,
        fn: Callable,
        on_return: Optional[Callable] = None,
        counted: bool = True,
    ) -> Callable:
        """A timing wrapper of ``fn`` charged to ``layer``.

        ``layer`` is a name, or a function of the call's positional
        arguments that returns one. ``on_return(row, args, kwargs, result,
        elapsed_s)`` sees every call that returned normally.
        """
        clock = self._clock
        state = self._thread_state

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, table = state()
            name = layer(args) if callable(layer) else layer
            stack.append(0.0)
            start = clock()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table.get(name)
                if row is None:
                    row = table[name] = _new_row()
                if counted:
                    row[0] += 1
                row[1] += elapsed - children
                if failed:
                    row[2] += 1
                elif on_return is not None:
                    on_return(row, args, kwargs, result, elapsed)

        return timed

    def wrap_context(self, layer: str, fn: Callable) -> Callable:
        """Wrap a context-manager factory: time its enter and exit."""
        enter = self.wrap(layer, lambda manager: manager.__enter__())
        leave = self.wrap(
            layer, lambda manager, *exc: manager.__exit__(*exc), counted=False
        )

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return _TimedContext(fn(*args, **kwargs), enter, leave)

        return timed

    def snapshot(self) -> dict[str, dict]:
        """Per-layer totals over every thread, in milliseconds."""
        with self._lock:
            tables = list(self._tables)
        merged: dict[str, list] = {}
        for table in tables:
            for name, row in list(table.items()):
                total = merged.setdefault(name, _new_row())
                for index, value in enumerate(row):
                    total[index] += value
        return {
            name: {
                "calls": row[0],
                "self_ms": row[1] * 1000.0,
                "failures": row[2],
                "hits": row[3],
                "lookups": row[4],
            }
            for name, row in merged.items()
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for layer, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." not in attribute:
                original = getattr(module, attribute)
                self._rebind(original, self.wrap(layer, original))
                continue
            class_name, pattern = attribute.split(".", 1)
            owner = getattr(module, class_name)
            for name in _methods(owner, pattern):
                raw = vars(owner)[name]
                static = isinstance(raw, staticmethod)
                wrapper = self._wrap_method(
                    layer, f"{class_name}.{name}", raw.__func__ if static else raw
                )
                setattr(owner, name, staticmethod(wrapper) if static else wrapper)
                self._installed.append((owner, name, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", None) or ""
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._installed.append((module, name, original))

    def _wrap_method(self, layer: str, qualname: str, function: Callable):
        if qualname == "SessionManager.acquire":
            return self.wrap_context(layer, function)
        if qualname == "ServeApp.handle_request":
            return self.wrap(
                lambda args: f"{layer}.{route_of(args[2])}", function, self._join
            )
        if qualname == "CompletionCache.get":
            hit = _count_lookup(lambda result: result is not None)
            return self.wrap(layer, function, hit)
        if qualname == "SemanticAnswerCache.lookup":
            hit = _count_lookup(lambda result: result.outcome == "hit")
            return self.wrap(layer, function, hit)
        return self.wrap(layer, function)

    def _join(self, row, args, kwargs, result, elapsed) -> None:
        headers = kwargs.get("headers") or (args[4] if len(args) > 4 else None)
        for key, value in (headers or {}).items():
            if key.lower() == "x-request-id":
                self.request_ms[str(value)] = elapsed * 1000.0
                return


def _count_lookup(is_hit: Callable) -> Callable:
    def on_return(row, args, kwargs, result, elapsed) -> None:
        row[4] += 1
        if is_hit(result):
            row[3] += 1

    return on_return


class _TimedContext:
    __slots__ = ("_manager", "_enter", "_exit")

    def __init__(self, manager, enter: Callable, leave: Callable) -> None:
        self._manager = manager
        self._enter = enter
        self._exit = leave

    def __enter__(self):
        return self._enter(self._manager)

    def __exit__(self, *exc):
        return self._exit(self._manager, *exc)


def _methods(owner: type, pattern: str) -> list[str]:
    """Names in ``owner.__dict__`` that ``pattern`` selects."""
    if not pattern.endswith("*"):
        return [pattern]
    prefix = pattern[:-1]
    return [
        name
        for name, raw in vars(owner).items()
        if name.startswith(prefix)
        and not name.startswith("_")
        and (inspect.isfunction(raw) or isinstance(raw, staticmethod))
    ]
