"""Self-time arithmetic and wrapper installation of :mod:`.layers`."""

from __future__ import annotations

import importlib
import threading

import pytest

from benchmarks.fisqlbench import require_source
from benchmarks.fisqlbench.layers import LayerTimer, route_of

require_source()


class FakeClock:
    """A clock that only moves when a test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_calls_charge_self_time_to_each_layer():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    inner = timer.wrap("inner", lambda: clock.advance(0.003))

    def outer_body():
        clock.advance(0.001)
        inner()
        inner()
        clock.advance(0.002)

    timer.wrap("outer", outer_body)()
    table = timer.snapshot()
    assert table["outer"]["calls"] == 1
    assert table["outer"]["self_ms"] == pytest.approx(3.0)
    assert table["inner"]["calls"] == 2
    assert table["inner"]["self_ms"] == pytest.approx(6.0)


def test_recursion_is_not_double_counted():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    def body(depth):
        clock.advance(0.001)
        if depth:
            recurse(depth - 1)

    recurse = timer.wrap("layer", body)
    recurse(3)
    row = timer.snapshot()["layer"]
    assert row["calls"] == 4
    assert row["self_ms"] == pytest.approx(4.0)


def test_failed_calls_are_counted_and_still_timed():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    def boom():
        clock.advance(0.002)
        raise ValueError("no")

    wrapped = timer.wrap("layer", boom)
    with pytest.raises(ValueError):
        wrapped()
    row = timer.snapshot()["layer"]
    assert (row["calls"], row["failures"]) == (1, 1)
    assert row["self_ms"] == pytest.approx(2.0)


def test_threads_keep_separate_stacks():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)
    entered = [threading.Event(), threading.Event()]
    release = [threading.Event(), threading.Event()]

    def leaf(i):
        entered[i].set()
        assert release[i].wait(timeout=10)

    wrapped_leaf = timer.wrap("leaf", leaf)
    root = timer.wrap("root", lambda i: wrapped_leaf(i))
    threads = [threading.Thread(target=root, args=(i,)) for i in range(2)]
    # Both threads are inside leaf at once; a shared stack would pop the
    # other thread's frame when the first leaf returns.
    threads[0].start()
    assert entered[0].wait(timeout=10)
    clock.advance(0.001)
    threads[1].start()
    assert entered[1].wait(timeout=10)
    clock.advance(0.002)
    release[0].set()
    threads[0].join(timeout=10)
    clock.advance(0.004)
    release[1].set()
    threads[1].join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    table = timer.snapshot()
    assert table["leaf"]["calls"] == table["root"]["calls"] == 2
    assert table["leaf"]["self_ms"] == pytest.approx(3.0 + 6.0)
    assert table["root"]["self_ms"] == pytest.approx(0.0)


def test_install_rebinds_imported_copies_and_uninstall_restores():
    parser = importlib.import_module("repro.sql.parser")
    chat = importlib.import_module("repro.core.chat")
    metrics = importlib.import_module("repro.eval.metrics")
    original = parser.parse_query
    assert chat.parse_query is original and metrics.parse_query is original

    timer = LayerTimer()
    timer.install()
    try:
        wrapped = parser.parse_query
        assert wrapped is not original
        assert chat.parse_query is wrapped
        assert metrics.parse_query is wrapped
        chat.parse_query("SELECT 1")
        assert timer.snapshot()["sql.parse"]["calls"] == 1
    finally:
        timer.uninstall()
    assert parser.parse_query is original
    assert chat.parse_query is original and metrics.parse_query is original


def test_install_times_session_acquire_as_a_context_manager():
    from repro.serve.sessions import SessionManager

    timer = LayerTimer()
    timer.install()
    try:
        manager = SessionManager()
        record = manager.create(lambda: object(), tenant="t0", db_id="db")
        with manager.acquire(record.session_id) as held:
            assert held is record
        assert manager.remove(record.session_id)
        row = timer.snapshot()["serve.sessions"]
        assert row["calls"] == 3  # create, acquire, remove
    finally:
        timer.uninstall()


@pytest.mark.parametrize(
    "path, route",
    [
        ("/sessions", "sessions"),
        ("/sessions/abc", "session"),
        ("/sessions/abc/ask", "ask"),
        ("/sessions/abc/feedback", "feedback"),
        ("/metrics", "metrics"),
        ("/nope", "unknown"),
    ],
)
def test_route_of(path, route):
    assert route_of(path) == route
