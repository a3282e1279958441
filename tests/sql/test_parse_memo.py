"""The ``parse_query`` memo: one frozen tree per distinct text, bounded.

``serve`` request threads share the memo, so it is also driven from
several threads at once with more distinct texts than it holds.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import LexError, ParseError
from repro.sql import parser
from repro.sql.parser import PARSE_MEMO_SIZE, Parser, parse_query


def _counters() -> dict[str, float]:
    return {
        counter["name"]: counter["value"]
        for counter in obs.snapshot()["counters"]
        if counter["name"].startswith("sql.parse.")
    }


def test_equal_text_returns_the_identical_tree():
    text = "SELECT name FROM singer WHERE age > 30 ORDER BY name"
    first = parse_query(text)
    assert parse_query("".join(text)) is first
    assert first == Parser(text).parse_query()


def test_every_call_is_counted_and_only_misses_parse():
    parser._parse_query.cache_clear()
    obs.enable(max_spans=0)
    try:
        for _ in range(3):
            parse_query("SELECT a FROM t")
        assert _counters() == {"sql.parse.calls": 3, "sql.parse.misses": 1}
    finally:
        obs.disable()


def test_a_failing_text_raises_and_is_counted_every_time():
    obs.enable(max_spans=0)
    try:
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_query("SELECT FROM WHERE")
        assert _counters() == {
            "sql.parse.calls": 3,
            "sql.parse.misses": 3,
            "sql.parse.failures": 3,
        }
    finally:
        obs.disable()


def test_a_text_the_lexer_rejects_counts_as_a_failure():
    obs.enable(max_spans=0)
    try:
        with pytest.raises(LexError):
            parse_query("SELECT 'abc")
        with pytest.raises(ParseError):
            parse_query("SELECT FROM")
        assert _counters() == {
            "sql.parse.calls": 2,
            "sql.parse.misses": 2,
            "sql.parse.failures": 2,
        }
    finally:
        obs.disable()


def test_threads_share_a_bounded_memo():
    texts = [
        f"SELECT c{i}, COUNT(*) FROM t{i % 7} WHERE c{i} > {i} GROUP BY c{i}"
        for i in range(PARSE_MEMO_SIZE + 512)
    ]
    expected = {text: Parser(text).parse_query() for text in texts}
    # Eight overlapping quarters cover every text twice, so the memo fills
    # and evicts; the deadline only bounds a pathologically slow machine.
    deadline = time.monotonic() + 20.0
    problems: list[str] = []

    def worker(offset: int) -> None:
        order = (texts[offset:] + texts[:offset])[: len(texts) // 4]
        for text in order:
            if time.monotonic() > deadline:
                return
            if parse_query(text) != expected[text]:
                problems.append(f"wrong tree for {text!r}")
            size = parser._parse_query.cache_info().currsize
            if size > PARSE_MEMO_SIZE:
                problems.append(f"memo holds {size} trees")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k * len(texts) // 8,))
            for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
        info = parser._parse_query.cache_info()
        # Drop the filler texts; later tests start from an empty memo.
        parser._parse_query.cache_clear()
    assert not problems, problems[:5]
    assert info.currsize == PARSE_MEMO_SIZE and info.misses > PARSE_MEMO_SIZE
