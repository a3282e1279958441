"""The linking memos: each returns exactly what its function returns.

``serve`` request threads and ``--workers`` sweep threads share the
``string_similarity`` memo, so it is also driven from several threads at
once with more distinct pairs than it holds.
"""

from __future__ import annotations

import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.similarity import SIMILARITY_MEMO_SIZE, string_similarity
from repro.nlp.stem import stem

_IDENTIFIER_CHARS = "abcdefghijklmnopqrstuvwxyz_ "
_phrases = st.one_of(
    st.text(alphabet=_IDENTIFIER_CHARS, max_size=30), st.text(max_size=12)
)


@given(_phrases, _phrases)
@settings(max_examples=200, deadline=None)
def test_memoized_similarity_equals_the_function(a, b):
    expected = string_similarity.__wrapped__(a, b)
    # The first call may miss and the second hits; both are the score.
    assert string_similarity(a, b) == expected
    assert string_similarity(a, b) == expected


@given(_phrases)
@settings(max_examples=200, deadline=None)
def test_memoized_stem_equals_the_function(word):
    expected = stem.__wrapped__(word)
    assert stem(word) == expected
    assert stem(word) == expected


def test_threads_share_a_bounded_memo():
    pairs = [
        (f"phrase {i % 389}", f"col_{i // 389}_{i % 7}")
        for i in range(SIMILARITY_MEMO_SIZE + 2048)
    ]
    assert len(set(pairs)) == len(pairs)
    expected = {pair: string_similarity.__wrapped__(*pair) for pair in pairs}
    string_similarity.cache_clear()
    # Eight overlapping quarters cover every pair twice, so the memo fills
    # and evicts; the deadline only bounds a pathologically slow machine.
    deadline = time.monotonic() + 30.0
    problems: list[str] = []

    def worker(offset: int) -> None:
        order = (pairs[offset:] + pairs[:offset])[: len(pairs) // 4]
        for pair in order:
            if time.monotonic() > deadline:
                return
            if string_similarity(*pair) != expected[pair]:
                problems.append(f"wrong score for {pair!r}")
            size = string_similarity.cache_info().currsize
            if size > SIMILARITY_MEMO_SIZE:
                problems.append(f"memo holds {size} pairs")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k * len(pairs) // 8,))
            for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        info = string_similarity.cache_info()
        # Drop the filler pairs; later tests start from an empty memo.
        string_similarity.cache_clear()
    assert not any(thread.is_alive() for thread in threads)
    assert not problems, problems[:5]
    assert info.currsize == SIMILARITY_MEMO_SIZE
    assert info.misses > SIMILARITY_MEMO_SIZE
