"""The linking memos: each returns exactly what its function returns.

``serve`` request threads and ``--workers`` sweep threads share the
``profile`` memo, so it is also driven from several threads at once with
more distinct strings than it holds.
"""

from __future__ import annotations

import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.similarity import PROFILE_MEMO_SIZE, profile, string_similarity
from repro.nlp.stem import stem

_IDENTIFIER_CHARS = "abcdefghijklmnopqrstuvwxyz_ "
_phrases = st.one_of(
    st.text(alphabet=_IDENTIFIER_CHARS, max_size=30), st.text(max_size=12)
)


@given(_phrases, _phrases)
@settings(max_examples=200, deadline=None)
def test_memoized_similarity_equals_the_function(a, b):
    # The first call may miss and the second hits; both are the profile.
    for text in (a, b):
        expected = profile.__wrapped__(text)
        assert profile(text) == expected
        assert profile(text) == expected
    # The score reads nothing but the two profiles.
    profile.cache_clear()
    fresh = string_similarity(a, b)
    assert string_similarity(a, b) == fresh


@given(_phrases)
@settings(max_examples=200, deadline=None)
def test_memoized_stem_equals_the_function(word):
    expected = stem.__wrapped__(word)
    assert stem(word) == expected
    assert stem(word) == expected


def test_threads_share_a_bounded_memo():
    texts = [
        f"phrase_{i % 389} col {i // 389}" for i in range(PROFILE_MEMO_SIZE + 2048)
    ]
    assert len(set(texts)) == len(texts)
    expected = {text: profile.__wrapped__(text) for text in texts}
    profile.cache_clear()
    # Eight overlapping quarters cover every text twice, so the memo fills
    # and evicts; the deadline only bounds a pathologically slow machine.
    deadline = time.monotonic() + 30.0
    problems: list[str] = []

    def worker(offset: int) -> None:
        order = (texts[offset:] + texts[:offset])[: len(texts) // 4]
        for text in order:
            if time.monotonic() > deadline:
                return
            if profile(text) != expected[text]:
                problems.append(f"wrong profile for {text!r}")
            size = profile.cache_info().currsize
            if size > PROFILE_MEMO_SIZE:
                problems.append(f"memo holds {size} strings")

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
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        info = profile.cache_info()
        # Drop the filler strings; later tests start from an empty memo.
        profile.cache_clear()
    assert not any(thread.is_alive() for thread in threads)
    assert not problems, problems[:5]
    assert info.currsize == PROFILE_MEMO_SIZE
    assert info.misses > PROFILE_MEMO_SIZE
