"""String and token-set similarity measures."""

from __future__ import annotations

import functools

from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, all cost 1).

    Myers' bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyrö's
    formulation for global distance (2001). Bit ``i`` of ``pv``/``mv``
    says whether row ``i + 1`` of the current dynamic-programming column
    is one more/one less than row ``i``, so a column costs a few integer
    operations instead of a loop over the shorter string. Python ints are
    unbounded bit vectors, so long strings need no splitting into 64-bit
    blocks. The result is the exact distance, and any sequence of
    hashable items works.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # The shorter sequence is the pattern: one match bitmask per item.
    peq: dict = {}
    bit = 1
    for item in b:
        peq[item] = peq.get(item, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(b)
    for item in a:
        eq = peq.get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 is D[0][j] = j: every column enters with a +1 delta.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalized_edit_similarity(a: str, b: str) -> float:
    """1 - edit_distance / max_len, in [0, 1]."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaccard(a: set, b: set) -> float:
    """Jaccard similarity of two sets."""
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


#: How many (phrase, identifier) pairs :func:`string_similarity` keeps
#: scored. A full set-up plus one sweep scores 19,612 distinct pairs
#: (791 phrases by 332 identifiers), so the sweep's pairs all fit.
SIMILARITY_MEMO_SIZE = 1 << 15


@functools.lru_cache(maxsize=SIMILARITY_MEMO_SIZE)
def string_similarity(a: str, b: str) -> float:
    """Blend of stemmed-token Jaccard and character edit similarity.

    Used for schema linking: 'release year' vs 'Song_release_year' should
    score high; unrelated phrases should score near zero.

    The score is a pure function of the two strings, so each distinct
    pair is scored once per process and kept, up to
    :data:`SIMILARITY_MEMO_SIZE` pairs (least recently used first out);
    ``string_similarity.__wrapped__`` scores without the memo.
    """
    a_norm = a.lower().replace("_", " ")
    b_norm = b.lower().replace("_", " ")
    if a_norm == b_norm:
        return 1.0
    # Identifiers often squash words: "profile count" vs "profilecount".
    if a_norm.replace(" ", "") == b_norm.replace(" ", ""):
        return 1.0
    a_tokens = {stem(t) for t in tokenize(a_norm)}
    b_tokens = {stem(t) for t in tokenize(b_norm)}
    token_score = jaccard(a_tokens, b_tokens)
    # containment bonus: all of one side's tokens inside the other
    containment = 0.0
    if a_tokens and b_tokens:
        overlap = len(a_tokens & b_tokens)
        containment = overlap / min(len(a_tokens), len(b_tokens))
    edit_score = normalized_edit_similarity(
        a_norm.replace(" ", ""), b_norm.replace(" ", "")
    )
    return max(0.6 * token_score + 0.4 * edit_score, 0.85 * containment)
