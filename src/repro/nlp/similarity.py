"""String and token-set similarity measures."""

from __future__ import annotations

import functools
from typing import NamedTuple

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


#: How many strings :func:`profile` keeps profiled (least recently used
#: first out). A full set-up plus one sweep profiles 1,008 distinct
#: strings, phrases and schema names together; the rest is room for
#: ``serve``, whose questions bring new phrases.
PROFILE_MEMO_SIZE = 4096


class Profile(NamedTuple):
    """What :func:`string_similarity` reads of one string."""

    #: Lower-cased, with underscores and spaces removed.
    squashed: str
    #: The stems of its tokens, underscores read as spaces.
    stems: frozenset


@functools.lru_cache(maxsize=PROFILE_MEMO_SIZE)
def profile(text: str) -> Profile:
    """The string's profile, computed once per distinct string and kept
    up to :data:`PROFILE_MEMO_SIZE` strings; ``profile.__wrapped__``
    computes it without the memo."""
    norm = text.lower().replace("_", " ")
    return Profile(
        squashed=norm.replace(" ", ""),
        stems=frozenset(stem(token) for token in tokenize(norm)),
    )


def string_similarity(a: str, b: str) -> float:
    """Blend of stemmed-token Jaccard and character edit similarity.

    Used for schema linking: 'release year' vs 'Song_release_year' should
    score high; unrelated phrases should score near zero.

    Two strings equal after lower-casing and dropping underscores and
    spaces score 1.0 (identifiers often squash words: "profile count" vs
    "profilecount"). Any other pair scores
    ``max(0.6 * jaccard + 0.4 * (1 - distance / longer), 0.85 *
    containment)`` over the two strings' stem sets and squashed texts.
    Each string is tokenized and stemmed once (:func:`profile`); a pair
    costs set operations and one edit distance.
    """
    a_profile, b_profile = profile(a), profile(b)
    if a_profile.squashed == b_profile.squashed:
        return 1.0
    return _blend(
        a_profile,
        b_profile,
        levenshtein(a_profile.squashed, b_profile.squashed),
    )


def similarity_bound(a: Profile, b: Profile) -> float:
    """An upper bound on :func:`string_similarity` of two profiled
    strings, computed without an edit distance.

    The edit distance of the squashed texts is at least the difference of
    their lengths, and every later step of the blend (a division by the
    longer length, ``1 -``, a positive scale, a sum, ``max``) is monotone
    in IEEE doubles. So the bound, the blend at that least distance, is
    never under the score, compared as floats; it equals the score when
    the distance is the length difference.
    """
    if a.squashed == b.squashed:
        return 1.0
    return _blend(a, b, abs(len(a.squashed) - len(b.squashed)))


def _blend(a: Profile, b: Profile, distance: int) -> float:
    """The score of two profiles whose squashed texts differ, at squashed
    edit distance ``distance``: the arithmetic of :func:`jaccard`, a
    containment bonus and :func:`normalized_edit_similarity`."""
    a_stems, b_stems = a.stems, b.stems
    overlap = len(a_stems & b_stems)
    if a_stems and b_stems:
        # |a | b| = |a| + |b| - |a & b|: the same integers jaccard divides.
        token_score = overlap / (len(a_stems) + len(b_stems) - overlap)
        # All of one side's tokens inside the other.
        containment = overlap / min(len(a_stems), len(b_stems))
    else:
        # jaccard of two empty sets is 1.0, of one empty set 0.0.
        token_score = 0.0 if a_stems or b_stems else 1.0
        containment = 0.0
    edit_score = 1.0 - distance / max(len(a.squashed), len(b.squashed))
    return max(0.6 * token_score + 0.4 * edit_score, 0.85 * containment)
