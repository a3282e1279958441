"""Property: damage to a segment costs exactly the records on damaged lines.

Appends draw strings that hold U+2028, U+2029 and U+0085, which
``str.splitlines`` would split but a journal line must not. The segment
is then damaged at any byte, or cut anywhere, and reloaded. The reload
must return only records exactly as appended, and must keep every record
whose line (with the newlines that frame it) the damage did not touch.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.durability.journal import RunJournal, journal_stats

_SEPARATORS = "\u2028\u2029\u0085"

# Text a journal can hold: UTF-8 encodes every character but a lone
# surrogate.
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(_SEPARATORS + '\n\r"\\é'),
        st.characters(codec="utf-8"),
    ),
    max_size=10,
)

_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | _TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=8,
)

_APPENDS = st.lists(
    st.tuples(_TEXT, _VALUES),
    min_size=1,
    max_size=8,
    unique_by=lambda item: item[0],
)


def _line_spans(data: bytes) -> list:
    """``(start, end)`` of each line: ``end`` is its newline's offset."""
    spans, start = [], 0
    while start < len(data):
        end = data.index(b"\n", start)
        spans.append((start, end))
        start = end + 1
    return spans


@settings(max_examples=100, deadline=None)
@given(appends=_APPENDS, data=st.data())
def test_damage_costs_only_the_records_on_damaged_lines(appends, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        journal = RunJournal(directory)
        for key, value in appends:
            journal.append(key, "x", value)
        journal.close()
        segment = directory / "segment-0000.jsonl"
        original = segment.read_bytes()
        spans = _line_spans(original)
        assert len(spans) == len(appends)

        offset = data.draw(st.integers(0, len(original) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            segment.write_bytes(original[:offset])
            # A line survives whole when the cut falls after its newline.
            intact = [end < offset for _start, end in spans]
        else:
            byte = data.draw(
                st.integers(0, 255).filter(lambda b: b != original[offset]),
                label="byte",
            )
            damaged = bytearray(original)
            damaged[offset] = byte
            segment.write_bytes(bytes(damaged))
            # A damaged newline also joins the line after it to this one.
            intact = [
                not start - 1 <= offset <= end for start, end in spans
            ]

        reloaded = RunJournal(directory)
        survivors = {
            key: reloaded.get(key)
            for key, _value in appends
            if reloaded.get(key) is not None
        }
        # Only records exactly as appended...
        assert len(reloaded) == len(survivors)
        for key, value in appends:
            if key in survivors:
                assert survivors[key] == {
                    "key": key,
                    "kind": "x",
                    "value": value,
                }
        # ...and every record on an undamaged line.
        for (key, _value), whole in zip(appends, intact):
            if whole:
                assert key in survivors
        assert journal_stats(directory)["records"] == len(survivors)
