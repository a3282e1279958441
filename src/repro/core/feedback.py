"""Feedback data model and the feedback-demonstration store.

The paper categorizes feedback into Add / Remove / Edit (Table 1) and keeps
a fixed set of revision demonstrations per type that are appended to the
NL2SQL prompt once the type is identified (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.llm.prompts import render_feedback_demo

ADD = "add"
REMOVE = "remove"
EDIT = "edit"

FEEDBACK_TYPES = (ADD, REMOVE, EDIT)

#: Table 1 of the paper: one exemplar feedback text per type.
FEEDBACK_TYPE_EXAMPLES: dict[str, str] = {
    ADD: "order the names in ascending order.",
    REMOVE: "do not give descriptions",
    EDIT: "we are in 2024",
}


@dataclass(frozen=True)
class Highlight:
    """A user-marked span of the SQL text (or its explanation).

    Attributes:
        text: The highlighted substring.
        start: Character offset in the SQL the user saw.
        end: End offset (exclusive).
    """

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class Feedback:
    """One round of user feedback.

    Attributes:
        text: The natural-language feedback.
        highlight: Optional grounding highlight.
        intent_kind: Internal bookkeeping for evaluation/debugging — the
            delta kind the simulated user was trying to express. The FISQL
            pipeline never reads this field.
    """

    text: str
    highlight: Optional[Highlight] = None
    intent_kind: str = ""


@dataclass
class FeedbackDemoStore:
    """Fixed revision demonstrations per feedback type (Figure 5).

    ``for_type`` returns the rendered demonstration blocks appended to the
    NL2SQL prompt after routing; ``generic`` returns the smaller mixed set
    used by the no-routing ablation.
    """

    demos: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "FeedbackDemoStore":
        """The in-house demonstration set (mirrors the paper's examples)."""
        edit = [
            render_feedback_demo(
                question="how many audiences were created in January?",
                sql=(
                    "SELECT COUNT(*) AS segmentCount FROM hkg_dim_segment "
                    "WHERE createdTime >= '2023-01-01' and createdTime < "
                    "'2023-02-01'"
                ),
                feedback="we are in 2024",
                revised_sql=(
                    "SELECT COUNT(*) AS segmentCount FROM hkg_dim_segment "
                    "WHERE createdTime >= '2024-01-01' and createdTime < "
                    "'2024-02-01'"
                ),
            ),
            render_feedback_demo(
                question=(
                    "Show the name and the release year of the song by the "
                    "youngest singer."
                ),
                sql=(
                    "SELECT Name, Song_release_year FROM singer WHERE Age = "
                    "(SELECT min(Age) FROM singer)"
                ),
                feedback="Provide song name instead of singer name",
                revised_sql=(
                    "SELECT Song_Name, Song_release_year FROM singer WHERE "
                    "Age = (SELECT min(Age) FROM singer)"
                ),
            ),
        ]
        remove = [
            render_feedback_demo(
                question="List the segments created in March 2024.",
                sql=(
                    "SELECT segmentname, description FROM hkg_dim_segment "
                    "WHERE createdtime >= '2024-03-01' AND createdtime < "
                    "'2024-04-01'"
                ),
                feedback="do not give descriptions",
                revised_sql=(
                    "SELECT segmentname FROM hkg_dim_segment WHERE "
                    "createdtime >= '2024-03-01' AND createdtime < "
                    "'2024-04-01'"
                ),
            ),
        ]
        add = [
            render_feedback_demo(
                question="List the names of all destinations.",
                sql="SELECT destinationname FROM hkg_dim_destination",
                feedback="order the names in ascending order.",
                revised_sql=(
                    "SELECT destinationname FROM hkg_dim_destination "
                    "ORDER BY destinationname ASC"
                ),
            ),
            render_feedback_demo(
                question="How many datasets do we have?",
                sql="SELECT COUNT(*) FROM hkg_dim_dataset",
                feedback="only include datasets whose status is 'active'",
                revised_sql=(
                    "SELECT COUNT(*) FROM hkg_dim_dataset WHERE status = "
                    "'active'"
                ),
            ),
        ]
        return cls(demos={ADD: add, REMOVE: remove, EDIT: edit})

    def for_type(self, feedback_type: str) -> list[str]:
        """All demonstrations for one feedback type."""
        return list(self.demos.get(feedback_type, []))

    def generic(self) -> list[str]:
        """One demonstration per type — the no-routing ablation's context."""
        return [blocks[0] for blocks in self.demos.values() if blocks]
