#!/usr/bin/env python3
"""Quickstart: ask → wrong answer → feedback → fixed answer.

Recreates the paper's running example (Figure 4): a user asks how many
audiences were created in January, the Assistant assumes the wrong year,
the user replies "we are in 2024", and FISQL repairs the SQL in place.

Run:  python examples/quickstart.py
"""

from repro.core import (
    Assistant,
    DemonstrationRetriever,
    FisqlPipeline,
    Nl2SqlModel,
)
from repro.datasets import build_aep_database, generate_aep_suite
from repro.llm import SimulatedLLM


def main() -> None:
    # The closed-domain database and its in-house demonstration pool.
    database = build_aep_database()
    _traffic, demos = generate_aep_suite(n_questions=10)

    model = Nl2SqlModel(
        llm=SimulatedLLM(), retriever=DemonstrationRetriever(demos)
    )
    assistant = Assistant(model)

    question = "How many audiences were created in January?"
    print(f"User: {question}\n")

    response = assistant.answer(question, database)
    print("Assistant:")
    print(response.render())
    print(f"\n[Show Source]\n{response.sql}\n")

    # The user knows it is 2024; the Assistant assumed its default year.
    feedback = "we are in 2024"
    print(f"User feedback: {feedback}\n")

    # One FISQL round: (1) routing classifies the feedback type and fetches
    # its revision demonstrations (the paper's Figure 5 blocks); (2) the
    # model is re-prompted with the previous SQL, the feedback, and those
    # demonstrations (the paper's Figure 6 prompt).
    revision = FisqlPipeline(model).revise(
        database, question, response.sql, feedback
    )
    print(f"[routing] feedback type: {revision.feedback_type}")
    print(f"[revision] {'; '.join(revision.notes)}\n")

    revised_sql = revision.sql
    print(f"Revised SQL: {revised_sql}")
    result = database.query(revised_sql)
    print(f"Answer: {result.scalar()} segments created in January 2024")

    # The paper's Table 1 taxonomy, for reference.
    from repro.core import FEEDBACK_TYPE_EXAMPLES

    print("\nFeedback types (Table 1):")
    for label, text in FEEDBACK_TYPE_EXAMPLES.items():
        print(f"  {label:>6}: {text}")


if __name__ == "__main__":
    main()
