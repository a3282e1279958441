#!/usr/bin/env python3
"""Future work (§5): building up a complex query through simple feedback.

The paper's concluding remarks propose letting users *construct* complex
SQL incrementally — ask a simple question first, then grow the query with
successive Add-type feedback. FISQL's anchored edits make this work with
no new machinery: each feedback round is routed, interpreted against the
current SQL, and applied as a typed AST edit.

Run:  python examples/build_up_queries.py
"""

from repro.core import FisqlPipeline, Nl2SqlModel
from repro.datasets import build_aep_database
from repro.llm import SimulatedLLM


def main() -> None:
    database = build_aep_database()
    model = Nl2SqlModel(llm=SimulatedLLM())
    pipeline = FisqlPipeline(model)

    question = "List the names of all segments."
    prediction = model.predict(question, database)
    sql = prediction.sql
    print(f"User: {question}")
    print(f"  SQL: {sql}\n")

    refinements = [
        "only include segments whose status is 'active'",
        "also show the profile count",
        "order the names in ascending order.",
        "limit it to 5",
    ]

    for step, feedback in enumerate(refinements, start=1):
        revision = pipeline.revise(
            database, question, sql, feedback, context_key=f"build-up:{step}"
        )
        sql = revision.sql
        print(f"User: {feedback}")
        print(f"  [{revision.feedback_type}] {'; '.join(revision.notes)}")
        print(f"  SQL: {sql}\n")

    result = database.query(sql)
    print("Final result:")
    for row in result.rows:
        print(" ", row)


if __name__ == "__main__":
    main()
