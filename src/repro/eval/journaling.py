"""Journal serialization for evaluation work items.

The run journal (:class:`repro.durability.RunJournal`) stores opaque JSON
values; this module defines what evaluation actually journals and how it
is keyed:

* a **prediction** — one example scored by :func:`evaluate_model`; keyed
  by the evaluation scope (scale/seed/model/dataset) plus the example's
  identity *and* its question/gold SQL, so a regenerated suite that
  changed an example can never replay a stale verdict onto it;
* a **correction** — one multi-round feedback session; keyed additionally
  by the initial predicted SQL, because the same example enters different
  correction experiments (routing on/off, highlights, round budgets)
  through its scope.

Values hold only JSON primitives. A replayed ``PredictionRecord`` is
rebuilt around the *live* :class:`~repro.datasets.base.Example` from the
current benchmark, so downstream grouping (hardness, trap kinds) works on
the same objects whether the record was computed or replayed.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.session import CorrectionOutcome, RoundRecord
from repro.datasets.base import Example
from repro.durability import canonical_key
from repro.eval.metrics import PredictionRecord

# -- predictions ------------------------------------------------------------


def prediction_key(scope: dict, example: Example) -> str:
    """The journal key for one example's prediction under a scope."""
    return canonical_key(
        {
            "kind": "prediction",
            "scope": scope,
            "example_id": example.example_id,
            "db_id": example.db_id,
            "question": example.question,
            "gold_sql": example.gold_sql,
        }
    )


def prediction_to_dict(record: PredictionRecord) -> dict:
    """The journaled value for a prediction (example identity lives in the key)."""
    return {
        "predicted_sql": record.predicted_sql,
        "correct": record.correct,
        "failed": record.failed,
        "notes": list(record.notes),
    }


def prediction_from_dict(example: Example, value: dict) -> PredictionRecord:
    """Rebuild a record around the live example from the current benchmark."""
    return PredictionRecord(
        example=example,
        predicted_sql=value["predicted_sql"],
        correct=bool(value["correct"]),
        failed=bool(value.get("failed", False)),
        notes=list(value.get("notes", ())),
    )


# -- corrections ------------------------------------------------------------


def correction_key(scope: dict, record: PredictionRecord) -> str:
    """The journal key for one correction session under a scope."""
    return canonical_key(
        {
            "kind": "correction",
            "scope": scope,
            "example_id": record.example.example_id,
            "db_id": record.example.db_id,
            "question": record.example.question,
            "gold_sql": record.example.gold_sql,
            "initial_sql": record.predicted_sql,
        }
    )


def outcome_to_dict(outcome: CorrectionOutcome) -> dict:
    """Serialize a full session — every round record — as JSON primitives."""
    return asdict(outcome)


def outcome_from_dict(value: dict) -> CorrectionOutcome:
    return CorrectionOutcome(
        example_id=value["example_id"],
        corrected_round=value["corrected_round"],
        rounds=[RoundRecord(**data) for data in value.get("rounds", ())],
        failure=value.get("failure"),
    )


#: How a sweep journals each kind of item: ``(key, encode, decode)``,
#: where ``key(scope, item)`` names the item's record, ``encode(result)``
#: is its value and ``decode(item, value)`` rebuilds the result.
CODECS = {
    "prediction": (prediction_key, prediction_to_dict, prediction_from_dict),
    "correction": (
        correction_key,
        outcome_to_dict,
        lambda record, value: outcome_from_dict(value),
    ),
}
