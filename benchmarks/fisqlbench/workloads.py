"""Workload inputs: conversation scripts, arrival schedules and references.

The program always generates the paper's suite (:data:`SUITE_SEED`), so
every run does the same amount of suite work and is checked against the
same pinned bytes. The benchmark's own seed picks what is sent to the
program: which script each session replays, the serve-hot hot set, and
when sessions arrive. The same seed always produces the same inputs.

A *script* is one chat session's worth of user turns: a question, and for
scripts drawn from the annotated error set, the simulated annotator's
round-1 feedback on the Assistant's wrong answer. Half the serve-cold
sessions replay an error script and half only ask a dev question; serve-hot
draws from a Zipf-popular hot set so the program's caches see repeats.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

#: The suite seed of the paper's tables (EXPERIMENTS.md).
SUITE_SEED = 20250325

#: Tenants ``t0..t3``; a database always maps to the same tenant.
N_TENANTS = 4

#: serve-hot: hot-set composition and popularity skew.
HOT_ERRORS = 128
HOT_ASKS = 384
ZIPF_S = 1.1


@dataclass(frozen=True)
class Script:
    """The user side of one session: a question and optional feedback."""

    script_id: str
    db: str
    question: str
    feedback: Optional[str] = None

    @property
    def tenant(self) -> str:
        return tenant_of(self.db)


@dataclass(frozen=True)
class Session:
    """One session of a phase: when it is due and what it replays."""

    index: int
    due: float  # seconds after the phase starts
    script: Script


@dataclass
class ScriptPool:
    """Every script the suite offers."""

    errors: list[Script]
    asks: list[Script]


def tenant_of(db_id: str) -> str:
    """A stable tenant for a database (``hash()`` is salted per process)."""
    return f"t{zlib.crc32(db_id.encode('utf-8')) % N_TENANTS}"


def build_pool(context) -> ScriptPool:
    """Error scripts (ask + round-1 feedback) and ask-only dev scripts.

    Error scripts replay the paper's annotated error set: the Assistant's
    wrong answers that the simulated annotator can write feedback for.
    """
    from repro.sql.parser import parse_query

    errors: list[Script] = []
    asks: list[Script] = []
    for dataset in ("spider", "aep"):
        annotator = context.annotator_for(dataset)
        for record in context.error_set(dataset):
            example = record.example
            feedback = annotator.give_feedback(
                example_id=example.example_id,
                question=example.question,
                gold=parse_query(example.gold_sql),
                predicted=parse_query(record.predicted_sql),
                round_index=1,
                use_highlights=False,
            )
            if feedback is not None:
                errors.append(
                    Script(
                        f"fb:{example.example_id}",
                        example.db_id,
                        example.question,
                        feedback.text,
                    )
                )
        asks.extend(
            Script(f"ask:{example.example_id}", example.db_id, example.question)
            for example in context.benchmark(dataset).examples
        )
    return ScriptPool(errors=errors, asks=asks)


# -- script choice --------------------------------------------------------------


class ColdMix:
    """Half error scripts, half ask-only, uniformly over the whole pool."""

    def __init__(self, pool: ScriptPool) -> None:
        self._pool = pool

    def pick(self, rng: random.Random) -> Script:
        scripts = self._pool.errors if rng.random() < 0.5 else self._pool.asks
        return rng.choice(scripts)


class HotSet:
    """A seeded hot set whose ranks are drawn with Zipf(``ZIPF_S``) weights."""

    def __init__(self, pool: ScriptPool, seed: int) -> None:
        rng = random.Random(f"{seed}:hot-set")
        scripts = rng.sample(pool.errors, min(HOT_ERRORS, len(pool.errors)))
        scripts += rng.sample(pool.asks, min(HOT_ASKS, len(pool.asks)))
        rng.shuffle(scripts)
        self.scripts = scripts
        weights = [1.0 / rank**ZIPF_S for rank in range(1, len(scripts) + 1)]
        self._cumulative = list(itertools.accumulate(weights))

    def pick(self, rng: random.Random) -> Script:
        point = rng.random() * self._cumulative[-1]
        return self.scripts[bisect.bisect_right(self._cumulative, point)]


def plan_phase(
    picker, seed: int, workload: str, phase: str, rate: float, duration: float
) -> list[Session]:
    """Open-loop Poisson arrivals at ``rate`` sessions/s for ``duration`` s."""
    rng = random.Random(f"{seed}:{workload}:{phase}")
    sessions: list[Session] = []
    due = rng.expovariate(rate)
    while due < duration:
        sessions.append(Session(len(sessions), due, picker.pick(rng)))
        due += rng.expovariate(rate)
    return sessions


def plan_warm_up(picker, seed: int, workload: str, count: int) -> list[Session]:
    """``count`` sessions of the workload's own mix, all due at once."""
    rng = random.Random(f"{seed}:{workload}:warm-up")
    return [Session(index, 0.0, picker.pick(rng)) for index in range(count)]


def pool_to_document(pool: ScriptPool, references: dict) -> dict:
    """The pool and its reference digests as one pinnable document."""

    def entry(script: Script) -> dict:
        item = {"db": script.db, "question": script.question}
        if script.feedback is not None:
            item["feedback"] = script.feedback
        item["sql"] = references[script.script_id]
        return item

    return {
        kind: {script.script_id: entry(script) for script in scripts}
        for kind, scripts in (("errors", pool.errors), ("asks", pool.asks))
    }


def pool_from_document(document: dict) -> tuple[ScriptPool, dict]:
    """Inverse of :func:`pool_to_document`: (pool, references)."""
    scripts = {
        kind: [
            Script(script_id, item["db"], item["question"], item.get("feedback"))
            for script_id, item in document[kind].items()
        ]
        for kind in ("errors", "asks")
    }
    references = {
        script_id: item["sql"]
        for kind in ("errors", "asks")
        for script_id, item in document[kind].items()
    }
    return ScriptPool(scripts["errors"], scripts["asks"]), references


# -- references -----------------------------------------------------------------


def sql_digest(sql: str) -> str:
    """Short content digest used to pin per-turn reference SQL."""
    return hashlib.sha256(sql.encode("utf-8")).hexdigest()[:16]


def reference_sql(context, scripts: Iterable[Script]) -> dict[str, list[str]]:
    """Per-script turn SQL digests from an in-process, cache-free server.

    Uses the same :class:`~repro.serve.ServeApp` the socket server wraps,
    so a mismatch over the socket is a transport or concurrency fault, or
    (with caches on) a cache serving a different answer.
    """
    from repro.serve import ServeApp
    from repro.serve.protocol import json_decode, json_encode

    app = ServeApp.from_context(context)

    def call(method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = json_encode(payload) if payload is not None else b""
        status, _ctype, raw, _headers = app.handle_request(method, path, body)
        if status >= 300:
            raise RuntimeError(f"reference {method} {path} -> {status}: {raw!r}")
        return json_decode(raw)

    references: dict[str, list[str]] = {}
    for script in scripts:
        if script.script_id in references:
            continue
        created = call(
            "POST", "/sessions", {"db": script.db, "tenant": script.tenant}
        )
        sid = created["session"]["id"]
        turns = [call("POST", f"/sessions/{sid}/ask", {"question": script.question})]
        if script.feedback is not None:
            turns.append(
                call(
                    "POST",
                    f"/sessions/{sid}/feedback",
                    {"feedback": script.feedback},
                )
            )
        call("DELETE", f"/sessions/{sid}")
        references[script.script_id] = [
            sql_digest(turn["answer"]["sql"]) for turn in turns
        ]
    return references
