"""Render an ``obs`` snapshot as the human-readable run report.

The report is what ``fisql-repro … --metrics`` prints after the artifacts:
where wall-clock went (span rollup), LLM traffic per prompt kind, the
routing decision distribution, per-round correction counts, and SQL
parse/execute totals. Every section always prints — with an explicit
"(none recorded)" placeholder when a run never exercised that path — so
downstream tooling can grep for section headers unconditionally.

Metric names consumed here are the canonical instrumentation names; the
full catalogue is documented in DESIGN.md ("Observability").
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.metrics import find_histogram


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(row: list[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    rule = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), rule]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _counter_entries(snapshot: dict, name: str) -> list[dict]:
    return [entry for entry in snapshot["counters"] if entry["name"] == name]


def _counter_total(snapshot: dict, name: str) -> float:
    return sum(entry["value"] for entry in _counter_entries(snapshot, name))


def _counter_by_label(snapshot: dict, name: str, label: str) -> dict:
    grouped: dict = {}
    for entry in _counter_entries(snapshot, name):
        key = entry["labels"].get(label)
        grouped[key] = grouped.get(key, 0) + entry["value"]
    return grouped


def _histogram(snapshot: dict, name: str, labels: Optional[dict] = None):
    return find_histogram(snapshot["histograms"], name, labels)


def _ms(value: float) -> str:
    return f"{value:.2f}"


def _int(value: float) -> str:
    return str(int(value))


def _section(title: str, body: str) -> str:
    return f"{title}\n{body}"


def _render_spans(snapshot: dict) -> str:
    rows = [
        [
            entry["name"],
            _int(entry["count"]),
            _ms(entry["total_ms"]),
            _ms(entry["mean_ms"]),
            _ms(entry["max_ms"]),
        ]
        for entry in snapshot["spans"]
    ]
    if not rows:
        return "(no spans recorded)"
    return _table(["Span", "Count", "Total ms", "Mean ms", "Max ms"], rows)


def _render_llm(snapshot: dict) -> str:
    calls_by_kind = _counter_by_label(snapshot, "llm.calls", "kind")
    hits = _counter_by_label(snapshot, "cache.hit", "kind")
    misses = _counter_by_label(snapshot, "cache.miss", "kind")
    sem_hits = _counter_total(snapshot, "semcache.hit")
    sem_misses = _counter_total(snapshot, "semcache.miss")
    sem_bypasses = _counter_total(snapshot, "semcache.bypass")
    sem_total = sem_hits + sem_misses + sem_bypasses
    if not calls_by_kind and not hits and not misses and not sem_total:
        return "(no LLM calls recorded)"
    lines = []
    if calls_by_kind:
        rows = []
        for kind in sorted(calls_by_kind, key=str):
            latency = _histogram(snapshot, "llm.latency_ms", {"kind": kind})
            rows.append(
                [
                    str(kind),
                    _int(calls_by_kind[kind]),
                    _ms(latency["sum"]) if latency else "-",
                    _ms(latency["mean"]) if latency else "-",
                    _ms(latency["p50"]) if latency else "-",
                    _ms(latency["p95"]) if latency else "-",
                ]
            )
        lines.append(
            _table(
                ["Prompt kind", "Calls", "Total ms", "Mean ms", "p50 ms", "p95 ms"],
                rows,
            )
        )
    if hits or misses:
        total_hits = sum(hits.values())
        total = total_hits + sum(misses.values())
        rate = 100.0 * total_hits / total if total else 0.0
        line = (
            f"completion cache: {_int(total_hits)}/{_int(total)} hits "
            f"({rate:.1f}%)"
        )
        if hits:
            line += f"; by kind: {_label_summary(hits)}"
        lines.append(line)
    if sem_total:
        # Only semantic-cache runs grow the report (byte-identity off-flag).
        answered = sem_hits + sem_misses
        sem_rate = 100.0 * sem_hits / answered if answered else 0.0
        line = (
            f"semantic cache: {_int(sem_hits)}/{_int(answered)} hits "
            f"({sem_rate:.1f}%), {_int(sem_bypasses)} bypassed"
        )
        invalidations = _counter_total(snapshot, "semcache.invalidate")
        if invalidations:
            line += f", {_int(invalidations)} invalidated"
        lines.append(line)
    return "\n".join(lines)


def _render_routing(snapshot: dict) -> str:
    decisions = _counter_by_label(snapshot, "routing.decisions", "decision")
    total = sum(decisions.values())
    if not total:
        return "(no routing decisions recorded)"
    rows = [
        [str(decision), _int(count), f"{100.0 * count / total:.1f}%"]
        for decision, count in sorted(decisions.items(), key=lambda kv: str(kv[0]))
    ]
    rows.append(["total", _int(total), "100.0%"])
    return _table(["Decision", "Count", "Share"], rows)


def _render_corrections(snapshot: dict) -> str:
    sessions = _counter_total(snapshot, "correction.sessions")
    rounds_by_index = _counter_by_label(snapshot, "correction.rounds", "round")
    corrected_by_index = _counter_by_label(snapshot, "correction.corrected", "round")
    if not sessions and not rounds_by_index:
        return "(no correction sessions recorded)"
    lines = [f"sessions: {_int(sessions)}"]
    indices = sorted(set(rounds_by_index) | set(corrected_by_index), key=str)
    rows = [
        [
            str(index),
            _int(rounds_by_index.get(index, 0)),
            _int(corrected_by_index.get(index, 0)),
        ]
        for index in indices
    ]
    if rows:
        lines.append(_table(["Round", "Rounds run", "Corrected"], rows))
    types = _counter_by_label(snapshot, "correction.feedback_types", "type")
    if types:
        summary = ", ".join(
            f"{kind}={_int(count)}"
            for kind, count in sorted(types.items(), key=lambda kv: str(kv[0]))
        )
        lines.append(f"feedback types: {summary}")
    highlighted = _counter_total(snapshot, "correction.highlighted_rounds")
    if highlighted:
        lines.append(f"highlighted rounds: {_int(highlighted)}")
    regressions = _counter_total(snapshot, "correction.parse_regressions")
    lines.append(f"unparseable revisions (rolled back): {_int(regressions)}")
    return "\n".join(lines)


def _render_sql(snapshot: dict) -> str:
    parse_calls = _counter_total(snapshot, "sql.parse.calls")
    parse_failures = _counter_total(snapshot, "sql.parse.failures")
    execute_calls = _counter_total(snapshot, "sql.execute.calls")
    execute_failures = _counter_total(snapshot, "sql.execute.failures")
    if not parse_calls and not execute_calls:
        return "(no SQL activity recorded)"
    lines = [
        f"parse: {_int(parse_calls)} calls, {_int(parse_failures)} failures",
        f"execute: {_int(execute_calls)} calls, {_int(execute_failures)} failures",
    ]
    latency = _histogram(snapshot, "sql.execute.latency_ms", {})
    if latency and latency["count"]:
        lines.append(
            "execute latency: "
            f"mean {_ms(latency['mean'])} ms, "
            f"p95 {_ms(latency['p95'])} ms, "
            f"max {_ms(latency['max'])} ms"
        )
    return "\n".join(lines)


def _label_summary(grouped: dict) -> str:
    return ", ".join(
        f"{key}={_int(value)}"
        for key, value in sorted(grouped.items(), key=lambda kv: str(kv[0]))
    )


def _render_resilience(snapshot: dict) -> str:
    lines = []
    faults = _counter_by_label(snapshot, "llm.faults.injected", "kind")
    if faults:
        lines.append(
            f"faults injected: {_int(sum(faults.values()))} "
            f"({_label_summary(faults)})"
        )
    retries = _counter_total(snapshot, "llm.retries")
    giveups = _counter_by_label(snapshot, "llm.giveups", "reason")
    total_giveups = sum(giveups.values())
    if retries or total_giveups:
        line = f"retries: {_int(retries)}, giveups: {_int(total_giveups)}"
        if total_giveups:
            line += f" ({_label_summary(giveups)})"
        lines.append(line)
    backoff = _histogram(snapshot, "llm.retry_backoff_ms", {})
    if backoff and backoff["count"]:
        lines.append(
            "retry backoff: "
            f"mean {_ms(backoff['mean'])} ms, "
            f"p95 {_ms(backoff['p95'])} ms, "
            f"max {_ms(backoff['max'])} ms"
        )
    transitions = _counter_by_label(snapshot, "llm.breaker.state", "state")
    rejections = _counter_total(snapshot, "llm.breaker.rejections")
    if transitions or rejections:
        summary = _label_summary(transitions) if transitions else "none"
        lines.append(
            f"breaker transitions: {summary}; "
            f"rejections: {_int(rejections)}"
        )
    # Routed-pool lines only appear when a RoutingChatModel ran, so the
    # single-model report stays byte-identical to pre-router runs.
    backend_outcomes: dict = {}
    for entry in _counter_entries(snapshot, "llm.backend"):
        labels = entry.get("labels", {})
        backend = str(labels.get("backend", "?"))
        outcome = str(labels.get("outcome", "?"))
        per = backend_outcomes.setdefault(backend, {})
        per[outcome] = per.get(outcome, 0) + entry["value"]
    if backend_outcomes:
        failovers = sum(
            per.get("failover", 0) for per in backend_outcomes.values()
        )
        hedges = sum(per.get("hedge", 0) for per in backend_outcomes.values())
        lines.append(
            f"backend failovers: {_int(failovers)}, "
            f"hedged requests: {_int(hedges)}"
        )
        for backend in sorted(backend_outcomes):
            lines.append(
                f"backend {backend}: "
                f"{_label_summary(backend_outcomes[backend])}"
            )
    ejections = _counter_by_label(snapshot, "llm.backend.ejections", "backend")
    readmissions = _counter_by_label(
        snapshot, "llm.backend.readmissions", "backend"
    )
    if ejections or readmissions:
        lines.append(
            f"backend ejections: {_int(sum(ejections.values()))}, "
            f"readmissions: {_int(sum(readmissions.values()))}"
        )
    degraded = _counter_by_label(snapshot, "resilience.degraded", "stage")
    if degraded:
        lines.append(
            f"degraded rounds: {_int(sum(degraded.values()))} "
            f"({_label_summary(degraded)})"
        )
    empty = _counter_total(snapshot, "correction.empty_completions")
    if empty:
        lines.append(f"empty completions: {_int(empty)}")
    skipped = _counter_total(snapshot, "eval.skipped_examples")
    if skipped:
        lines.append(f"eval examples skipped: {_int(skipped)}")
    aborted = _counter_total(snapshot, "eval.correction_failures")
    if aborted:
        lines.append(f"correction sessions aborted: {_int(aborted)}")
    if not lines:
        return "(no resilience activity recorded)"
    return "\n".join(lines)


def _render_durability(snapshot: dict) -> str:
    lines = []
    appended = _counter_by_label(snapshot, "journal.appended", "kind")
    replayed = _counter_by_label(snapshot, "journal.replayed", "kind")
    if appended or replayed:
        line = (
            f"journal: {_int(sum(appended.values()))} appended, "
            f"{_int(sum(replayed.values()))} replayed"
        )
        if replayed:
            line += f" (replayed by kind: {_label_summary(replayed)})"
        lines.append(line)
    sealed = _counter_total(snapshot, "journal.segments_sealed")
    if sealed:
        lines.append(f"journal segments sealed: {_int(sealed)}")
    suites_saved = _counter_total(snapshot, "suite.saved")
    suites_loaded = _counter_total(snapshot, "suite.loaded")
    # Suite timers carry a scale label; match by name only.
    build = _histogram(snapshot, "harness.suite_build_ms")
    load = _histogram(snapshot, "harness.suite_load_ms")
    if suites_saved or suites_loaded:
        lines.append(
            f"suites: {_int(suites_saved)} saved, {_int(suites_loaded)} loaded"
        )
    if build and build["count"]:
        lines.append(f"suite build: {_ms(build['sum'])} ms")
    if load and load["count"]:
        lines.append(f"suite load: {_ms(load['sum'])} ms")
    shed = _counter_by_label(snapshot, "serve.shed", "reason")
    if shed:
        lines.append(
            f"requests shed: {_int(sum(shed.values()))} "
            f"({_label_summary(shed)})"
        )
    evictions = _counter_total(snapshot, "cache.evictions")
    if evictions:
        lines.append(f"cache entries evicted (LRU): {_int(evictions)}")
    quarantined = _counter_by_label(snapshot, "durability.quarantined", "kind")
    if quarantined:
        lines.append(
            f"corrupt files quarantined: {_int(sum(quarantined.values()))} "
            f"({_label_summary(quarantined)})"
        )
    degraded = _counter_by_label(snapshot, "durability.degraded", "kind")
    if degraded:
        lines.append(
            f"degraded writes (disk fault, in-memory fallback): "
            f"{_int(sum(degraded.values()))} ({_label_summary(degraded)})"
        )
    if not lines:
        return "(no durability activity recorded)"
    return "\n".join(lines)


def _render_pipeline(snapshot: dict) -> str:
    lines = []
    predictions = _counter_total(snapshot, "nl2sql.predictions")
    if predictions:
        failures = _counter_total(snapshot, "nl2sql.parse_failures")
        lines.append(
            f"nl2sql: {_int(predictions)} predictions, "
            f"{_int(failures)} unparseable"
        )
    retrievals = _counter_total(snapshot, "retrieval.calls")
    if retrievals:
        demos = _histogram(snapshot, "retrieval.demos", {})
        mean_demos = f"{demos['mean']:.1f}" if demos else "-"
        lines.append(
            f"retrieval: {_int(retrievals)} calls, {mean_demos} demos/call"
        )
    eval_by_verdict = _counter_by_label(snapshot, "eval.examples", "correct")
    evaluated = sum(eval_by_verdict.values())
    if evaluated:
        correct = eval_by_verdict.get(True, 0) + eval_by_verdict.get("true", 0)
        lines.append(f"evaluation: {_int(evaluated)} examples, {_int(correct)} correct")
    if not lines:
        return "(no pipeline activity recorded)"
    return "\n".join(lines)


def render_run_report(snapshot: dict) -> str:
    """The full run report for one ``obs`` snapshot."""
    title = "Run report (repro.obs)"
    sections: Sequence[tuple[str, str]] = (
        ("Wall-clock by span", _render_spans(snapshot)),
        ("LLM calls by prompt kind", _render_llm(snapshot)),
        ("Routing decision distribution", _render_routing(snapshot)),
        ("Correction rounds", _render_corrections(snapshot)),
        ("Resilience & degradation", _render_resilience(snapshot)),
        ("Durability & overload", _render_durability(snapshot)),
        ("SQL parse/execute", _render_sql(snapshot)),
        ("Pipeline counters", _render_pipeline(snapshot)),
    )
    parts = [title, "=" * len(title)]
    for header, body in sections:
        parts.append("")
        parts.append(_section(f"-- {header}", body))
    return "\n".join(parts)
