"""Run one workload: start the program, drive it, check it, report.

The end-to-end run (``--trace 0``) measures with no wrappers in the
program. The traced run (``--trace 1``) is a separate, shorter run with
the layer wrappers installed; it reports per-layer calls and self time.
Neither run changes the program: the sweep child calls the library's
public functions, and serve is ``python -m repro.cli serve``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import EXPECTED, ROOT, SRC
from .layers import LAYERS
from .loadgen import LoadGenerator
from .stats import MAX_LATE_MS, LadderStep, max_rate, percentile
from .workloads import (
    SUITE_SEED,
    ColdMix,
    HotSet,
    build_pool,
    plan_phase,
    plan_warm_up,
    pool_from_document,
    pool_to_document,
    reference_sql,
    sql_digest,
)

WORKLOADS = ("sweep-full", "serve-cold", "serve-hot")

#: Extra ``serve`` flags per workload; serve-cold runs the defaults.
SERVE_FLAGS = {
    "serve-cold": [],
    "serve-hot": [
        "--cache-max", "128", "--semantic-cache", "--semantic-cache-max", "128",
    ],
}

#: Untimed sessions sent before the nominal phase, all due at once, so
#: that serve-hot's caches (128 entries each) hold the hot head of the
#: traffic before anything is timed; serve-cold gets the same warm-up.
WARM_UP_SESSIONS = 128
#: Connections of the warm-up. Each turn waits ~40 ms on the threaded
#: transport's stall, not on the CPU, so more connections than cores
#: shorten the warm-up without changing what it leaves in the caches.
WARM_UP_CONNECTIONS = 8
#: Sessions/s of the nominal phase, where latencies are reported.
NOMINAL_RATE = 4.0
#: Ladder rates (sessions/s); the ladder stops after the first failing step.
LADDER_RATES = (8.0, 16.0, 32.0, 64.0, 128.0)
LADDER_STEP_S = 2.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The reference routine's time (``launch.reference_ms``) at the speed
#: the baseline box usually runs. Sweep-full's ``latency_ms`` is the
#: median sweep, each scaled by this over the reference times taken
#: during it: a sweep at that speed (README.md, "Why a scaled sweep").
REFERENCE_MS = 50.0
#: Longest a child may take to become ready, or a sweep to finish.
CHILD_TIMEOUT_S = 150.0

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
_TRANSPORT = re.compile(r"transport=(\w+)")


class RunError(RuntimeError):
    """The workload could not run to the end (no result is reported)."""


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    scale: str
    trace: bool
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    #: Outputs that differ from the reference (the rest of ``failed`` is
    #: non-2xx replies, socket errors and crashed children).
    mismatched: int = 0
    problems: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.mismatched == 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(text)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


# -- child processes ----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """A program process whose stdout lines the benchmark reads."""

    def __init__(self, argv: list[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=str(ROOT),
            env=_child_env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        self._buffer = b""
        self.lines: list[str] = []
        self.peak_rss_mb: Optional[float] = None

    def _pump(self, timeout: float) -> bool:
        """Read what stdout has within ``timeout``; False at end of file."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(max(timeout, 0.0)):
                return True
        chunk = os.read(self.proc.stdout.fileno(), 65536)
        self._buffer += chunk
        return bool(chunk)

    def read_until(self, predicate, timeout: float = CHILD_TIMEOUT_S) -> tuple:
        """The first stdout line ``predicate`` accepts, and when it arrived."""
        deadline = time.perf_counter() + timeout
        while True:
            while b"\n" in self._buffer:
                raw, self._buffer = self._buffer.split(b"\n", 1)
                arrived = time.perf_counter()
                line = raw.decode("utf-8", "replace")
                self.lines.append(line)
                if predicate(line):
                    return line, arrived
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RunError(f"timed out waiting on {self.proc.args[1:4]}")
            if not self._pump(remaining):
                raise RunError(
                    f"{self.proc.args[1:4]} exited early: {self.lines[-3:]}"
                )

    def finish(self, terminate: bool = False, timeout: float = 30.0) -> int:
        """Drain stdout to the end, reap, and record the child's peak RSS.

        ``terminate`` sends SIGTERM first, which the server answers with
        a graceful drain. A child that overstays ``timeout`` is killed.
        """
        # os.kill, not Popen.send_signal: the latter polls, and a child
        # reaped by poll() takes its rusage with it.
        if terminate:
            os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.perf_counter() + timeout
        while self._pump(deadline - time.perf_counter()):
            if time.perf_counter() >= deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                break
        self.lines.extend(self._buffer.decode("utf-8", "replace").splitlines())
        self._buffer = b""
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        return self.proc.returncode

    def kill(self) -> None:
        """Stop the child if it is still running (error paths)."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def _event(*names: str):
    """A stdout-line predicate for the sweep child's JSON events."""

    def matches(line: str) -> bool:
        return line.startswith("{") and json.loads(line).get("event") in names

    return matches


# -- pinned references ------------------------------------------------------------

SWEEP_REFERENCE = EXPECTED / "sweep.json"
SERVE_REFERENCE = EXPECTED / "serve_scripts.json"


def _pinned(path: Path, scale: str) -> Optional[dict]:
    """The pinned document when it was made for this scale's suite."""
    if not path.is_file():
        return None
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("scale") != scale or document.get("seed") != SUITE_SEED:
        return None
    return document


def _context(scale: str):
    from repro import build_context

    return build_context(scale=scale, seed=SUITE_SEED)


# -- sweep-full ---------------------------------------------------------------------


def run_sweep(outcome: Outcome, seconds: float, layers: Optional[Path]) -> None:
    """One child sets up, reports ready, then sweeps and digests each sweep.

    The child sweeps as :func:`.launch.keep_sweeping` says; a traced
    run sweeps once. Set-up-only children then bring the run to
    :data:`SETUPS` set-ups. At the pinned scale every digest must equal
    the committed one. At another scale they must all equal the first
    sweep's: the same code run in-process would only reproduce those
    bytes again. The sweep has no seeded input; its seed only names the
    run.
    """
    pinned = _pinned(SWEEP_REFERENCE, outcome.scale)
    expected = pinned["sha256"] if pinned is not None else None
    outcome.info["reference"] = (
        f"pinned ({SWEEP_REFERENCE.name})"
        if pinned is not None
        else "agreement between the run's sweeps"
    )
    argv = ["-m", "benchmarks.fisqlbench.launch"]
    if layers is not None:
        argv += ["--layers-out", str(layers)]
    argv += ["sweep", "--scale", outcome.scale, "--seed", str(SUITE_SEED)]
    if layers is None:
        argv += ["--seconds", str(seconds)]
    sweeps: list[float] = []
    artifacts: list[dict] = []
    references: list[list[float]] = []
    child = Child(argv)
    try:
        _, ready_at = child.read_until(_event("ready"))
        while True:
            line, _ = child.read_until(_event("done", "finished"))
            done = json.loads(line)
            if done["event"] == "finished":
                break
            if expected is None:
                expected = done["digest"]
            sweeps.append(done["sweep_s"])
            artifacts.append(done["artifacts_s"])
            references.append(done["reference_ms"])
            outcome.attempted += 1
            if done["digest"] != expected:
                outcome.mismatched += 1
                outcome.failed += 1
                outcome.problem(
                    f"sweep {len(sweeps)}: digest {done['digest'][:12]} "
                    f"(expected {expected[:12]})"
                )
        code = child.finish()
    finally:
        child.kill()
    if code != 0:
        raise RunError(f"sweep child exited {code}: {child.lines[-3:]}")
    setups = [ready_at - child.started]
    peak_rss_mb = child.peak_rss_mb
    while layers is None and len(setups) < SETUPS:
        # The run has swept enough; this child only adds a set-up.
        setup_child = Child(argv)
        try:
            _, ready_at = setup_child.read_until(_event("ready"))
            setup_child.finish(terminate=True)
        finally:
            setup_child.kill()
        setups.append(ready_at - setup_child.started)
    if layers is not None:
        add_layer_metrics(outcome, _read_layers(layers))
    outcome.info["digest"] = expected
    outcome.phases["sweeps"] = {
        "sweep_s": sweeps,
        "setup_s": setups,
        "artifacts_s": artifacts,
        "reference_ms": references,
    }
    outcome.put("setup_s", statistics.median(setups), "s")
    outcome.put("sweep_s", statistics.median(sweeps), "s")
    if layers is None:
        scaled = [
            sweep_s * 1000.0 * REFERENCE_MS / statistics.median(reference)
            for sweep_s, reference in zip(sweeps, references)
        ]
        outcome.phases["sweeps"]["scaled_ms"] = scaled
        outcome.put("latency_ms", statistics.median(scaled), "ms")
        outcome.put(
            "reference_ms",
            statistics.median(ms for reference in references for ms in reference),
            "ms",
        )
    outcome.put("peak_rss_mb", peak_rss_mb, "MB")
    outcome.put("error_rate", outcome.failed / outcome.attempted, "ratio")


# -- serve-cold / serve-hot ---------------------------------------------------------


def _turn_ms(records) -> list[float]:
    """Ask/feedback latencies from due time; a failed turn is a miss (inf)."""
    return [
        r.latency_ms if r.ok else math.inf
        for r in records
        if r.route in ("ask", "feedback")
    ]


def _phase_summary(rate: Optional[float], duration: float, phase) -> dict:
    records = phase.records
    turns = _turn_ms(records)
    failed = sum(1 for r in records if not r.ok)
    return {
        "rate_sps": rate,
        "duration_s": duration,
        "sessions": len({r.session.index for r in records}),
        "dropped_sessions": len(phase.dropped_due),
        "sent": len(records),
        "succeeded": len(records) - failed,
        "failed": failed,
        "turn_p50_ms": percentile(turns, 0.5),
        "turn_p90_ms": percentile(turns, 0.9),
        "late_at_end_ms": phase.late_at_ms(phase.start + duration),
    }


#: The server's cache counters in ``/metrics``: (hits, misses) per cache.
_CACHE_SERIES = {
    "semcache": ("fisql_semcache_hit_total", "fisql_semcache_miss_total"),
    "completion_cache": ("fisql_cache_hit_total", "fisql_cache_miss_total"),
}


def _cache_counters(generator: LoadGenerator) -> dict[str, float]:
    """The cache counters of one ``/metrics`` scrape, summed over labels."""
    wanted = {name for pair in _CACHE_SERIES.values() for name in pair}
    status, body, _ = generator.get("/metrics")
    if status != 200:
        raise RunError(f"/metrics answered {status}")
    sums = dict.fromkeys(wanted, 0.0)
    for line in body.decode("utf-8").splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in wanted:
            sums[name] += float(line.rsplit(" ", 1)[1])
    return sums


def _cache_lookups(before: dict, after: dict) -> dict[str, int]:
    """Hits and lookups of each cache between two scrapes."""
    counts = {}
    for cache, (hit, miss) in _CACHE_SERIES.items():
        hits = after[hit] - before[hit]
        counts[f"{cache}_hits"] = int(hits)
        counts[f"{cache}_lookups"] = int(hits + after[miss] - before[miss])
    return counts


def _start_server(argv: list[str]) -> tuple:
    child = Child(argv)
    try:
        line, ready_at = child.read_until(lambda text: "listening on" in text)
    except BaseException:
        child.kill()
        raise
    return child, line, ready_at - child.started


def run_serve(outcome: Outcome, seconds: float, layers: Optional[Path]) -> None:
    """One server; open-loop sessions at the nominal rate, then the ladder."""
    workload, scale, seed = outcome.workload, outcome.scale, outcome.seed
    pinned = _pinned(SERVE_REFERENCE, scale)
    if pinned is not None:
        pool, references = pool_from_document(pinned)
        outcome.info["reference"] = f"pinned ({SERVE_REFERENCE.name})"
    else:
        context = _context(scale)
        pool, references = build_pool(context), None
        outcome.info["reference"] = "computed in-process"
    picker = HotSet(pool, seed) if workload == "serve-hot" else ColdMix(pool)
    warm_up = plan_warm_up(picker, seed, workload, WARM_UP_SESSIONS)
    nominal = plan_phase(picker, seed, workload, "nominal", NOMINAL_RATE, seconds)

    serve_args = [
        "serve", "--scale", scale, "--seed", str(SUITE_SEED), "--port", "0",
        *SERVE_FLAGS[workload],
    ]
    if layers is None:
        argv = ["-m", "repro.cli", *serve_args]
    else:
        argv = ["-m", "benchmarks.fisqlbench.launch", "--layers-out", str(layers),
                *serve_args]
    setups = []
    for _ in range(SETUPS - 1 if layers is None else 0):
        child, _, setup_s = _start_server(argv)
        setups.append(setup_s)
        child.finish(terminate=True)
    server, listening, setup_s = _start_server(argv)
    setups.append(setup_s)
    records_by_phase: dict[str, list] = {}
    ladder: list[LadderStep] = []
    try:
        host, port = _LISTENING.search(listening).groups()
        transport = _TRANSPORT.search(listening)
        # The threaded transport's listening line carries no tag.
        outcome.info["transport"] = transport.group(1) if transport else "thread"
        outcome.info["listening"] = listening
        warmer = LoadGenerator(host, int(port), WARM_UP_CONNECTIONS)
        try:
            phase = warmer.run_phase("warm-up", warm_up)
        finally:
            warmer.close()
        records_by_phase["warm-up"] = phase.records
        elapsed = max((r.done for r in phase.records), default=phase.start)
        outcome.phases["warm-up"] = _phase_summary(
            None, elapsed - phase.start, phase
        )
        generator = LoadGenerator(host, int(port))
        try:
            generator.warm_up()
            before = _cache_counters(generator)
            phase = generator.run_phase("nominal", nominal)
            records_by_phase["nominal"] = phase.records
            outcome.phases["nominal"] = _phase_summary(
                NOMINAL_RATE, seconds, phase
            )
            outcome.phases["nominal"].update(
                _cache_lookups(before, _cache_counters(generator))
            )
            for rate in LADDER_RATES if layers is None else ():
                name = f"ladder-{rate:g}"
                sessions = plan_phase(
                    picker, seed, workload, name, rate, LADDER_STEP_S
                )
                phase = generator.run_phase(
                    name, sessions, drop_after_s=MAX_LATE_MS / 1000.0
                )
                records_by_phase[name] = phase.records
                summary = _phase_summary(rate, LADDER_STEP_S, phase)
                step = LadderStep(
                    rate=rate,
                    turn_ms=tuple(_turn_ms(phase.records)),
                    attempted=summary["sent"],
                    failed=summary["failed"],
                    late_at_end_ms=summary["late_at_end_ms"],
                )
                summary["passed"] = step.passed
                outcome.phases[name] = summary
                ladder.append(step)
                if not step.passed:
                    break
            status, body, scrape_ms = generator.get("/metrics")
        finally:
            generator.close()
        code = server.finish(terminate=True)
    finally:
        server.kill()
    if code != 0:
        raise RunError(f"server exited {code}: {server.lines[-3:]}")

    if references is None:
        sent = {
            r.session.script.script_id: r.session.script
            for records in records_by_phase.values()
            for r in records
        }
        references = reference_sql(context, sent.values())
    answered, matched = _check_answers(outcome, references, records_by_phase)
    nominal_records = records_by_phase["nominal"]
    asks = [r for r in nominal_records if r.route == "ask"]
    feedbacks = [r for r in nominal_records if r.route == "feedback"]
    turns = _turn_ms(nominal_records)
    outcome.put("setup_s", statistics.median(setups), "s")
    outcome.put("latency_ms", percentile(turns, 0.5), "ms")
    outcome.put("ask_p50_ms", percentile(_turn_ms(asks), 0.5), "ms")
    outcome.put("feedback_p50_ms", percentile(_turn_ms(feedbacks), 0.5), "ms")
    outcome.put("turn_p90_ms", percentile(turns, 0.9), "ms")
    if layers is None:
        outcome.put("max_rate_sps", max_rate(ladder), "sessions/s")
    outcome.put("error_rate", outcome.failed / outcome.attempted, "ratio")
    outcome.put("answer_match", matched / max(answered, 1), "ratio")
    outcome.put("peak_rss_mb", server.peak_rss_mb, "MB")
    waits = [r.wait_ms for r in nominal_records]
    outcome.put("loadgen.wait_ms.p50", percentile(waits, 0.5), "ms")
    outcome.put("loadgen.late_ms.max", max(waits, default=0.0), "ms")
    outcome.put("obs.metrics_bytes", float(len(body)) if status == 200 else 0.0, "bytes")
    outcome.put("obs.scrape_ms", scrape_ms, "ms")
    outcome.info["nominal_turns"] = len(turns)
    if layers is not None:
        wire_ms = {r.request_id: r.wire_ms for r in nominal_records if r.ok}
        add_layer_metrics(outcome, _read_layers(layers), wire_ms)


def _check_answers(outcome: Outcome, references: dict, records_by_phase) -> tuple:
    """Compare every answered turn's SQL with the script's reference.

    Returns (turns answered, turns whose SQL matched).
    """
    answered = matched = 0
    for records in records_by_phase.values():
        for record in records:
            outcome.attempted += 1
            ok = record.ok
            if ok and record.route in ("ask", "feedback"):
                answered += 1
                turn = 0 if record.route == "ask" else 1
                script_id = record.session.script.script_id
                expected = references.get(script_id, [None, None])[turn]
                if sql_digest(record.sql) == expected:
                    matched += 1
                else:
                    ok = False
                    outcome.mismatched += 1
                    outcome.problem(
                        f"{record.request_id} ({script_id} turn {turn}): "
                        f"{record.sql!r}"
                    )
            elif not ok:
                outcome.problem(
                    f"{record.request_id}: status {record.status} "
                    f"{record.error or ''}"
                )
            if not ok:
                outcome.failed += 1
    return answered, matched


# -- traced runs --------------------------------------------------------------------


def _read_layers(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    finally:
        path.unlink()


def add_layer_metrics(
    outcome: Outcome, document: dict, wire_ms: Optional[dict] = None
) -> None:
    """Per-layer calls and self time, plus the ratios the layers explain.

    ``wire_ms`` (client send to last byte, per request id) joins with the
    server's inclusive ``handle_request`` time to give the transport's
    share of each request.
    """
    rows = document["layers"]
    routes = {
        name[len("serve.app."):]: row
        for name, row in rows.items()
        if name.startswith("serve.app.")
    }

    def total(layer: str, key: str) -> float:
        if layer == "serve.app":
            return sum(row[key] for row in routes.values())
        return rows.get(layer, {}).get(key, 0)

    for layer in LAYERS:
        outcome.put(f"{layer}.calls", total(layer, "calls"), "count")
        outcome.put(f"{layer}.self_ms", total(layer, "self_ms"), "ms")
    executes = total("sql.execute", "calls")
    outcome.put(
        "sql.parse.per_execute",
        total("sql.parse", "calls") / executes if executes else 0.0,
        "ratio",
    )
    outcome.put("sql.parse.failures", total("sql.parse", "failures"), "count")
    outcome.put("sql.execute.failures", total("sql.execute", "failures"), "count")
    for layer in ("llm.dispatch", "semcache"):
        lookups = total(layer, "lookups")
        outcome.put(
            f"{layer}.hit_ratio",
            total(layer, "hits") / lookups if lookups else 0.0,
            "ratio",
        )
    covered = sum(row["self_ms"] for row in rows.values())
    outcome.put("layers.coverage", 100.0 * covered / document["wall_ms"], "%")
    outcome.info["serve.app.routes"] = routes

    if wire_ms is not None:
        server = document["request_ms"]
        joined = [wire_ms[rid] - server[rid] for rid in wire_ms if rid in server]
        outcome.info["transport_joined"] = len(joined)
        outcome.put(
            "serve.transport.ms_per_request",
            sum(joined) / len(joined) if joined else 0.0,
            "ms",
        )


#: The end-to-end metric each workload's tracing overhead is taken on.
OVERHEAD_METRIC = {"sweep-full": "sweep_s"}


def tracing_overhead(outcome: Outcome, out_dir: Path) -> Optional[dict]:
    """Traced vs the latest untraced result of the same workload and seed."""
    metric = OVERHEAD_METRIC.get(outcome.workload, "latency_ms")
    candidates = []
    for path in out_dir.glob(f"{outcome.workload}-s{outcome.seed}-e2e-*.json"):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("scale") == outcome.scale:
            candidates.append((path.stat().st_mtime, document))
    if not candidates or metric not in outcome.metrics:
        return None
    untraced = max(candidates, key=lambda item: item[0])[1]
    base = untraced["metrics"][metric]["value"]
    traced = outcome.metrics[metric][0]
    return {
        "metric": metric,
        "untraced": base,
        "traced": traced,
        "overhead": traced / base - 1.0 if base else None,
    }


# -- one workload, end to end -------------------------------------------------------


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: str, out_dir: Path
) -> tuple[Outcome, Path]:
    """Run, check and record one workload; returns the outcome and its file."""
    outcome = Outcome(workload=workload, seed=seed, scale=scale, trace=trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    kind = "trace" if trace else "e2e"
    path = out_dir / f"{workload}-s{seed}-{kind}-{stamp}-{os.getpid()}.json"
    layers = out_dir / f".layers-{os.getpid()}.json" if trace else None
    started = time.perf_counter()
    runner = run_sweep if workload == "sweep-full" else run_serve
    runner(outcome, seconds, layers)
    document = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "seconds": seconds,
        "elapsed_s": time.perf_counter() - started,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
        },
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatched": outcome.mismatched,
        "problems": outcome.problems,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
        "phases": outcome.phases,
        "info": outcome.info,
        "tracing_overhead": tracing_overhead(outcome, out_dir) if trace else None,
    }
    path.write_text(json.dumps(document, indent=2, default=str) + "\n", encoding="utf-8")
    return outcome, path


# -- reporting ----------------------------------------------------------------------


def benchmark_metrics(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _format(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def print_report(outcome: Outcome, path: Path) -> None:
    status = "ok" if outcome.correct and not outcome.failed else "FAILED"
    print(
        f"fisqlbench {outcome.workload} seed={outcome.seed} scale={outcome.scale} "
        f"trace={int(outcome.trace)} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    for key in ("transport", "reference"):
        if key in outcome.info:
            print(f"  {key}: {outcome.info[key]}")
    for name, phase in outcome.phases.items():
        if "sent" in phase:
            caches = "".join(
                f", {cache} hits {phase[f'{cache}_hits']}/{phase[f'{cache}_lookups']}"
                for cache in _CACHE_SERIES
                if f"{cache}_lookups" in phase
            )
            print(
                f"  phase {name}: {phase['sessions']} sessions, sent "
                f"{phase['sent']} succeeded {phase['succeeded']} failed "
                f"{phase['failed']}, turn p90 {phase['turn_p90_ms']:.1f} ms"
                f"{caches}"
            )
    layer_rows = {f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_ms")}
    for name, (value, unit) in outcome.metrics.items():
        if name not in layer_rows:
            print(f"  {name:<36} {_format(value):>14} {unit}")
    if outcome.trace:
        print(f"  {'layer':<24} {'calls':>10} {'self ms':>12}")
        by_self = sorted(
            LAYERS, key=lambda layer: -outcome.metrics[f"{layer}.self_ms"][0]
        )
        for layer in by_self:
            calls = outcome.metrics[f"{layer}.calls"][0]
            self_ms = outcome.metrics[f"{layer}.self_ms"][0]
            print(f"  {layer:<24} {calls:>10,} {self_ms:>12,.1f}")
    print(
        f"  check: {status}: attempted {outcome.attempted}, failed "
        f"{outcome.failed}, mismatched {outcome.mismatched}"
    )
    for problem in outcome.problems:
        print(f"    {problem}")
    print(f"  result: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")


def result_line(outcomes: list[Outcome], trace: bool) -> dict:
    """The one-line JSON summary: the BENCHMARK.json metrics of the run."""
    names = [metric["name"] for metric in benchmark_metrics(trace)]
    metrics = {}
    for outcome in outcomes:
        prefix = f"{outcome.workload}." if len(outcomes) > 1 else ""
        for name in names:
            value, unit = outcome.metrics[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(outcome.correct for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }


# -- pinned references --------------------------------------------------------------

_BOLD_DECIMAL = re.compile(r"\*\*([0-9]+\.[0-9]+)")


def regenerate(workload: str) -> str:
    """Rewrite the pinned reference ``workload`` is checked against.

    Only scale ``full`` is pinned. The sweep digest is only pinned after
    the rendered text is seen to carry every measured number
    EXPERIMENTS.md reports in bold.
    """
    from .launch import digest, render_sweep

    scale = "full"
    EXPECTED.mkdir(exist_ok=True)
    context = _context(scale)
    if workload == "sweep-full":
        text, _ = render_sweep(context)
        document = {"scale": scale, "seed": SUITE_SEED, "sha256": digest(text)}
        experiments = ROOT / "EXPERIMENTS.md"
        if experiments.is_file():
            numbers = sorted(
                set(_BOLD_DECIMAL.findall(experiments.read_text(encoding="utf-8")))
            )
            missing = [number for number in numbers if number not in text]
            if missing:
                raise RunError(f"renders lack EXPERIMENTS.md numbers {missing}")
            document["experiments_md_numbers"] = numbers
        path = SWEEP_REFERENCE
    else:
        pool = build_pool(context)
        references = reference_sql(context, pool.errors + pool.asks)
        document = dict(
            pool_to_document(pool, references), scale=scale, seed=SUITE_SEED
        )
        path = SERVE_REFERENCE
    path.write_text(_one_entry_per_line(document), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _one_entry_per_line(document: dict) -> str:
    """JSON with one line per scalar key and per script: short diffs."""
    lines = []
    for key, value in sorted(document.items()):
        if key in ("errors", "asks"):
            entries = ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(value[name], ensure_ascii=False)}"
                for name in sorted(value)
            )
            lines.append(f" {json.dumps(key)}: {{\n{entries}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"
