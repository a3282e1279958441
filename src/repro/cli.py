"""Command-line entry point: artifacts, the session server, trace tooling.

Subcommands::

    fisql-repro run figure2 --scale medium          # paper artifacts
    fisql-repro run all --scale small --metrics --trace /tmp/t.jsonl
    fisql-repro run all --journal /tmp/j --resume   # crash-safe resume
    fisql-repro serve --port 8080 --scale small     # session server
    fisql-repro top --port 8080                     # live /statusz dashboard
    fisql-repro cache stats --cache-dir /tmp/cache  # cache store ops
    fisql-repro semcache replay --semantic-cache-dir /tmp/sc  # audit hits
    fisql-repro journal stats --journal /tmp/j      # records, segments
    fisql-repro trace-summary /tmp/t.jsonl          # re-render a trace

Back-compat: the bare artifact form still works — ``fisql-repro figure2
--scale small`` is an alias for ``fisql-repro run figure2 --scale small``,
so existing docs and CI invocations keep running unchanged.

``run`` flags: ``--metrics`` prints a run report after the artifacts;
``--trace PATH`` writes the full JSONL span + metric export (schema in
:mod:`repro.obs.export`); ``--inject-faults PROFILE`` runs the experiment
against a seeded deterministic chaos harness (:mod:`repro.resilience`),
with ``--llm-retries``/``--llm-timeout`` tuning the resilient wrapper.

``serve`` boots the :mod:`repro.serve` session server over the databases
of an experiment context, instrumented from the start (``/metrics`` is
live immediately); SIGINT/SIGTERM drain gracefully. Its
``--semantic-cache`` answers chat asks from :mod:`repro.semcache`; ``run``
has no such flag, so no cached paraphrase answer reaches an artifact.
``semcache replay`` asks the live model each question the cache served
and reports where the two differ.

``trace-summary`` re-renders a saved ``--trace`` file as a flame-style
rollup with per-round drill-down — no experiment re-run needed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro import obs
from repro.eval.experiments import (
    run_figure2,
    run_figure8,
    run_table2,
    run_table3,
)
from repro.eval.harness import SCALES, build_context
from repro.eval.reporting import (
    render_figure2,
    render_figure2_chart,
    render_figure8,
    render_figure8_chart,
    render_table2,
    render_table3,
)
from repro.llm.interface import ChatModel
from repro.llm.simulated import SimulatedLLM
from repro.obs.reporting import render_run_report
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingChatModel,
    ResilientChatModel,
    RetryPolicy,
    VirtualClock,
    resolve_fault_profile,
)

#: Default retry budget when resilience flags are active.
DEFAULT_LLM_RETRIES = 2

_ARTIFACTS = {
    "figure2": (run_figure2, render_figure2),
    "table2": (run_table2, render_table2),
    "figure8": (run_figure8, render_figure8),
    "table3": (run_table3, render_table3),
}

_SUBCOMMANDS = (
    "run",
    "serve",
    "top",
    "cache",
    "semcache",
    "journal",
    "trace-summary",
    "chaos",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch a subcommand (or the bare-artifact alias for ``run``)."""
    parser = _build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    return args.func(args, parser)


def _normalize_argv(argv: Optional[Sequence[str]]) -> list:
    """Treat ``fisql-repro <artifact> …`` as ``fisql-repro run <artifact> …``.

    The alias triggers only when the first token is not a subcommand and
    some token names an artifact (or ``all``) — so ``fisql-repro -h`` and
    plain typos still reach the top-level parser untouched.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if (
        argv
        and argv[0] not in _SUBCOMMANDS
        and (set(argv) & (set(_ARTIFACTS) | {"all"}))
    ):
        return ["run"] + argv
    return argv


def _bounded(
    kind: Callable[[str], float],
    low: float,
    high: Optional[float] = None,
    *,
    strict: bool = False,
) -> Callable[[str], float]:
    """An argparse ``type=``: parse with ``kind``, then check the range.

    The value must be ``>= low`` (``> low`` when ``strict``) and, given
    ``high``, ``< high``. Outside the range argparse exits 2 with
    ``argument --FLAG: must be ...`` before the subcommand runs.
    """
    bound = f"{'>' if strict else '>='} {low}"
    if high is not None:
        bound += f" and < {high}"

    def convert(text: str) -> float:
        value = kind(text)
        inside = value > low if strict else value >= low
        if not (inside and (high is None or value < high)):
            raise argparse.ArgumentTypeError(f"must be {bound}: {value}")
        return value

    # argparse names the converter in "invalid int value: 'x'".
    convert.__name__ = kind.__name__
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisql-repro",
        description=(
            "FISQL reproduction: regenerate the paper's artifacts, host "
            "the interactive-correction session server, or inspect traces."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="regenerate the paper's tables and figures"
    )
    run.add_argument(
        "artifact",
        choices=sorted(_ARTIFACTS) + ["all"],
        help="which table/figure to regenerate",
    )
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="medium",
        help="experiment scale (full = the paper's sizes; default: medium)",
    )
    run.add_argument(
        "--seed", type=int, default=20250325, help="generator seed"
    )
    run.add_argument(
        "--chart",
        action="store_true",
        help="render figures as ASCII bar charts instead of tables",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print an observability run report after the artifacts",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL span/metric trace of the run to PATH",
    )
    run.add_argument(
        "--inject-faults",
        metavar="PROFILE",
        help=(
            "chaos-test the run: perturb LLM calls with a seeded "
            "deterministic fault profile (named: none, default, flaky, "
            "outage; or a spec like 'timeout=0.1,empty=0.05')"
        ),
    )
    run.add_argument(
        "--llm-retries",
        type=_bounded(int, 0),
        metavar="N",
        help=(
            "retries for transient LLM failures "
            f"(default {DEFAULT_LLM_RETRIES} when resilience is active)"
        ),
    )
    run.add_argument(
        "--llm-timeout",
        type=_bounded(float, 0, strict=True),
        metavar="MS",
        help="per-call deadline budget in ms across retries and backoff",
    )
    _add_backend_arguments(run)
    run.add_argument(
        "--workers",
        type=_bounded(int, 1),
        default=1,
        metavar="N",
        help=(
            "worker threads for evaluation sweeps and correction loops "
            "(results are byte-identical to --workers 1; default: 1)"
        ),
    )
    run.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "persist the completion cache under DIR (completions.json): "
            "warm runs answer repeated prompts from the cache"
        ),
    )
    run.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "journal each completed work item under DIR (fsync'd, "
            "crash-safe); pair with --resume to skip journaled items"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay completed items from a non-empty --journal DIR "
            "instead of recomputing them (required to reuse one)"
        ),
    )
    run.add_argument(
        "--suite-dir",
        metavar="DIR",
        help=(
            "persist generated benchmark suites under DIR; later runs at "
            "the same scale/seed load instead of regenerating"
        ),
    )
    run.set_defaults(func=_cmd_run)

    serve = subparsers.add_parser(
        "serve", help="host the interactive-correction session server"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="which experiment context to preload (default: small)",
    )
    serve.add_argument(
        "--seed", type=int, default=20250325, help="generator seed"
    )
    serve.add_argument(
        "--max-sessions",
        type=_bounded(int, 1),
        default=128,
        metavar="N",
        help="resident-session cap before LRU eviction / admission refusal",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=900.0,
        metavar="SECONDS",
        help="idle time after which a session is evicted (0 disables)",
    )
    serve.add_argument(
        "--llm-retries",
        type=_bounded(int, 0),
        default=DEFAULT_LLM_RETRIES,
        metavar="N",
        help="per-tenant retries for transient LLM failures",
    )
    serve.add_argument(
        "--llm-timeout",
        type=_bounded(float, 0, strict=True),
        metavar="MS",
        help="per-tenant per-call deadline budget in ms",
    )
    serve.add_argument(
        "--session-dir",
        metavar="DIR",
        help=(
            "persist evicted session transcripts as JSON under DIR; "
            "'resume' in POST /sessions restores them"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=_bounded(int, 1),
        metavar="N",
        help=(
            "shed chat requests beyond N concurrently in flight "
            "server-wide (503; default: unbounded)"
        ),
    )
    serve.add_argument(
        "--max-inflight-per-tenant",
        type=_bounded(int, 1),
        metavar="N",
        help=(
            "shed chat requests beyond N in flight for one tenant "
            "(429; default: unbounded)"
        ),
    )
    serve.add_argument(
        "--request-deadline-ms",
        type=_bounded(float, 0, strict=True),
        metavar="MS",
        help=(
            "shed chat requests that queued longer than MS before "
            "reaching the LLM (503; default: no deadline)"
        ),
    )
    serve.add_argument(
        "--log-dir",
        metavar="DIR",
        help=(
            "write a rotating structured JSONL event log under DIR "
            "(serve.request, cache.miss, llm.retry, journal.append events, "
            "each stamped with its request id)"
        ),
    )
    serve.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "durably journal every completed chat turn under DIR "
            "(fsync'd, correlation-id stamped)"
        ),
    )
    serve.add_argument(
        "--cache-max",
        type=_bounded(int, 1),
        metavar="N",
        help=(
            "share an in-memory completion cache (at most N entries) "
            "across every tenant stack (default: no cache)"
        ),
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=_bounded(float, 0, strict=True),
        metavar="MS",
        help=(
            "per-tenant latency objective for /statusz SLO accounting "
            "(default: 500)"
        ),
    )
    serve.add_argument(
        "--slo-target",
        type=_bounded(float, 0, 1, strict=True),
        default=0.95,
        metavar="FRACTION",
        help=(
            "fraction of a tenant's requests that should meet the "
            "latency objective (default: 0.95)"
        ),
    )
    serve.add_argument(
        "--read-timeout-ms",
        type=_bounded(float, 0, strict=True),
        metavar="MS",
        help=(
            "deadline for reading the whole request head, then again "
            "for the whole body: a peer that trickles its request (slow "
            "loris) is cut off (408 mid-body) instead of holding a "
            "thread (default: no deadline)"
        ),
    )
    serve.add_argument(
        "--max-body-bytes",
        type=_bounded(int, 1),
        metavar="BYTES",
        help=(
            "refuse request bodies larger than BYTES with 413 before "
            "reading them (default: 64 MiB)"
        ),
    )
    _add_backend_arguments(serve)
    serve.add_argument(
        "--probe-interval-ms",
        type=_bounded(float, 0, strict=True),
        metavar="MS",
        help=(
            "probe every backend every MS, also those whose breaker is "
            "closed (default: each second, only breakers whose cooldown "
            "is over)"
        ),
    )
    serve.add_argument(
        "--semantic-cache",
        action="store_true",
        help=(
            "serve repeated questions from the cross-request semantic "
            "answer cache (intent signatures + schema fingerprints); "
            "feedback rounds and schema changes always bypass"
        ),
    )
    serve.add_argument(
        "--semantic-cache-dir",
        metavar="DIR",
        help=(
            "persist the semantic store under DIR (semcache.json + a "
            "questions.jsonl replay log; requires --semantic-cache)"
        ),
    )
    serve.add_argument(
        "--semantic-cache-max",
        type=_bounded(int, 1),
        metavar="N",
        help=(
            "cap the semantic store at N entries with LRU eviction "
            "(requires --semantic-cache; default: 4096)"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a running server's /statusz",
    )
    top.add_argument("--host", default="127.0.0.1", help="server address")
    top.add_argument(
        "--port", type=int, default=8080, help="server port (default: 8080)"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    top.set_defaults(func=_cmd_top)

    cache = subparsers.add_parser(
        "cache",
        help="inspect or clear persisted completion/semantic caches",
    )
    cache.add_argument(
        "action",
        choices=("stats", "clear"),
        help="stats = print entry counts; clear = drop all entries",
    )
    cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory holding completions.json (as passed to run)",
    )
    cache.add_argument(
        "--semantic-cache-dir",
        metavar="DIR",
        help="directory holding semcache.json (as passed to serve)",
    )
    cache.set_defaults(func=_cmd_cache)

    semcache = subparsers.add_parser(
        "semcache",
        help="replay a recorded question log against the semantic store",
    )
    semcache.add_argument(
        "action",
        choices=("replay",),
        help=(
            "replay = re-classify questions.jsonl read-only and report "
            "hit/miss/bypass plus would-have-been-wrong divergences"
        ),
    )
    semcache.add_argument(
        "--semantic-cache-dir",
        required=True,
        metavar="DIR",
        help="directory holding semcache.json and questions.jsonl",
    )
    semcache.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="experiment context whose schemas to replay against",
    )
    semcache.add_argument(
        "--seed", type=int, default=20250325, help="generator seed"
    )
    semcache.add_argument(
        "--suite-dir",
        metavar="DIR",
        help="load the benchmark suites from DIR instead of regenerating",
    )
    semcache.set_defaults(func=_cmd_semcache)

    journal = subparsers.add_parser(
        "journal",
        help="inspect a run journal directory",
    )
    journal.add_argument(
        "action",
        choices=("stats",),
        help="stats = print record, segment and skipped-line counts",
    )
    journal.add_argument(
        "--journal",
        required=True,
        metavar="DIR",
        help="journal directory (as passed to run/serve --journal)",
    )
    journal.set_defaults(func=_cmd_journal)

    summary = subparsers.add_parser(
        "trace-summary",
        help="re-render a saved --trace JSONL file (no re-run needed)",
    )
    summary.add_argument("path", help="path to a JSONL trace file")
    summary.set_defaults(func=_cmd_trace_summary)

    chaos = subparsers.add_parser(
        "chaos",
        help="run hostile-environment scenarios and assert the invariants",
        description=(
            "Each scenario injects a specific hostile condition — a disk "
            "that fills mid-sweep, a slow-loris flood during drain, a "
            "connection-killing network — and asserts the hardening "
            "invariants: degraded-but-correct output, byte-identical "
            "resume, zero duplicated turns, honest readiness."
        ),
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help=(
            "run one named scenario (repeatable; default: all). "
            "Use --list to see the catalog."
        ),
    )
    chaos.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the scenario catalog and exit",
    )
    chaos.add_argument(
        "--dir",
        metavar="DIR",
        dest="work_dir",
        help=(
            "keep scenario working directories under DIR for inspection "
            "(default: a removed temporary directory)"
        ),
    )
    chaos.set_defaults(func=_cmd_chaos)

    return parser


def _add_backend_arguments(sub: argparse.ArgumentParser) -> None:
    """The multi-backend router flag, shared by ``run`` and ``serve``."""
    sub.add_argument(
        "--backend",
        action="append",
        metavar="NAME=KIND[,K=V...]",
        help=(
            "add a named backend to the router pool (repeatable; kinds: "
            "simulated, http). Options: model=, base-url=, api-key=, "
            "timeout-s=, fault=, fault-seed=, retries=, deadline-ms=, "
            "breaker-threshold=, breaker-reset-ms="
        ),
    )


def _validate_backend_arguments(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Reject router flags without a pool, and conflicting chaos flags."""
    if args.backend:
        if getattr(args, "inject_faults", None) is not None:
            parser.error(
                "--inject-faults conflicts with --backend; use a "
                "per-backend fault= option instead "
                "(e.g. --backend primary=simulated,fault=outage)"
            )
    elif getattr(args, "probe_interval_ms", None) is not None:
        parser.error("--probe-interval-ms requires at least one --backend")


# -- run ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the requested experiment(s) and print the paper-format output."""
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")
    _validate_backend_arguments(args, parser)
    _check_fault_workers(args, parser)
    try:
        llm = _build_llm(args)
    except ValueError as error:
        parser.error(str(error))

    cache = None
    if args.cache_dir is not None:
        from repro.llm.dispatch import CachingChatModel, CompletionCache

        cache = CompletionCache.load(args.cache_dir)
        # Cache hits return the deterministic backend's own completions,
        # so the artifact output stays byte-identical to an uncached run.
        llm = CachingChatModel(llm if llm is not None else SimulatedLLM(), cache)

    journal = None
    if args.journal is not None:
        from repro.durability import RunJournal

        journal = RunJournal(args.journal)
        if len(journal) and not args.resume:
            parser.error(
                f"journal {args.journal!r} already holds {len(journal)} "
                "records; pass --resume to replay them or point --journal "
                "at a fresh directory"
            )

    trace_preexisting = False
    if args.trace is not None:
        # Fail before the (possibly minutes-long) run, not at export time.
        # Probe in append mode: an existing trace must not be truncated by
        # the preflight — the run may still fail and the old trace is the
        # only one the user has.
        trace_preexisting = os.path.exists(args.trace)
        try:
            with open(args.trace, "a", encoding="utf-8"):
                pass
        except OSError as error:
            parser.error(f"cannot write trace file {args.trace!r}: {error}")

    instrumented = args.metrics or args.trace is not None
    if instrumented:
        # Span records only feed the trace file; the report's rollup is
        # kept running either way.
        obs.enable(
            max_spans=obs.DEFAULT_MAX_SPANS if args.trace is not None else 0
        )

    try:
        context = build_context(
            scale=args.scale,
            seed=args.seed,
            llm=llm,
            workers=args.workers,
            journal=journal,
            suite_dir=args.suite_dir,
        )
        chart_renderers = {
            "figure2": render_figure2_chart,
            "figure8": render_figure8_chart,
        }
        names = (
            sorted(_ARTIFACTS) if args.artifact == "all" else [args.artifact]
        )
        for index, name in enumerate(names):
            if index:
                print()
            runner, renderer = _ARTIFACTS[name]
            if args.chart and name in chart_renderers:
                renderer = chart_renderers[name]
            with obs.span(f"experiment.{name}", scale=args.scale):
                result = runner(context)
            print(renderer(result))

        if args.trace is not None:
            lines = obs.export_jsonl(args.trace)
            print(f"\n[obs] wrote {lines} trace lines to {args.trace}")
        if args.metrics:
            print()
            print(render_run_report(obs.snapshot()))
        if cache is not None:
            entries = cache.save(args.cache_dir)
            stats = cache.stats()
            # Diagnostics go to stderr so stdout (the artifacts) stays
            # byte-comparable across cold/warm/parallel runs.
            print(
                f"[cache] {stats['hits']} hits, {stats['misses']} misses; "
                f"{entries} entries saved to {args.cache_dir}",
                file=sys.stderr,
            )
        if journal is not None:
            # Report to stderr: stdout (the artifacts) must stay
            # byte-identical across cold and resumed runs.
            journal.close()
            print(f"[journal] {journal.summary()}", file=sys.stderr)
    except BaseException:
        if args.trace is not None and not trace_preexisting:
            _remove_empty_stub(args.trace)
        raise
    finally:
        if instrumented:
            obs.disable()
    return 0


def _check_fault_workers(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Reject injected faults at more than one worker.

    Each fault is drawn by the model's call index, and worker threads
    reorder the calls, so the run would not repeat.
    """
    if args.workers == 1:
        return
    from repro.llm.router import parse_backend_spec

    try:
        specs = [parse_backend_spec(text) for text in args.backend or ()]
    except ValueError as error:
        parser.error(str(error))
    if args.inject_faults is not None or any(
        spec.option("fault") is not None for spec in specs
    ):
        parser.error(
            "injected faults (--inject-faults or a backend's fault=) "
            "need --workers 1: each fault is drawn by call order, which "
            "worker threads change"
        )


def _build_llm(args: argparse.Namespace) -> Optional[ChatModel]:
    """The chat-model stack for this run; None keeps the cached default.

    Only assembled when a resilience flag is present, so plain runs stay
    byte-identical to the unwrapped pipeline.
    """
    if args.backend:
        return _build_routed_llm(args)
    if (
        args.inject_faults is None
        and args.llm_retries is None
        and args.llm_timeout is None
    ):
        return None
    llm: ChatModel = SimulatedLLM()
    if args.inject_faults is not None:
        profile = resolve_fault_profile(args.inject_faults, seed=args.seed)
        llm = FaultInjectingChatModel(llm, profile)
    retries = (
        args.llm_retries if args.llm_retries is not None else DEFAULT_LLM_RETRIES
    )
    # 1 ms of virtual latency per clock reading stands in for per-call
    # wall time, so an open breaker's cooldown elapses with call traffic.
    clock = VirtualClock(tick=0.001)
    return ResilientChatModel(
        llm,
        retry=RetryPolicy(
            max_retries=retries,
            deadline_ms=args.llm_timeout,
            seed=args.seed,
        ),
        breaker=CircuitBreaker(reset_after_ms=250.0, clock=clock.now),
        clock=clock.now,
        sleep=clock.sleep,
    )


def _build_routed_llm(args: argparse.Namespace) -> ChatModel:
    """A :class:`RoutingChatModel` over the ``--backend`` pool.

    Runs use the same deterministic virtual clock as the single-model
    resilient stack, so each breaker's trips and its half-open calls
    replay identically for a given seed and fault profile.
    """
    from repro.llm.router import (
        RoutingChatModel,
        build_backend_pool,
        parse_backend_spec,
    )

    specs = [parse_backend_spec(text) for text in args.backend]
    retries = (
        args.llm_retries if args.llm_retries is not None else DEFAULT_LLM_RETRIES
    )
    clock = VirtualClock(tick=0.001)
    pool = build_backend_pool(
        specs,
        clock=clock,
        sleep=clock.sleep,
        seed=args.seed,
        default_retries=retries,
        default_deadline_ms=args.llm_timeout,
        default_breaker_reset_ms=250.0,
    )
    return RoutingChatModel(pool)


def _remove_empty_stub(path: str) -> None:
    """Drop the preflight-created trace file if the run never filled it."""
    try:
        if os.path.exists(path) and os.path.getsize(path) == 0:
            os.remove(path)
    except OSError:
        pass


# -- serve -------------------------------------------------------------------------


def _cmd_serve(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Preload the context, build the app, and serve until signalled."""
    from repro.serve import (
        ServeApp,
        SessionManager,
        SessionStore,
        TenantPolicy,
        run_server,
    )

    # Every check that can exit comes first, before anything an exit
    # would leave behind: obs on, an open event log, a journal directory.
    _validate_backend_arguments(args, parser)
    if not args.semantic_cache:
        if args.semantic_cache_dir is not None:
            parser.error("--semantic-cache-dir requires --semantic-cache")
        if args.semantic_cache_max is not None:
            parser.error("--semantic-cache-max requires --semantic-cache")
    pool = None
    if args.backend:
        from repro.llm.router import build_backend_pool, parse_backend_spec

        try:
            specs = [parse_backend_spec(text) for text in args.backend]
            pool = build_backend_pool(
                specs,
                seed=args.seed,
                default_retries=args.llm_retries,
                default_deadline_ms=args.llm_timeout,
            )
        except ValueError as error:
            parser.error(str(error))

    # The server is instrumented from the start: /metrics renders the live
    # registry, and every request is spanned/counted. No span records are
    # kept, so the obs state stays a fixed size however long it serves.
    obs.enable(max_spans=0)
    if args.log_dir is not None:
        from repro.obs import StructuredLog

        obs.set_event_log(StructuredLog(args.log_dir))
    journal = None
    if args.journal is not None:
        from repro.durability import RunJournal

        journal = RunJournal(args.journal)
    cache = None
    if args.cache_max is not None:
        from repro.llm.dispatch import CompletionCache

        cache = CompletionCache(max_entries=args.cache_max)
    semcache = None
    if args.semantic_cache:
        from repro.semcache import SemanticAnswerCache

        semcache = SemanticAnswerCache(
            directory=args.semantic_cache_dir,
            max_entries=args.semantic_cache_max,
        )
    print(
        f"fisql-serve preloading context (scale={args.scale}, "
        f"seed={args.seed})..."
    )
    context = build_context(scale=args.scale, seed=args.seed)
    store = (
        SessionStore(args.session_dir) if args.session_dir is not None else None
    )
    manager = SessionManager(
        max_sessions=args.max_sessions,
        ttl_seconds=args.session_ttl if args.session_ttl > 0 else None,
        store=store,
    )
    policy = TenantPolicy(
        max_retries=args.llm_retries,
        deadline_ms=args.llm_timeout,
        max_inflight_total=args.max_inflight,
        max_inflight_per_tenant=args.max_inflight_per_tenant,
        request_deadline_ms=args.request_deadline_ms,
        slo_latency_ms=args.slo_latency_ms,
        slo_target=args.slo_target,
    )
    app = ServeApp.from_context(
        context,
        manager=manager,
        policy=policy,
        cache=cache,
        journal=journal,
        pool=pool,
        semcache=semcache,
    )
    if pool is not None:
        # Background probes: a tripped breaker's half-open call goes out
        # once its cooldown is over, without waiting for live traffic.
        pool.start_probing(args.probe_interval_ms)
    try:
        return run_server(
            app,
            host=args.host,
            port=args.port,
            read_timeout_ms=args.read_timeout_ms,
            max_body_bytes=args.max_body_bytes,
        )
    finally:
        if pool is not None:
            pool.stop_probing()
        if semcache is not None and semcache.directory is not None:
            semcache.save()
        obs.disable()  # also closes the structured event log
        if journal is not None:
            journal.close()


# -- top ---------------------------------------------------------------------------


def _cmd_top(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Poll a running server's /statusz and repaint the dashboard."""
    import time as time_module

    from repro.obs.top import (
        CLEAR_SCREEN,
        POLL_INTERVAL_S,
        POLL_TIMEOUT_S,
        render_top,
    )
    from repro.serve import ServeClient, ServeClientError

    client = ServeClient.connect(args.host, args.port, timeout=POLL_TIMEOUT_S)
    try:
        while True:
            try:
                payload = client.statusz()
            except (ServeClientError, OSError) as error:
                text = (
                    f"(cannot reach fisql-serve at "
                    f"{args.host}:{args.port}: {error})\n"
                )
            else:
                text = render_top(payload)
            if args.once:
                sys.stdout.write(text)
                return 0
            sys.stdout.write(CLEAR_SCREEN + text)
            sys.stdout.flush()
            time_module.sleep(POLL_INTERVAL_S)
    except KeyboardInterrupt:
        return 0


# -- cache -------------------------------------------------------------------------


def _cmd_cache(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Inspect or clear the persisted completion and/or semantic caches."""
    if args.cache_dir is None and args.semantic_cache_dir is None:
        parser.error(
            "pass --cache-dir and/or --semantic-cache-dir to pick a store"
        )
    if args.cache_dir is not None:
        from repro.llm.dispatch import CACHE_FILENAME, CompletionCache

        cache = CompletionCache.load(args.cache_dir)
        path = os.path.join(args.cache_dir, CACHE_FILENAME)
        if args.action == "stats":
            stats = cache.stats()
            size = os.path.getsize(path) if os.path.exists(path) else 0
            print(f"cache {path}")
            print(f"  entries: {stats['entries']}")
            print(f"  bytes:   {size}")
            print(f"  evictions: {stats['evictions']}")
        else:
            dropped = cache.clear()
            cache.save(args.cache_dir)
            print(f"cleared {dropped} entries from {path}")
    if args.semantic_cache_dir is not None:
        from repro.semcache import STORE_FILENAME, SemanticAnswerCache

        store = SemanticAnswerCache(directory=args.semantic_cache_dir)
        path = os.path.join(args.semantic_cache_dir, STORE_FILENAME)
        if args.action == "stats":
            stats = store.stats()
            size = os.path.getsize(path) if os.path.exists(path) else 0
            print(f"semcache {path}")
            print(f"  entries:       {stats['entries']}")
            print(f"  bytes:         {size}")
            print(f"  hits:          {stats['hits']}")
            print(f"  misses:        {stats['misses']}")
            print(f"  bypasses:      {stats['bypasses']}")
            print(f"  invalidations: {stats['invalidations']}")
            print(f"  evictions:     {stats['evictions']}")
            print(f"  fingerprints:  {stats['fingerprints']}")
        else:
            dropped = store.clear()
            store.save()
            print(f"cleared {dropped} entries from {path}")
    return 0


# -- semcache ----------------------------------------------------------------------


def _cmd_semcache(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Replay the recorded question log against the persisted store."""
    from repro.semcache import (
        SemanticAnswerCache,
        read_question_log,
        render_replay_report,
        replay,
    )
    from repro.serve.server import context_catalog

    records, skipped = read_question_log(args.semantic_cache_dir)
    if not records and not skipped:
        parser.error(
            f"no question log found under {args.semantic_cache_dir!r} "
            "(serve with --semantic-cache --semantic-cache-dir first)"
        )
    store = SemanticAnswerCache(directory=args.semantic_cache_dir)
    context = build_context(
        scale=args.scale, seed=args.seed, suite_dir=args.suite_dir
    )
    report = replay(store, context_catalog(context), context.llm, records)
    report["skipped_lines"] = skipped
    print(render_replay_report(report))
    return 0


# -- journal -----------------------------------------------------------------------


def _cmd_journal(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Print a journal's record, segment and skipped-line counts."""
    from repro.durability import journal_stats

    try:
        stats = journal_stats(args.journal)
    except FileNotFoundError as error:
        parser.error(str(error))
    print(f"journal {args.journal}")
    print(f"  records:       {stats['records']}")
    print(f"  segments:      {stats['segments']}")
    print(f"  skipped lines: {stats['skipped_lines']}")
    return 0


# -- trace-summary -----------------------------------------------------------------


def _cmd_trace_summary(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Render the flame rollup + drill-downs for a saved trace."""
    from repro.obs.trace_summary import summarize_trace_file

    try:
        print(summarize_trace_file(args.path))
    except (OSError, ValueError) as error:
        parser.error(f"cannot summarize {args.path!r}: {error}")
    return 0


# -- chaos -------------------------------------------------------------------------


def _cmd_chaos(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Run the selected chaos scenarios and report every invariant check."""
    from repro.chaos.scenarios import SCENARIOS, run_scenario

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:24s} {doc}")
        return 0

    selected = args.scenario or sorted(SCENARIOS)
    unknown = [name for name in selected if name not in SCENARIOS]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(sorted(set(unknown)))}; "
            f"choose from {', '.join(sorted(SCENARIOS))}"
        )

    work_dir = Path(args.work_dir) if args.work_dir else None
    failures = 0
    for name in selected:
        print(f"=== chaos: {name} ===")
        report = run_scenario(name, work_dir=work_dir)
        for check in report["checks"]:
            verdict = "ok  " if check["passed"] else "FAIL"
            line = f"  {verdict} {check['name']}"
            if check["detail"]:
                line += f" -- {check['detail']}"
            print(line)
        passed = report["passed"]
        failures += 0 if passed else 1
        print(f"  scenario {'passed' if passed else 'FAILED'}")
    total = len(selected)
    print(f"chaos: {total - failures}/{total} scenarios passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
