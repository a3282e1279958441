"""Router unit tests: pool order, failover, breaker-driven health, probes,
parsers."""

from __future__ import annotations

import time

import pytest

from repro.cli import _build_parser, _build_routed_llm
from repro.cli import main as cli_main
from repro.errors import CircuitOpenError, LLMError, TransientLLMError
from repro.llm.interface import (
    KIND_ROUTING,
    Completion,
    Prompt,
)
from repro.llm.router import (
    Backend,
    BackendPool,
    RoutingChatModel,
    build_backend_pool,
    parse_backend_spec,
    probe_prompt,
)
from repro.resilience import (
    CircuitBreaker,
    ResilientChatModel,
    RetryPolicy,
    VirtualClock,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class ScriptedModel:
    """Replays a script of completions/exceptions, then a default."""

    def __init__(self, script=None, default="ok"):
        self.script = list(script or [])
        self.default = default
        self.calls: list[Prompt] = []

    def complete(self, prompt: Prompt) -> Completion:
        self.calls.append(prompt)
        item = self.script.pop(0) if self.script else self.default
        if isinstance(item, Exception):
            raise item
        return Completion(text=item)

    def probes(self) -> int:
        return sum(call == probe_prompt() for call in self.calls)


def make_backend(name, model, clock=None, threshold=5, reset_ms=1000.0):
    """A backend as ``build_backend_pool`` builds it: the model behind a
    resilient stack (no retries) around the backend's own breaker."""
    now = clock.now if clock is not None else time.monotonic
    breaker = CircuitBreaker(
        failure_threshold=threshold,
        reset_after_ms=reset_ms,
        clock=now,
        name=name,
        labels={"backend": name},
    )
    stack = ResilientChatModel(
        model, retry=RetryPolicy(max_retries=0), breaker=breaker, clock=now
    )
    return Backend(name, stack, breaker)


def make_pool(models: dict, clock=None, **kwargs) -> BackendPool:
    return BackendPool(
        [
            make_backend(name, model, clock=clock, **kwargs)
            for name, model in models.items()
        ]
    )


def routing_prompt(text: str = "q") -> Prompt:
    return Prompt(kind=KIND_ROUTING, text=text, payload={"feedback": text})


class TestPoolShape:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            BackendPool([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BackendPool(
                [
                    make_backend("a", ScriptedModel()),
                    make_backend("a", ScriptedModel()),
                ]
            )

    def test_lookup_and_contains(self):
        pool = make_pool({"a": ScriptedModel(), "b": ScriptedModel()})
        assert pool.names == ["a", "b"]
        assert "a" in pool and "missing" not in pool
        assert pool["b"].name == "b"
        with pytest.raises(KeyError):
            pool["missing"]

    def test_a_backend_needs_a_breaker(self):
        with pytest.raises(ValueError, match="circuit breaker"):
            Backend("a", ScriptedModel(), None)


class TestRouting:
    def test_unmapped_kind_uses_pool_order(self):
        first, second = ScriptedModel(default="1"), ScriptedModel(default="2")
        pool = make_pool({"first": first, "second": second})
        router = RoutingChatModel(pool)
        assert router.complete(routing_prompt()).text == "1"
        assert not second.calls


class TestFailover:
    def test_transient_error_fails_over(self):
        primary = ScriptedModel(script=[TransientLLMError("boom")])
        secondary = ScriptedModel(default="saved")
        pool = make_pool({"primary": primary, "secondary": secondary})
        router = RoutingChatModel(pool)
        assert router.complete(routing_prompt()).text == "saved"
        assert pool["primary"].breaker.consecutive_failures == 1
        assert pool["primary"].calls_failed == 1
        assert pool["secondary"].calls_ok == 1

    def test_circuit_open_fails_over(self):
        primary = ScriptedModel(default=TransientLLMError("down"))
        secondary = ScriptedModel(default="saved")
        pool = make_pool(
            {"primary": primary, "secondary": secondary}, threshold=1
        )
        router = RoutingChatModel(pool)
        router.complete(routing_prompt())  # trips the primary's breaker
        # The open breaker refuses inside the primary's own stack: the
        # router fails over without the call reaching the primary.
        assert router.complete(routing_prompt()).text == "saved"
        assert len(primary.calls) == 1
        assert pool["primary"].calls_failed == 1
        assert pool["secondary"].calls_ok == 2

    def test_fatal_error_propagates_without_failover(self):
        primary = ScriptedModel(script=[LLMError("bad request")])
        secondary = ScriptedModel(default="never")
        pool = make_pool({"primary": primary, "secondary": secondary})
        router = RoutingChatModel(pool)
        with pytest.raises(LLMError):
            router.complete(routing_prompt())
        assert not secondary.calls

    def test_all_transient_raises_last_error(self):
        pool = make_pool(
            {
                "a": ScriptedModel(default=TransientLLMError("a down")),
                "b": ScriptedModel(default=TransientLLMError("b down")),
            }
        )
        router = RoutingChatModel(pool)
        with pytest.raises(TransientLLMError, match="b down"):
            router.complete(routing_prompt())


class TestEjectionAndReadmission:
    """A backend's breaker is its health: a trip ejects it, and closing
    again after the half-open call readmits it."""

    def test_ejection_after_consecutive_failures(self):
        clock = FakeClock()
        primary = ScriptedModel(default=TransientLLMError("down"))
        secondary = ScriptedModel(default="ok")
        pool = make_pool(
            {"primary": primary, "secondary": secondary},
            clock=clock,
            threshold=2,
        )
        router = RoutingChatModel(pool)
        router.complete(routing_prompt())
        assert pool.health_snapshot()["primary"]["healthy"] is True
        router.complete(routing_prompt())
        entry = pool.health_snapshot()["primary"]
        assert entry["healthy"] is False
        assert entry["ejections"] == 1
        # An ejected backend's calls stop at its open breaker.
        calls_before = len(primary.calls)
        router.complete(routing_prompt())
        assert len(primary.calls) == calls_before

    def test_all_ejected_fails_fast(self):
        clock = FakeClock()
        only = ScriptedModel(default=TransientLLMError("down"))
        pool = make_pool({"only": only}, clock=clock, threshold=1)
        router = RoutingChatModel(pool)
        with pytest.raises(TransientLLMError):
            router.complete(routing_prompt())
        with pytest.raises(CircuitOpenError):
            router.complete(routing_prompt())
        assert len(only.calls) == 1

    def test_readmission_probe_after_delay(self):
        # Under the virtual clock the CLI runs on, the first live call
        # after the cooldown is the breaker's half-open probe: its
        # success readmits the backend, and no probe prompt goes out.
        clock = VirtualClock()
        primary = ScriptedModel(
            script=[TransientLLMError("down")], default="back"
        )
        pool = make_pool(
            {"primary": primary, "secondary": ScriptedModel(default="2nd")},
            clock=clock,
            threshold=1,
            reset_ms=1000.0,
        )
        router = RoutingChatModel(pool)
        router.complete(routing_prompt())  # fails over, ejects primary
        assert pool.health_snapshot()["primary"]["healthy"] is False
        # Before the cooldown the primary is not called.
        clock.advance(0.5)
        assert router.complete(routing_prompt()).text == "2nd"
        assert len(primary.calls) == 1
        # After it, the next live call goes through and readmits.
        clock.advance(0.6)
        assert router.complete(routing_prompt()).text == "back"
        entry = pool.health_snapshot()["primary"]
        assert entry["healthy"] is True
        assert entry["ejections"] == 1
        assert entry["readmissions"] == 1
        assert primary.probes() == 0

    def test_failed_probe_keeps_backend_ejected(self):
        clock = VirtualClock()
        primary = ScriptedModel(default=TransientLLMError("still down"))
        pool = make_pool(
            {"primary": primary, "secondary": ScriptedModel()},
            clock=clock,
            threshold=1,
            reset_ms=1000.0,
        )
        router = RoutingChatModel(pool)
        router.complete(routing_prompt())
        for _ in range(3):
            # Each cooldown lets one half-open call through; each fails
            # and re-opens the breaker, which is not a new ejection.
            clock.advance(1.1)
            router.complete(routing_prompt())
            router.complete(routing_prompt())
        entry = pool.health_snapshot()["primary"]
        assert len(primary.calls) == 4
        assert entry["healthy"] is False
        assert entry["ejections"] == 1
        assert entry["readmissions"] == 0

    def test_probe_prompt_is_cheap_routing_kind(self):
        prompt = probe_prompt()
        assert prompt.kind == KIND_ROUTING
        assert "feedback" in prompt.payload

    def test_health_snapshot_reports_breaker_and_ejection(self):
        clock = FakeClock()
        pool = make_pool(
            {"only": ScriptedModel(default=TransientLLMError("down"))},
            clock=clock,
            threshold=1,
            reset_ms=5000.0,
        )
        router = RoutingChatModel(pool)
        with pytest.raises(TransientLLMError):
            router.complete(routing_prompt())
        clock.advance(2.0)
        assert pool.health_snapshot()["only"] == {
            "healthy": False,
            "consecutive_failures": 1,
            "calls_ok": 0,
            "calls_failed": 1,
            "ejections": 1,
            "readmissions": 0,
            "breaker": "open",
            "breaker_probe_in_ms": 3000.0,
        }


class TestProbing:
    """The background prober of ``serve``: each round probes a breaker
    whose cooldown is over, and with liveness every closed breaker."""

    def test_a_round_probes_a_due_breaker_once_and_readmits(self):
        clock = FakeClock()
        primary = ScriptedModel(script=[TransientLLMError("down")])
        secondary = ScriptedModel()
        pool = make_pool(
            {"primary": primary, "secondary": secondary},
            clock=clock,
            threshold=1,
            reset_ms=1000.0,
        )
        RoutingChatModel(pool).complete(routing_prompt())  # ejects primary
        pool.probe_round()  # cooldown not over: nothing is due
        assert primary.probes() == 0
        clock.advance(1.0)
        pool.probe_round()
        assert primary.probes() == 1
        entry = pool.health_snapshot()["primary"]
        assert entry["healthy"] is True
        assert entry["readmissions"] == 1
        pool.probe_round()  # closed again: no longer due
        assert primary.probes() == 1
        # A closed breaker is probed only for liveness, and a probe is
        # not a routed call.
        assert secondary.probes() == 0
        assert pool["primary"].calls_ok == 0

    def test_a_failed_probe_waits_out_a_new_cooldown(self):
        clock = FakeClock()
        primary = ScriptedModel(default=TransientLLMError("down"))
        pool = make_pool(
            {"primary": primary}, clock=clock, threshold=1, reset_ms=1000.0
        )
        with pytest.raises(TransientLLMError):
            RoutingChatModel(pool).complete(routing_prompt())
        clock.advance(1.0)
        pool.probe_round()
        pool.probe_round()
        assert primary.probes() == 1
        assert pool.health_snapshot()["primary"]["ejections"] == 1

    def test_liveness_probes_every_closed_breaker(self):
        first, second = ScriptedModel(), ScriptedModel()
        pool = make_pool({"first": first, "second": second})
        pool.probe_round(liveness=True)
        assert (first.probes(), second.probes()) == (1, 1)

    def test_the_background_loop_readmits(self):
        primary = ScriptedModel(script=[TransientLLMError("down")])
        pool = make_pool(
            {"primary": primary, "secondary": ScriptedModel()},
            threshold=1,
            reset_ms=20.0,
        )
        RoutingChatModel(pool).complete(routing_prompt())
        pool.start_probing(interval_ms=5.0)
        try:
            deadline = time.monotonic() + 5.0
            while not pool.health_snapshot()["primary"]["healthy"]:
                assert time.monotonic() < deadline, "never readmitted"
                time.sleep(0.01)
        finally:
            pool.stop_probing()
        assert pool.health_snapshot()["primary"]["readmissions"] == 1
        assert primary.probes() >= 1


class TestHealthReadsMoveNoClock:
    """Reading a routed run's health leaves its virtual clock alone: the
    breakers' countdowns read the clock's ``peek``, not its ticking
    ``now``."""

    SPECS = [
        "primary=simulated,fault=outage,retries=0,breaker-threshold=1,"
        "breaker-reset-ms=20",
        "secondary=simulated",
    ]

    def _routed(self):
        argv = ["run", "table2"]
        for spec in self.SPECS:
            argv += ["--backend", spec]
        return _build_routed_llm(_build_parser().parse_args(argv))

    def _drive(self, snapshot_between_calls: bool) -> list:
        """The primary's counts after each of 120 routed calls."""
        router = self._routed()
        primary = router.pool["primary"]
        counts = []
        for index in range(120):
            router.complete(routing_prompt(f"use the name column {index}"))
            if snapshot_between_calls:
                router.pool.health_snapshot()
            counts.append(
                (
                    primary.calls_ok,
                    primary.calls_failed,
                    primary.breaker.trips,
                    primary.breaker.recoveries,
                )
            )
        return counts

    def test_two_snapshots_in_a_row_are_equal(self):
        router = self._routed()
        while router.pool["primary"].breaker.trips == 0:
            router.complete(routing_prompt())
        first = router.pool.health_snapshot()
        assert "breaker_probe_in_ms" in first["primary"]
        assert router.pool.health_snapshot() == first

    def test_snapshots_between_calls_leave_the_half_open_call_in_place(self):
        plain = self._drive(snapshot_between_calls=False)
        watched = self._drive(snapshot_between_calls=True)
        # The primary tripped and was readmitted by a half-open call...
        assert plain[-1][3] >= 1
        # ...on the same call whether or not health was read in between.
        assert watched == plain


class TestParsers:
    def test_parse_backend_spec_simulated(self):
        spec = parse_backend_spec("primary=simulated,fault=outage,retries=1")
        assert spec.name == "primary"
        assert spec.kind == "simulated"
        assert spec.option("fault") == "outage"
        assert spec.option("retries") == "1"
        assert spec.option("missing", "dflt") == "dflt"

    def test_parse_backend_spec_http_requires_base_url(self):
        with pytest.raises(ValueError, match="base-url"):
            parse_backend_spec("api=http")
        spec = parse_backend_spec(
            "api=http,base-url=http://127.0.0.1:9/v1,model=gpt-4"
        )
        assert spec.option("base-url") == "http://127.0.0.1:9/v1"

    @pytest.mark.parametrize(
        "text",
        ["", "noequals", "x=teapot", "a=simulated,bogus-key=1"],
    )
    def test_parse_backend_spec_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_backend_spec(text)


class TestBuildBackendPool:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a=simulated,breaker-threshold=0", "failure_threshold must be >= 1"),
            ("a=simulated,breaker-reset-ms=0", "reset_after_ms must be > 0"),
            (
                "a=http,base-url=http://127.0.0.1:9/v1,timeout-s=0",
                "timeout_s must be > 0",
            ),
        ],
    )
    def test_an_explicit_zero_reaches_the_constructor_check(self, spec, message):
        with pytest.raises(ValueError, match=message):
            build_backend_pool([parse_backend_spec(spec)])

    @pytest.mark.parametrize(
        "command", [["run", "table2", "--scale", "small"], ["serve"]]
    )
    @pytest.mark.parametrize(
        "option, message",
        [
            ("breaker-threshold=0", "failure_threshold must be >= 1: 0"),
            ("breaker-reset-ms=0", "reset_after_ms must be > 0: 0.0"),
        ],
    )
    def test_the_cli_rejects_an_explicit_zero(
        self, capsys, monkeypatch, command, option, message
    ):
        def refuse(**_kwargs):
            raise AssertionError("build_context ran")

        monkeypatch.setattr("repro.cli.build_context", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(command + ["--backend", f"a=simulated,{option}"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_fault_seed_zero_seeds_the_fault_plan_with_zero(self):
        pool = build_backend_pool(
            [
                parse_backend_spec("a=simulated,fault=outage,fault-seed=0"),
                parse_backend_spec("b=simulated,fault=outage"),
            ],
            seed=7,
        )
        assert pool["a"].model.inner.profile.seed == 0
        assert pool["b"].model.inner.profile.seed == 7

    def test_builds_isolated_breaker_per_backend(self):
        clock = FakeClock()
        pool = build_backend_pool(
            [
                parse_backend_spec("a=simulated,breaker-threshold=2"),
                parse_backend_spec("b=simulated"),
            ],
            clock=clock.now,
            sleep=lambda s: clock.advance(s),
        )
        assert pool.names == ["a", "b"]
        assert pool["a"].breaker is not pool["b"].breaker
        assert pool["a"].breaker.state == "closed"

    def test_faulted_backend_ejects_and_pool_survives(self):
        clock = FakeClock()
        pool = build_backend_pool(
            [
                parse_backend_spec(
                    "primary=simulated,fault=outage,retries=0,"
                    "breaker-threshold=2"
                ),
                parse_backend_spec("secondary=simulated"),
            ],
            clock=clock.now,
            sleep=lambda s: clock.advance(s),
        )
        router = RoutingChatModel(pool)
        for i in range(20):
            out = router.complete(routing_prompt(f"q{i}"))
            assert isinstance(out, Completion)
        assert pool["secondary"].calls_ok > 0
        assert pool.health_snapshot()["primary"]["ejections"] == 1
