"""Router unit tests: candidates, failover, ejection, hedging, parsers."""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    CircuitOpenError,
    LLMError,
    NoHealthyBackendError,
    TransientLLMError,
)
from repro.llm.interface import (
    KIND_FEEDBACK,
    KIND_NL2SQL,
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
    parse_route_map,
    probe_prompt,
    tiered_route_map,
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

    def __init__(self, script=None, default="ok", delay_s=0.0):
        self.script = list(script or [])
        self.default = default
        self.delay_s = delay_s
        self.calls: list[Prompt] = []

    def complete(self, prompt: Prompt) -> Completion:
        self.calls.append(prompt)
        if self.delay_s:
            time.sleep(self.delay_s)
        item = self.script.pop(0) if self.script else self.default
        if isinstance(item, Exception):
            raise item
        return Completion(text=item)


def make_pool(models: dict, clock=None, **kwargs) -> BackendPool:
    backends = [Backend(name, model) for name, model in models.items()]
    if clock is not None:
        kwargs["clock"] = clock.now
    return BackendPool(backends, **kwargs)


def routing_prompt(text: str = "q") -> Prompt:
    return Prompt(kind=KIND_ROUTING, text=text, payload={"feedback": text})


class TestPoolShape:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            BackendPool([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BackendPool(
                [Backend("a", ScriptedModel()), Backend("a", ScriptedModel())]
            )

    def test_lookup_and_contains(self):
        pool = make_pool({"a": ScriptedModel(), "b": ScriptedModel()})
        assert pool.names == ["a", "b"]
        assert "a" in pool and "missing" not in pool
        assert pool["b"].name == "b"
        with pytest.raises(KeyError):
            pool["missing"]


class TestRouting:
    def test_route_map_prefers_named_backend(self):
        strong, cheap = ScriptedModel(default="s"), ScriptedModel(default="c")
        pool = make_pool({"strong": strong, "cheap": cheap})
        router = RoutingChatModel(
            pool, route_map=tiered_route_map("strong", "cheap")
        )
        out = router.complete(routing_prompt())
        assert out.text == "c"
        assert not strong.calls

    def test_unmapped_kind_uses_pool_order(self):
        first, second = ScriptedModel(default="1"), ScriptedModel(default="2")
        pool = make_pool({"first": first, "second": second})
        router = RoutingChatModel(pool)
        assert router.complete(routing_prompt()).text == "1"
        assert not second.calls

    def test_route_map_to_unknown_backend_rejected(self):
        pool = make_pool({"only": ScriptedModel()})
        with pytest.raises(ValueError):
            RoutingChatModel(pool, route_map={KIND_NL2SQL: "missing"})


class TestFailover:
    def test_transient_error_fails_over(self):
        primary = ScriptedModel(script=[TransientLLMError("boom")])
        secondary = ScriptedModel(default="saved")
        pool = make_pool({"primary": primary, "secondary": secondary})
        router = RoutingChatModel(pool)
        assert router.complete(routing_prompt()).text == "saved"
        assert pool["primary"].health.consecutive_failures == 1
        assert pool["secondary"].health.calls_ok == 1

    def test_circuit_open_fails_over(self):
        primary = ScriptedModel(script=[CircuitOpenError("open")])
        secondary = ScriptedModel(default="saved")
        pool = make_pool({"primary": primary, "secondary": secondary})
        router = RoutingChatModel(pool)
        assert router.complete(routing_prompt()).text == "saved"

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
    def test_ejection_after_consecutive_failures(self):
        clock = FakeClock()
        primary = ScriptedModel(default=TransientLLMError("down"))
        secondary = ScriptedModel(default="ok")
        pool = make_pool(
            {"primary": primary, "secondary": secondary},
            clock=clock,
            eject_after=2,
        )
        router = RoutingChatModel(pool)
        for _ in range(2):
            router.complete(routing_prompt())
        assert not pool["primary"].health.healthy
        assert pool["primary"].health.ejections == 1
        # Ejected backends are skipped entirely on later calls.
        calls_before = len(primary.calls)
        router.complete(routing_prompt())
        assert len(primary.calls) == calls_before

    def test_all_ejected_fails_fast(self):
        clock = FakeClock()
        pool = make_pool(
            {"only": ScriptedModel(default=TransientLLMError("down"))},
            clock=clock,
            eject_after=1,
        )
        router = RoutingChatModel(pool)
        with pytest.raises(TransientLLMError):
            router.complete(routing_prompt())
        with pytest.raises(NoHealthyBackendError):
            router.complete(routing_prompt())

    def test_readmission_probe_after_delay(self):
        clock = FakeClock()
        primary = ScriptedModel(
            script=[TransientLLMError("down")], default="back"
        )
        pool = make_pool(
            {"primary": primary, "secondary": ScriptedModel(default="2nd")},
            clock=clock,
            eject_after=1,
            readmit_after_ms=1000.0,
        )
        router = RoutingChatModel(pool, probe_on_path=True)
        router.complete(routing_prompt())  # fails over, ejects primary
        assert not pool["primary"].health.healthy
        # Before the readmission delay: no probe fires.
        clock.advance(0.5)
        router.complete(routing_prompt())
        assert pool["primary"].health.probes == 0
        # After the delay the probe succeeds and readmits.
        clock.advance(0.6)
        assert router.complete(routing_prompt()).text == "back"
        health = pool["primary"].health
        assert health.healthy
        assert health.probes == 1
        assert health.readmissions == 1

    def test_failed_probe_keeps_backend_ejected(self):
        clock = FakeClock()
        primary = ScriptedModel(default=TransientLLMError("still down"))
        pool = make_pool(
            {"primary": primary, "secondary": ScriptedModel()},
            clock=clock,
            eject_after=1,
            readmit_after_ms=1000.0,
        )
        router = RoutingChatModel(pool, probe_on_path=True)
        router.complete(routing_prompt())
        clock.advance(1.1)
        router.complete(routing_prompt())
        health = pool["primary"].health
        assert not health.healthy
        assert health.probe_failures == 1
        # Probes are themselves rate-limited to the readmission interval.
        router.complete(routing_prompt())
        assert health.probes == 1

    def test_probe_prompt_is_cheap_routing_kind(self):
        prompt = probe_prompt()
        assert prompt.kind == KIND_ROUTING
        assert "feedback" in prompt.payload

    def test_health_snapshot_reports_breaker_and_ejection(self):
        clock = FakeClock()
        pool = make_pool(
            {"only": ScriptedModel(default=TransientLLMError("down"))},
            clock=clock,
            eject_after=1,
        )
        router = RoutingChatModel(pool)
        with pytest.raises(TransientLLMError):
            router.complete(routing_prompt())
        clock.advance(2.0)
        snapshot = pool.health_snapshot()
        entry = snapshot["only"]
        assert entry["healthy"] is False
        assert entry["ejections"] == 1
        assert entry["ejected_for_ms"] == pytest.approx(2000.0)


class TestHedging:
    def test_fast_primary_never_hedges(self):
        primary = ScriptedModel(default="fast")
        hedge = ScriptedModel(default="never")
        pool = make_pool({"primary": primary, "hedge": hedge})
        router = RoutingChatModel(pool, hedge_after_ms=500.0)
        assert router.complete(routing_prompt()).text == "fast"
        assert not hedge.calls

    def test_slow_primary_hedges_and_hedge_wins(self):
        primary = ScriptedModel(default="slow", delay_s=0.4)
        hedge = ScriptedModel(default="quick")
        pool = make_pool({"primary": primary, "hedge": hedge})
        router = RoutingChatModel(pool, hedge_after_ms=30.0)
        started = time.monotonic()
        out = router.complete(routing_prompt())
        elapsed = time.monotonic() - started
        assert out.text == "quick"
        assert elapsed < 0.35
        assert pool["hedge"].health.calls_ok == 1

    def test_both_hedge_slots_fail_then_third_serves(self):
        pool = make_pool(
            {
                "a": ScriptedModel(default=TransientLLMError("a"), delay_s=0.05),
                "b": ScriptedModel(default=TransientLLMError("b")),
                "c": ScriptedModel(default="third"),
            }
        )
        router = RoutingChatModel(pool, hedge_after_ms=1.0)
        assert router.complete(routing_prompt()).text == "third"

    def test_negative_hedge_rejected(self):
        pool = make_pool({"a": ScriptedModel()})
        with pytest.raises(ValueError):
            RoutingChatModel(pool, hedge_after_ms=-1.0)


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

    def test_parse_route_map_aliases(self):
        names = ["strong", "cheap"]
        parsed = parse_route_map(
            "nl2sql=strong,feedback=strong,routing=cheap,rewrite=cheap",
            names,
        )
        assert parsed == tiered_route_map("strong", "cheap")
        assert parse_route_map("correction=cheap", names) == {
            KIND_FEEDBACK: "cheap"
        }

    def test_parse_route_map_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown prompt kind"):
            parse_route_map("espresso=a", ["a"])
        with pytest.raises(ValueError, match="unknown backend"):
            parse_route_map("nl2sql=missing", ["a"])


class TestBuildBackendPool:
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
                    "primary=simulated,fault=outage,retries=0"
                ),
                parse_backend_spec("secondary=simulated"),
            ],
            clock=clock.now,
            sleep=lambda s: clock.advance(s),
            eject_after=2,
        )
        router = RoutingChatModel(pool)
        for i in range(20):
            out = router.complete(routing_prompt(f"q{i}"))
            assert isinstance(out, Completion)
        assert pool["secondary"].health.calls_ok > 0
