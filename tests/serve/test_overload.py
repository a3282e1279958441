"""Overload protection: the shed gate, 429/503 mapping, readyz, drain."""

import pytest

from repro.errors import OverloadError
from repro.serve import (
    LoadShedGate,
    ServeApp,
    ServeClient,
    SessionManager,
    TenantPolicy,
)
from repro.serve.protocol import json_decode, json_encode


class FakeClock:
    def __init__(self, tick: float = 0.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLoadShedGate:
    def test_unbounded_by_default(self):
        gate = LoadShedGate()
        with gate.admit("t"):
            with gate.admit("t"):
                assert gate.inflight() == 2
        assert gate.inflight() == 0

    def test_global_cap_sheds_overloaded(self):
        gate = LoadShedGate(max_inflight=1)
        with gate.admit("a"):
            with pytest.raises(OverloadError) as excinfo:
                with gate.admit("b"):
                    pass
        assert excinfo.value.reason == "overloaded"
        # The slot freed: admission works again.
        with gate.admit("b"):
            pass
        assert gate.stats()["shed"] == {"overloaded": 1}

    def test_tenant_cap_isolates_tenants(self):
        gate = LoadShedGate(max_inflight_per_tenant=1)
        with gate.admit("noisy"):
            with pytest.raises(OverloadError) as excinfo:
                with gate.admit("noisy"):
                    pass
            assert excinfo.value.reason == "tenant_overloaded"
            with gate.admit("quiet"):  # other tenants unaffected
                assert gate.inflight("quiet") == 1

    def test_shed_request_releases_no_slot(self):
        gate = LoadShedGate(max_inflight=1)
        with gate.admit("a"):
            for _ in range(3):
                with pytest.raises(OverloadError):
                    with gate.admit("a"):
                        pass
            assert gate.inflight() == 1

    def test_deadline(self):
        clock = FakeClock()
        gate = LoadShedGate(deadline_ms=100.0, clock=clock)
        arrived = clock()
        clock.advance(0.05)
        gate.check_deadline(arrived)  # 50ms: fine
        clock.advance(0.1)
        with pytest.raises(OverloadError) as excinfo:
            gate.check_deadline(arrived)
        assert excinfo.value.reason == "deadline_exceeded"

    def test_no_deadline_never_sheds(self):
        gate = LoadShedGate()
        gate.check_deadline(-1e9)

    def test_stats(self):
        gate = LoadShedGate(max_inflight=4, max_inflight_per_tenant=2)
        with gate.admit("t"):
            stats = gate.stats()
        assert stats["inflight"] == 1
        assert stats["max_inflight"] == 4
        assert stats["max_inflight_per_tenant"] == 2
        assert stats["admitted"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadShedGate(max_inflight=0)
        with pytest.raises(ValueError):
            LoadShedGate(max_inflight_per_tenant=0)
        with pytest.raises(ValueError):
            LoadShedGate(deadline_ms=0)

    def test_overload_error_is_not_llm_error(self):
        # Retry policies must never burn attempts on shed requests.
        from repro.errors import LLMError

        assert not issubclass(OverloadError, LLMError)


def _make_app(aep_catalog, sequential_ids, **policy_kwargs):
    clock = policy_kwargs.pop("clock", None)
    kwargs = {"manager": SessionManager(id_factory=sequential_ids)}
    if clock is not None:
        kwargs["clock"] = clock
    return ServeApp(
        aep_catalog,
        policy=TenantPolicy(**policy_kwargs),
        **kwargs,
    )


def _ask_status(app, session_id):
    status, _, body = app.handle(
        "POST",
        f"/sessions/{session_id}/ask",
        json_encode({"question": "How many audiences are there?"}),
    )
    return status, json_decode(body)


class TestServerSheds:
    def test_global_overload_is_503(self, aep_catalog, sequential_ids):
        app = _make_app(aep_catalog, sequential_ids, max_inflight_total=1)
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep", tenant="a")
        with app.gate.admit("elsewhere"):
            status, payload = _ask_status(app, session["id"])
        assert status == 503
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["retryable"] is True
        # Slot released: the same ask now succeeds.
        status, _ = _ask_status(app, session["id"])
        assert status == 200

    def test_tenant_overload_is_429(self, aep_catalog, sequential_ids):
        app = _make_app(
            aep_catalog, sequential_ids, max_inflight_per_tenant=1
        )
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep", tenant="noisy")
        with app.gate.admit("noisy"):
            status, payload = _ask_status(app, session["id"])
        assert status == 429
        assert payload["error"]["code"] == "tenant_overloaded"
        assert payload["error"]["retryable"] is True

    def test_other_tenant_unaffected(self, aep_catalog, sequential_ids):
        app = _make_app(
            aep_catalog, sequential_ids, max_inflight_per_tenant=1
        )
        client = ServeClient.in_process(app)
        quiet = client.create_session(db="aep", tenant="quiet")
        with app.gate.admit("noisy"):
            status, _ = _ask_status(app, quiet["id"])
        assert status == 200

    def test_deadline_exceeded_is_503(self, aep_catalog, sequential_ids):
        # Every clock reading advances 200ms: by the time the post-lock
        # deadline check reads the clock, the request has "waited" past
        # its 100ms deadline without any real sleeping.
        clock = FakeClock(tick=0.2)
        app = _make_app(
            aep_catalog,
            sequential_ids,
            request_deadline_ms=100.0,
            clock=clock,
        )
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        status, payload = _ask_status(app, session["id"])
        assert status == 503
        assert payload["error"]["code"] == "deadline_exceeded"

    def test_unknown_session_still_404(self, aep_catalog, sequential_ids):
        app = _make_app(aep_catalog, sequential_ids, max_inflight_total=8)
        status, payload = _ask_status(app, "ghost")
        assert status == 404
        assert payload["error"]["code"] == "unknown_session"


class TestReadyz:
    def test_ready_when_serving(self, aep_catalog, sequential_ids):
        app = _make_app(aep_catalog, sequential_ids, max_inflight_total=4)
        status, _, body = app.handle("GET", "/readyz")
        payload = json_decode(body)
        assert status == 200
        assert payload["ready"] is True
        assert payload["gate"]["max_inflight"] == 4

    def test_not_ready_while_draining(self, aep_catalog, sequential_ids):
        app = _make_app(aep_catalog, sequential_ids)
        app.begin_drain()
        status, _, body = app.handle("GET", "/readyz")
        payload = json_decode(body)
        assert status == 503
        assert payload["ready"] is False
        assert payload["draining"] is True

    def test_reports_breaker_states(self, aep_catalog, sequential_ids):
        app = _make_app(aep_catalog, sequential_ids)
        client = ServeClient.in_process(app)
        client.create_session(db="aep", tenant="team-a")
        _, _, body = app.handle("GET", "/readyz")
        assert json_decode(body)["breakers"] == {"team-a": "closed"}
