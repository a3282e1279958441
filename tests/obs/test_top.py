"""`fisql-repro top` renderer: golden snapshot plus edge cases.

``render_top`` is pure (payload in, text out), so the main test pins the
full frame for a hand-built ``/statusz`` payload. Table cells are padded,
so expected lines carry significant trailing spaces — they are assembled
from an explicit line list rather than a triple-quoted block to keep
them robust against whitespace-stripping editors.
"""

from __future__ import annotations

from repro.obs.top import CLEAR_SCREEN, DISPLAY_WINDOWS, render_top

PAYLOAD = {
    "ready": True,
    "draining": False,
    "sessions": {"resident": 3, "max_sessions": 64, "created": 7},
    "gate": {"inflight": 2, "max_inflight": 8, "utilization": 0.25},
    "breakers": {"team-a": "closed", "team-b": "open"},
    "telemetry": {
        "rates": {
            "1m": {
                "error_rate": 0.1,
                "shed_rate": 0.0,
                "cache_hit_rate": 0.5,
            },
            "5m": {
                "error_rate": 0.05,
                "shed_rate": 0.0,
                "cache_hit_rate": 0.5,
            },
        },
        "routes": {
            "ask": {
                "1m": {
                    "count": 10,
                    "rate_per_s": 0.1667,
                    "p50_ms": 12.0,
                    "p95_ms": 48.0,
                    "p99_ms": 90.0,
                    "max_ms": 95.0,
                },
                "5m": {
                    "count": 40,
                    "rate_per_s": 0.1333,
                    "p50_ms": 11.0,
                    "p95_ms": 50.0,
                    "p99_ms": 92.0,
                    "max_ms": 120.0,
                },
            },
            "feedback": {
                "1m": {
                    "count": 2,
                    "rate_per_s": 0.0333,
                    "p50_ms": 20.0,
                    "p95_ms": 22.0,
                    "p99_ms": 22.0,
                    "max_ms": 22.0,
                },
            },
        },
        "tenants": {
            "team-a": {
                "latency": {
                    "1m": {
                        "count": 6,
                        "p50_ms": 10.0,
                        "p95_ms": 40.0,
                        "p99_ms": 80.0,
                        "max_ms": 85.0,
                    }
                },
                "slo": {
                    "target": 0.95,
                    "objective_ms": 500.0,
                    "1m": {"attainment": 0.8333, "burn_rate": 3.33},
                },
            },
        },
    },
}

GOLDEN = "\n".join(
    [
        "fisql-serve top — ready | sessions 3/64 (created 7) | "
        "inflight 2/8 (25.00%)",
        "rates     1m: err 10.00% shed 0.00% cache 50.00% | "
        "5m: err 5.00% shed 0.00% cache 50.00%",
        "SLO objective: p(0.95) of requests under 500.0 ms",
        "",
        "Routes",
        "route     win  count  req/s  p50   p95   p99   max  ",
        "----------------------------------------------------",
        "ask       1m   10     0.17   12.0  48.0  90.0  95.0 ",
        "          5m   40     0.13   11.0  50.0  92.0  120.0",
        "feedback  1m   2      0.03   20.0  22.0  22.0  22.0 ",
        "",
        "Tenants",
        "tenant  win  count  p50   p95   p99   slo     burn   ",
        "-----------------------------------------------------",
        "team-a  1m   6      10.0  40.0  80.0  83.33%  3.33x !",
        "",
        "Breakers: team-b=open",
        "",
    ]
)


class TestGoldenFrame:
    def test_full_frame_snapshot(self):
        assert render_top(PAYLOAD) == GOLDEN

    def test_rendering_is_deterministic(self):
        assert render_top(PAYLOAD) == render_top(PAYLOAD)


def _semcache_payload():
    payload = {
        "ready": True,
        "sessions": {"resident": 1, "max_sessions": 64, "created": 1},
        "gate": {"inflight": 0, "max_inflight": 8, "utilization": 0.0},
        "semcache": {
            "entries": 2,
            "max_entries": 4096,
            "invalidations": 1,
            "evictions": 0,
        },
        "telemetry": {
            "rates": {
                "1m": {
                    "error_rate": 0.0,
                    "shed_rate": 0.0,
                    "cache_hit_rate": 0.25,
                    "semcache_hit_rate": 0.5,
                    "semcache_bypass_rate": 0.2,
                },
                "5m": {
                    "error_rate": 0.0,
                    "shed_rate": 0.0,
                    "cache_hit_rate": 0.25,
                    "semcache_hit_rate": 0.5,
                    "semcache_bypass_rate": 0.2,
                },
            },
        },
    }
    return payload


SEMCACHE_GOLDEN = "\n".join(
    [
        "fisql-serve top — ready | sessions 1/64 (created 1) | "
        "inflight 0/8 (0.00%)",
        "rates     1m: err 0.00% shed 0.00% cache 25.00% | "
        "5m: err 0.00% shed 0.00% cache 25.00%",
        "",
        "Routes",
        "(no traffic recorded yet)",
        "",
        "Tenants",
        "(no tenant traffic recorded yet)",
        "",
        "Caches",
        "win  completion  semantic  bypass",
        "---------------------------------",
        "1m   25.00%      50.00%    20.00%",
        "5m   25.00%      50.00%    20.00%",
        "semcache entries: 2/4096 | invalidations: 1 | evictions: 0",
        "",
    ]
)


class TestCachePanel:
    def test_semcache_frame_snapshot(self):
        assert render_top(_semcache_payload()) == SEMCACHE_GOLDEN

    def test_panel_absent_without_semcache_rates(self):
        # The plain golden frame above is the real guarantee; this pins
        # the gate directly: no semcache rates, no Caches section.
        assert "Caches" not in render_top(PAYLOAD)

    def test_panel_renders_without_statusz_section(self):
        payload = _semcache_payload()
        del payload["semcache"]
        frame = render_top(payload)
        assert "Caches" in frame
        assert "semcache entries:" not in frame


class TestEdgeCases:
    def test_empty_payload_shows_fallbacks(self):
        frame = render_top({})
        assert "NOT READY" in frame
        assert "(no traffic recorded yet)" in frame
        assert "(no tenant traffic recorded yet)" in frame
        assert "Breakers:" not in frame  # all-closed (here: none) is quiet

    def test_draining_wins_over_ready(self):
        frame = render_top({"ready": True, "draining": True})
        assert "DRAINING" in frame

    def test_burn_under_one_is_not_flagged(self):
        payload = {
            "ready": True,
            "telemetry": {
                "tenants": {
                    "t": {
                        "latency": {},
                        "slo": {
                            "target": 0.95,
                            "objective_ms": 500.0,
                            "1m": {"attainment": 0.99, "burn_rate": 0.2},
                        },
                    }
                }
            },
        }
        frame = render_top(payload)
        assert "0.20x" in frame
        assert "0.20x !" not in frame

    def test_closed_breakers_are_omitted(self):
        frame = render_top({"ready": True, "breakers": {"a": "closed"}})
        assert "Breakers:" not in frame

    def test_constants(self):
        assert DISPLAY_WINDOWS == ("1m", "5m", "15m")
        assert CLEAR_SCREEN.startswith("\x1b")
