"""The ``fisql-repro top`` dashboard: a live terminal view of ``/statusz``.

Pure rendering: :func:`render_top` turns one ``/statusz`` payload into a
fixed-width ASCII dashboard (deterministic for a given payload, which is
what the snapshot test relies on); the CLI loop polls the endpoint every
:data:`POLL_INTERVAL_S` seconds and repaints. Sections:

* header — readiness, drain state, resident sessions, inflight/gate
  utilization, windowed request/error/shed/cache rates;
* per-route latency table (count, rate, p50/p95/p99/max per window);
* per-tenant latency + SLO table (attainment and error-budget burn,
  flagged when burning above 1x);
* breaker states when any tenant's circuit is not closed.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Window columns shown in the tables, in display order.
DISPLAY_WINDOWS: Sequence[str] = ("1m", "5m", "15m")

#: ANSI clear-screen + home, used by the live loop between repaints.
CLEAR_SCREEN = "\x1b[2J\x1b[H"

#: Seconds between the live loop's polls (and repaints).
POLL_INTERVAL_S = 2.0

#: Seconds one ``/statusz`` poll may take before it counts as unreachable.
POLL_TIMEOUT_S = 10.0


def _table(headers: list, rows: list) -> str:
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def fmt(row: list) -> str:
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), rule] + [fmt(row) for row in rows])


def _ms(value: Optional[float]) -> str:
    return f"{value:.1f}" if value is not None else "-"


def _pct(value: Optional[float]) -> str:
    return f"{100.0 * value:.2f}%" if value is not None else "-"


def _header_lines(payload: dict) -> list:
    lines = []
    ready = payload.get("ready")
    draining = payload.get("draining")
    state = "DRAINING" if draining else ("ready" if ready else "NOT READY")
    sessions = payload.get("sessions", {})
    gate = payload.get("gate", {})
    inflight = gate.get("inflight", 0)
    cap = gate.get("max_inflight")
    utilization = gate.get("utilization")
    gate_text = f"inflight {inflight}"
    if cap is not None:
        gate_text += f"/{cap}"
    if utilization is not None:
        gate_text += f" ({_pct(utilization)})"
    lines.append(
        f"fisql-serve top — {state} | sessions "
        f"{sessions.get('resident', 0)}/{sessions.get('max_sessions', '-')} "
        f"(created {sessions.get('created', 0)}) | {gate_text}"
    )
    rates = (payload.get("telemetry") or {}).get("rates", {})
    if rates:
        cells = []
        for window in DISPLAY_WINDOWS:
            view = rates.get(window)
            if view is None:
                continue
            cells.append(
                f"{window}: err {_pct(view.get('error_rate'))} "
                f"shed {_pct(view.get('shed_rate'))} "
                f"cache {_pct(view.get('cache_hit_rate'))}"
            )
        if cells:
            lines.append("rates     " + " | ".join(cells))
    return lines


def _route_rows(telemetry: dict) -> list:
    rows = []
    for route in sorted(telemetry.get("routes", {})):
        windows = telemetry["routes"][route]
        for window in DISPLAY_WINDOWS:
            summary = windows.get(window)
            if summary is None:
                continue
            rows.append(
                [
                    route if window == DISPLAY_WINDOWS[0] else "",
                    window,
                    int(summary.get("count", 0)),
                    f"{summary.get('rate_per_s', 0.0):.2f}",
                    _ms(summary.get("p50_ms")),
                    _ms(summary.get("p95_ms")),
                    _ms(summary.get("p99_ms")),
                    _ms(summary.get("max_ms")),
                ]
            )
    return rows


def _tenant_rows(telemetry: dict) -> list:
    rows = []
    for tenant in sorted(telemetry.get("tenants", {})):
        view = telemetry["tenants"][tenant]
        latency = view.get("latency", {})
        slo = view.get("slo", {})
        for window in DISPLAY_WINDOWS:
            summary = latency.get(window)
            slo_view = slo.get(window, {})
            if summary is None and not slo_view:
                continue
            summary = summary or {}
            burn = slo_view.get("burn_rate")
            burn_text = f"{burn:.2f}x" if burn is not None else "-"
            if burn is not None and burn > 1.0:
                burn_text += " !"
            rows.append(
                [
                    tenant if window == DISPLAY_WINDOWS[0] else "",
                    window,
                    int(summary.get("count", 0)),
                    _ms(summary.get("p50_ms")),
                    _ms(summary.get("p95_ms")),
                    _ms(summary.get("p99_ms")),
                    _pct(slo_view.get("attainment")),
                    burn_text,
                ]
            )
    return rows


def _cache_rows(telemetry: dict) -> list:
    """Window rows for the cache panel; empty when no semcache ran."""
    rates = telemetry.get("rates", {})
    if not any(
        "semcache_hit_rate" in (rates.get(window) or {})
        for window in DISPLAY_WINDOWS
    ):
        return []
    rows = []
    for window in DISPLAY_WINDOWS:
        view = rates.get(window)
        if view is None:
            continue
        rows.append(
            [
                window,
                _pct(view.get("cache_hit_rate")),
                _pct(view.get("semcache_hit_rate")),
                _pct(view.get("semcache_bypass_rate")),
            ]
        )
    return rows


def render_top(payload: dict) -> str:
    """One ``/statusz`` payload as the dashboard text."""
    parts = _header_lines(payload)
    telemetry = payload.get("telemetry") or {}
    slo = None
    for view in telemetry.get("tenants", {}).values():
        slo = view.get("slo", {})
        break
    if slo:
        parts.append(
            f"SLO objective: p({slo.get('target', '-')}) of requests under "
            f"{slo.get('objective_ms', '-')} ms"
        )

    route_rows = _route_rows(telemetry)
    parts.append("")
    parts.append("Routes")
    if route_rows:
        parts.append(
            _table(
                ["route", "win", "count", "req/s", "p50", "p95", "p99", "max"],
                route_rows,
            )
        )
    else:
        parts.append("(no traffic recorded yet)")

    tenant_rows = _tenant_rows(telemetry)
    parts.append("")
    parts.append("Tenants")
    if tenant_rows:
        parts.append(
            _table(
                [
                    "tenant",
                    "win",
                    "count",
                    "p50",
                    "p95",
                    "p99",
                    "slo",
                    "burn",
                ],
                tenant_rows,
            )
        )
    else:
        parts.append("(no tenant traffic recorded yet)")

    cache_rows = _cache_rows(telemetry)
    if cache_rows:
        # Rendered only for semantic-cache-enabled servers, so plain
        # deployments keep today's frame byte-for-byte.
        parts.append("")
        parts.append("Caches")
        parts.append(
            _table(
                ["win", "completion", "semantic", "bypass"],
                cache_rows,
            )
        )
        semcache = payload.get("semcache")
        if isinstance(semcache, dict):
            parts.append(
                f"semcache entries: {semcache.get('entries', 0)}"
                f"/{semcache.get('max_entries', '-')}"
                f" | invalidations: {semcache.get('invalidations', 0)}"
                f" | evictions: {semcache.get('evictions', 0)}"
            )

    breakers = payload.get("breakers", {})
    open_breakers = {
        tenant: state
        for tenant, state in sorted(breakers.items())
        if state != "closed"
    }
    if open_breakers:
        parts.append("")
        parts.append(
            "Breakers: "
            + ", ".join(
                f"{tenant}={state}" for tenant, state in open_breakers.items()
            )
        )
    return "\n".join(parts) + "\n"
