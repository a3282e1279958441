"""Prometheus text exposition (format 0.0.4) for ``GET /metrics``.

Machine-readable replacement for the prose run report the endpoint used
to serve. Three sources fold into one page:

* the live :class:`~repro.obs.metrics.MetricsRegistry` — counters become
  ``fisql_<name>_total`` counter families, histogram summaries become
  summary families (``{quantile="0.5"}`` series plus ``_sum``/``_count``);
* the :class:`~repro.obs.telemetry.TelemetryHub` snapshot — windowed
  per-route and per-tenant latency quantiles as gauges
  (``fisql_serve_route_latency_ms`` / ``fisql_serve_tenant_latency_ms``,
  labelled ``{window="1m", quantile="0.95"}``) and per-tenant SLO
  attainment/burn gauges;
* a constant ``fisql_serve_up`` gauge, so a scrape is non-empty — and
  still *valid* exposition — even when observability is disabled.

Metric and label names are sanitized to the exposition charset; label
values are escaped per the spec (backslash, quote, newline). Series
within a family keep the registry's sorted order, so consecutive scrapes
of an idle server are byte-identical.
"""

from __future__ import annotations

import re
from typing import Optional

#: The content type scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles exported for registry histogram summaries.
_SUMMARY_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_name(name: str) -> str:
    """A valid metric name: invalid chars become underscores."""
    name = _NAME_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def sanitize_label(name: str) -> str:
    name = _LABEL_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def escape_value(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_label(str(key))}="{escape_value(value)}"'
        for key, value in sorted(labels.items(), key=lambda kv: str(kv[0]))
    )
    return "{" + inner + "}"


def _number(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Family:
    """One metric family: TYPE/HELP header plus its sample lines."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: list[str] = []

    def add(self, labels: dict, value: float, suffix: str = "") -> None:
        self.samples.append(
            f"{self.name}{suffix}{_labels_text(labels)} {_number(value)}"
        )

    def render(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
            *self.samples,
        ]


def render_prometheus(
    snapshot: Optional[dict],
    telemetry: Optional[dict] = None,
    up: bool = True,
    backends: Optional[dict] = None,
) -> str:
    """The full ``/metrics`` page.

    ``snapshot`` is an ``obs.snapshot()`` dict (or None when observability
    is disabled); ``telemetry`` is a ``TelemetryHub.snapshot()`` dict (or
    None when the server has no hub); ``backends`` is a
    ``BackendPool.health_snapshot()`` dict (or None for single-model
    serving). Any source may be absent — the page is valid exposition
    regardless.
    """
    families: dict[str, _Family] = {}

    def family(name: str, kind: str, help_text: str) -> _Family:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = _Family(name, kind, help_text)
        return entry

    up_family = family(
        "fisql_serve_up", "gauge", "1 when the serve process is live."
    )
    up_family.add({}, 1.0 if up else 0.0)

    if snapshot is not None and snapshot.get("enabled"):
        for counter in snapshot.get("counters", []):
            name = f"fisql_{sanitize_name(counter['name'])}_total"
            family(
                name, "counter", f"repro.obs counter {counter['name']}."
            ).add(counter.get("labels", {}), counter["value"])
        for histogram in snapshot.get("histograms", []):
            name = f"fisql_{sanitize_name(histogram['name'])}"
            entry = family(
                name, "summary", f"repro.obs histogram {histogram['name']}."
            )
            labels = histogram.get("labels", {})
            for quantile, field in _SUMMARY_QUANTILES:
                entry.add(
                    {**labels, "quantile": quantile},
                    histogram.get(field, 0.0),
                )
            entry.add(labels, histogram.get("sum", 0.0), suffix="_sum")
            entry.add(labels, histogram.get("count", 0), suffix="_count")

    if telemetry is not None:
        _telemetry_families(telemetry, family)

    if backends is not None:
        _backend_families(backends, family)

    blocks: list[str] = []
    for name in sorted(families):
        blocks.extend(families[name].render())
    return "\n".join(blocks) + "\n"


def _telemetry_families(telemetry: dict, family) -> None:
    latency_fields = (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms"))

    def latency_gauges(name: str, scope_label: str, table: dict, help_text: str):
        entry = family(name, "gauge", help_text)
        count_entry = family(
            f"{name.rsplit('_', 1)[0]}_requests",
            "gauge",
            f"Windowed request count behind {name}.",
        )
        for key in sorted(table):
            windows = table[key]
            for window in sorted(windows):
                summary = windows[window]
                for quantile, field in latency_fields:
                    entry.add(
                        {
                            scope_label: key,
                            "window": window,
                            "quantile": quantile,
                        },
                        summary.get(field, 0.0),
                    )
                count_entry.add(
                    {scope_label: key, "window": window},
                    summary.get("count", 0),
                )

    latency_gauges(
        "fisql_serve_route_latency_ms",
        "route",
        telemetry.get("routes", {}),
        "Windowed serve latency quantiles per route (milliseconds).",
    )
    latency_gauges(
        "fisql_serve_tenant_latency_ms",
        "tenant",
        {
            tenant: view.get("latency", {})
            for tenant, view in telemetry.get("tenants", {}).items()
        },
        "Windowed serve latency quantiles per tenant (milliseconds).",
    )

    attainment = family(
        "fisql_serve_slo_attainment",
        "gauge",
        "Fraction of tenant requests meeting the latency objective.",
    )
    burn = family(
        "fisql_serve_slo_burn_rate",
        "gauge",
        "Error-budget burn rate (1.0 = budget consumed exactly at target).",
    )
    for tenant in sorted(telemetry.get("tenants", {})):
        slo = telemetry["tenants"][tenant].get("slo", {})
        for window in sorted(telemetry.get("windows", {})):
            view = slo.get(window)
            if not isinstance(view, dict):
                continue
            labels = {"tenant": tenant, "window": window}
            attainment.add(labels, view.get("attainment", 1.0))
            burn.add(labels, view.get("burn_rate", 0.0))

    backend_views = telemetry.get("backends", {})
    if backend_views:
        latency_gauges(
            "fisql_llm_backend_latency_ms",
            "backend",
            {
                name: view.get("latency", {})
                for name, view in backend_views.items()
            },
            "Windowed routed-call latency quantiles per backend "
            "(milliseconds).",
        )
        outcome_entry = family(
            "fisql_llm_backend_outcomes_windowed",
            "gauge",
            "Windowed routed-call outcomes per backend "
            "(ok/error/failover/skipped/rejected/hedge/hedge_win).",
        )
        for name in sorted(backend_views):
            outcomes = backend_views[name].get("outcomes", {})
            for outcome in sorted(outcomes):
                for window in sorted(outcomes[outcome]):
                    outcome_entry.add(
                        {
                            "backend": name,
                            "outcome": outcome,
                            "window": window,
                        },
                        outcomes[outcome][window],
                    )

    for name, help_text in (
        ("requests", "Windowed request count."),
        ("errors", "Windowed 5xx count."),
        ("shed", "Windowed shed (429/503) count."),
        ("cache_hit", "Windowed completion-cache hits."),
        ("cache_miss", "Windowed completion-cache misses."),
        ("semcache_hit", "Windowed semantic-cache hits."),
        ("semcache_miss", "Windowed semantic-cache misses."),
        ("semcache_bypass", "Windowed semantic-cache bypasses."),
    ):
        table = telemetry.get("counters", {}).get(name)
        if not table:
            continue
        entry = family(
            f"fisql_serve_{name}_windowed",
            "gauge",
            help_text,
        )
        for window in sorted(table):
            entry.add({"window": window}, table[window].get("total", 0.0))


#: Breaker states exported as a one-hot gauge per backend.
_BREAKER_STATES = ("closed", "open", "half_open")


def _backend_families(backends: dict, family) -> None:
    """Per-backend health and breaker-state gauges from a
    ``BackendPool.health_snapshot()``."""
    healthy = family(
        "fisql_llm_backend_healthy",
        "gauge",
        "1 while the backend is in rotation, 0 while ejected.",
    )
    failures = family(
        "fisql_llm_backend_consecutive_failures",
        "gauge",
        "Consecutive live-call/probe failures feeding ejection.",
    )
    ejections = family(
        "fisql_llm_backend_ejections_total",
        "counter",
        "Times the backend was ejected from rotation.",
    )
    readmissions = family(
        "fisql_llm_backend_readmissions_total",
        "counter",
        "Times an ejected backend was probed healthy and readmitted.",
    )
    breaker = family(
        "fisql_llm_backend_breaker_state",
        "gauge",
        "One-hot circuit-breaker state per backend.",
    )
    for name in sorted(backends):
        view = backends[name]
        labels = {"backend": name}
        healthy.add(labels, 1.0 if view.get("healthy") else 0.0)
        failures.add(labels, view.get("consecutive_failures", 0))
        ejections.add(labels, view.get("ejections", 0))
        readmissions.add(labels, view.get("readmissions", 0))
        state = view.get("breaker")
        if state is not None:
            for candidate in _BREAKER_STATES:
                breaker.add(
                    {**labels, "state": candidate},
                    1.0 if state == candidate else 0.0,
                )
