"""Telemetry: tracing, metrics, events, logs, profiling, SLOs and alerts.

Independent pillars, all stdlib-only and all safe to leave enabled:

- :mod:`repro.telemetry.trace` — per-request flat traces carried on the
  serving thread (contextvars), across the scorer processes (wire wrapper) and
  the shared-cache socket (traced frames); a bounded ring behind
  ``GET /v1/traces`` plus single-trace lookup at ``GET /v1/traces/<id>``.
- :mod:`repro.telemetry.metrics` — counters/gauges/histograms each
  component owns and counts into where the event happens, plus readers for
  state and numbers counted elsewhere; Prometheus text behind
  ``GET /metrics``; snapshots mergeable across a sharded fleet.
- :mod:`repro.telemetry.events` — bounded lifecycle event bus (promotions,
  rollbacks, scorer respawns, alerts) feeding the ``GET /v1/metrics/stream``
  SSE endpoint.
- :mod:`repro.telemetry.profiling` — low-overhead sampling wall profiler
  (folded stacks, flamegraph JSON) behind ``GET /v1/profile``.
- :mod:`repro.telemetry.slo` — declarative SLO objectives evaluated against
  live registry snapshots with multi-window burn-rate math.
- :mod:`repro.telemetry.alerts` — the pending/firing/resolved alert state
  machine behind ``GET /v1/alerts``, publishing to the event bus and driving
  the gateway's protective actions.

:mod:`repro.telemetry.logging` adds one-line-JSON structured logging shared
by gateway, supervisor and scorer processes.
"""

from repro.telemetry.alerts import Alert, AlertManager
from repro.telemetry.events import Event, EventBus, emit_event, get_event_bus
from repro.telemetry.logging import (
    JsonLogFormatter,
    configure_json_logging,
    get_log_context,
    maybe_configure_from_env,
    set_log_context,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    render_snapshot,
)
from repro.telemetry.profiling import (
    SamplingProfiler,
    flamegraph_from_profile,
    get_profiler,
    merge_profiles,
    start_profiler,
    stop_profiler,
)
from repro.telemetry.slo import (
    SeriesIndex,
    SloEvaluator,
    SloObjective,
    SloStatus,
    default_slo_objectives,
)
from repro.telemetry.trace import (
    Span,
    Trace,
    Tracer,
    add_span,
    current_trace_id,
    enabled,
    get_tracer,
    new_trace_id,
    set_enabled,
    span,
    start_trace,
    valid_trace_id,
)

__all__ = [
    "Alert",
    "AlertManager",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "MetricsRegistry",
    "SamplingProfiler",
    "SeriesIndex",
    "SloEvaluator",
    "SloObjective",
    "SloStatus",
    "Span",
    "Trace",
    "Tracer",
    "add_span",
    "configure_json_logging",
    "current_trace_id",
    "default_slo_objectives",
    "emit_event",
    "enabled",
    "flamegraph_from_profile",
    "get_event_bus",
    "get_log_context",
    "get_profiler",
    "get_tracer",
    "maybe_configure_from_env",
    "merge_profiles",
    "merge_snapshots",
    "new_trace_id",
    "render_snapshot",
    "set_enabled",
    "set_log_context",
    "span",
    "start_profiler",
    "start_trace",
    "stop_profiler",
    "valid_trace_id",
]
