"""``repro.obs`` — unified telemetry: metrics, spans, logs, SLOs, exporters.

The one instrumentation layer across campaign → serve → ingest:

* :class:`~repro.obs.metrics.MetricsRegistry` — process-local counters,
  gauges and fixed-bucket histograms keyed by (name, labels), so metrics
  outlive the components that feed them.
* :class:`~repro.obs.trace.Tracer` — nested spans (trace/parent ids,
  a :mod:`repro.clock` clock) in a bounded ring buffer, with worker-side subtrees
  merged across process boundaries by :mod:`~repro.obs.propagate`;
  :func:`~repro.obs.trace.profile_table` rolls them up into self time per
  span name.
* :class:`~repro.obs.log.EventLog` — structured JSON-lines events that
  automatically carry the current trace/span ids.
* :class:`~repro.obs.slo.SloEvaluator` — declarative SLOs over existing
  series, multi-window burn-rate alerts, error-budget ledgers.
* :class:`~repro.obs.core.Obs` — the facade bundling registry + tracer +
  log, resolved from :func:`~repro.obs.core.default_obs` wherever a
  component is built without an explicit handle;
  ``ObsConfig(enabled=False)`` selects no-op null twins.
* :mod:`~repro.obs.export` — JSON health dashboard (versioned schema,
  migrations, atomic writes), :class:`~repro.obs.export.HealthMonitor`,
  Prometheus text exposition, Chrome trace JSON with per-process tracks.
"""

from repro.config import DEFAULT_OBS, LogConfig, ObsConfig, SloConfig
from repro.obs.core import Obs, default_obs, set_default_obs
from repro.obs.export import (
    DASHBOARD_SCHEMA_VERSION,
    HealthMonitor,
    build_health_dashboard,
    chrome_trace,
    dashboard_schema,
    prometheus_text,
    validate_dashboard,
    validate_json,
    write_chrome_trace,
    write_health_dashboard,
)
from repro.obs.log import LEVELS, EventLog, LogRecord, NullEventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
    NullRegistry,
)
from repro.obs.propagate import (
    TraceContext,
    TracedTask,
    WorkerTelemetry,
    current_context,
    harvest_worker_telemetry,
    merge_worker_telemetry,
)
from repro.obs.slo import (
    Alert,
    BurnWindow,
    CounterRatioQuery,
    ErrorBudget,
    GaugeStalenessQuery,
    HistogramAboveQuery,
    SloEvaluator,
    SloSpec,
    availability_slo,
    freshness_slo,
    latency_slo,
)
from repro.obs.trace import NullSpan, NullTracer, ProfileRow, Span, Tracer, profile_table

__all__ = [
    "DASHBOARD_SCHEMA_VERSION",
    "DEFAULT_OBS",
    "LEVELS",
    "Alert",
    "BurnWindow",
    "Counter",
    "CounterRatioQuery",
    "ErrorBudget",
    "EventLog",
    "Gauge",
    "GaugeStalenessQuery",
    "HealthMonitor",
    "Histogram",
    "HistogramAboveQuery",
    "LogConfig",
    "LogRecord",
    "MetricsRegistry",
    "NullCounter",
    "NullEventLog",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NullSpan",
    "NullTracer",
    "Obs",
    "ObsConfig",
    "ProfileRow",
    "SloConfig",
    "SloEvaluator",
    "SloSpec",
    "Span",
    "TraceContext",
    "TracedTask",
    "Tracer",
    "WorkerTelemetry",
    "availability_slo",
    "build_health_dashboard",
    "chrome_trace",
    "current_context",
    "dashboard_schema",
    "default_obs",
    "freshness_slo",
    "harvest_worker_telemetry",
    "latency_slo",
    "merge_worker_telemetry",
    "profile_table",
    "prometheus_text",
    "set_default_obs",
    "validate_dashboard",
    "validate_json",
    "write_chrome_trace",
    "write_health_dashboard",
]
