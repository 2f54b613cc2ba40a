"""Exporters: health dashboard JSON, Prometheus text, Chrome trace JSON.

Three ways telemetry leaves the process:

* :func:`build_health_dashboard` / :func:`write_health_dashboard` — the
  versioned-schema JSON document the ROADMAP's degraded-operation item
  asks for: campaign summary, per-shard serve health (the router's
  ``health()`` payload embedded *unchanged*), ingest freshness, and a flat
  metrics dump.  Writes are atomic (tmp file + ``os.replace``) so a
  dashboard poller never reads a torn document.
* :func:`prometheus_text` — the classic ``text/plain`` exposition format:
  ``# TYPE`` lines, labelled samples, cumulative ``le`` histogram buckets
  with ``_sum``/``_count``.
* :func:`chrome_trace` — Chrome ``trace_event`` JSON (``"X"`` complete
  events, microsecond timestamps); load the file in Perfetto or
  ``chrome://tracing`` and every span renders on its trace's track.

The dashboard schema is committed at ``dashboard.schema.json`` next to
this module and enforced by :func:`validate_dashboard`, a dependency-free
validator for the JSON-Schema subset the schema uses (``type``,
``required``, ``properties``, ``items``, ``additionalProperties``,
``enum``) — the container has no ``jsonschema`` package, and the document
is small enough that a full validator buys nothing.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry, NullRegistry
from repro.obs.trace import Span

__all__ = [
    "DASHBOARD_SCHEMA_VERSION",
    "HealthMonitor",
    "build_health_dashboard",
    "chrome_trace",
    "dashboard_schema",
    "prometheus_text",
    "validate_dashboard",
    "validate_json",
    "write_chrome_trace",
    "write_health_dashboard",
]

#: Version stamped into (and required from) every dashboard document.
#: v2 added the interpretation layer: ``slo`` (alerts + error budgets),
#: ``events`` (recent structured log records) and ``trace`` (ring-buffer
#: drop accounting).  v3 reduced ``campaign.cache`` to the one stage-cache
#: tier's ``{hits, misses}``.  v4 dropped ``serve.health.prefetch_refreshes``
#: with the router's background prefetcher.  v5 dropped ``serve.health``'s
#: ``depth``, ``shed``, ``shed_rate``, ``coalesced`` and ``coalescing_ratio``
#: with the router's admission control and single-flight coalescing.
DASHBOARD_SCHEMA_VERSION = 5

_SCHEMA_PATH = Path(__file__).with_name("dashboard.schema.json")


def dashboard_schema() -> dict[str, Any]:
    """The committed dashboard schema (parsed fresh on every call)."""
    return json.loads(_SCHEMA_PATH.read_text())


# ---------------------------------------------------------------------------
# Mini JSON-Schema validator (subset; the container has no jsonschema)
# ---------------------------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value: Any, schema: Mapping[str, Any], path: str, errors: list[str]) -> None:
    allowed = schema.get("type")
    if allowed is not None:
        types = [allowed] if isinstance(allowed, str) else list(allowed)
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected type {'|'.join(types)}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        for name, sub in properties.items():
            if name in value:
                _validate(value[name], sub, f"{path}.{name}", errors)
        additional = schema.get("additionalProperties", True)
        for name in value:
            if name in properties:
                continue
            if additional is False:
                errors.append(f"{path}: unexpected property {name!r}")
            elif isinstance(additional, Mapping):
                _validate(value[name], additional, f"{path}.{name}", errors)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def validate_json(value: Any, schema: Mapping[str, Any]) -> None:
    """Validate ``value`` against a schema (subset); raise with every error."""
    errors: list[str] = []
    _validate(value, schema, "$", errors)
    if errors:
        raise ValueError(
            "document does not match schema:\n  " + "\n  ".join(errors)
        )


def validate_dashboard(doc: Mapping[str, Any]) -> None:
    """Validate one dashboard document against the committed schema."""
    validate_json(doc, dashboard_schema())
    if doc.get("schema_version") != DASHBOARD_SCHEMA_VERSION:
        raise ValueError(
            f"dashboard schema_version {doc.get('schema_version')!r} != "
            f"{DASHBOARD_SCHEMA_VERSION}"
        )


# ---------------------------------------------------------------------------
# Health dashboard
# ---------------------------------------------------------------------------


def _campaign_summary(result: Any) -> dict[str, Any]:
    """Flatten a ``CampaignResult`` into the dashboard's campaign block."""
    timing = dict(result.timing)
    return {
        "fingerprint": str(result.fingerprint),
        "n_granules": int(result.n_granules),
        "timing_s": {stage: float(seconds) for stage, seconds in timing.items()},
        "total_s": float(sum(timing.values())),
        "cache": {
            "hits": len(result.stage_hits),
            "misses": len(result.stage_misses),
        },
    }


def _ingest_summary(service: Any) -> dict[str, Any]:
    """Flatten an ``IngestService`` into the dashboard's freshness block."""
    report = getattr(service, "last_report", None)
    return {
        "key": str(service.key),
        "n_ingested": int(service.n_ingested),
        "n_granules": int(service.accumulator.n_granules),
        "last_report": None
        if report is None
        else {
            "granule_id": report.granule_id,
            "n_dirty_cells": int(report.n_dirty_cells),
            "n_rebuilt_tiles": len(report.rebuilt_tiles),
            "n_invalidated": int(report.n_invalidated),
            "seconds": float(report.seconds),
        },
    }


def _sanitize_event(row: Mapping[str, Any]) -> dict[str, Any]:
    """Clamp one log record to JSON scalars (the schema's event shape)."""
    out: dict[str, Any] = {}
    for key, value in row.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


def build_health_dashboard(
    campaign: Any = None,
    router: Any = None,
    ingest: Any = None,
    registry: MetricsRegistry | NullRegistry | None = None,
    generated_at: float | None = None,
    slo: Any = None,
    log: Any = None,
    tracer: Any = None,
    max_events: int = 50,
) -> dict[str, Any]:
    """Assemble the dashboard document from whatever tiers exist.

    Every section is optional — a campaign-only run, a serve-only process
    and a full live stack all produce valid documents.  The router's
    ``health()`` payload is embedded verbatim under ``serve.health`` (the
    round-trip contract: readers see exactly what the router reports).
    v2 sections: ``slo`` is an :class:`~repro.obs.slo.SloEvaluator`'s
    alerts + error budgets, ``events`` the newest ``max_events`` records of
    an :class:`~repro.obs.log.EventLog`, and ``trace`` the tracer's
    ring-buffer drop accounting.
    """
    return {
        "schema_version": DASHBOARD_SCHEMA_VERSION,
        "generated_at": float(generated_at) if generated_at is not None else time.time(),
        "campaign": _campaign_summary(campaign) if campaign is not None else None,
        "serve": {"health": router.health()} if router is not None else None,
        "ingest": _ingest_summary(ingest) if ingest is not None else None,
        "metrics": registry.as_dict() if registry is not None else {},
        "slo": slo.as_dict() if slo is not None else None,
        "events": [_sanitize_event(row) for row in log.tail(max_events)]
        if log is not None
        else [],
        "trace": {
            "spans_dropped": int(getattr(tracer, "n_dropped", 0)),
            "buffer_size": int(getattr(tracer, "buffer_size", 0)),
        }
        if tracer is not None
        else None,
    }


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_health_dashboard(path: str | Path, doc: Mapping[str, Any]) -> Path:
    """Validate and atomically write one dashboard document; returns the path."""
    validate_dashboard(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _render_labels(labels: Sequence[tuple[str, str]], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    """One sample value: integral values without a decimal point, and
    non-finite ones as the exposition format spells them."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry | NullRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for metric in registry.collect():
        if metric.name not in typed:
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            typed.add(metric.name)
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for edge, count in zip(metric.edges, cumulative):
                labels = _render_labels(metric.labels, f'le="{edge}"')
                lines.append(f"{metric.name}_bucket{labels} {int(count)}")
            labels = _render_labels(metric.labels, 'le="+Inf"')
            lines.append(f"{metric.name}_bucket{labels} {int(cumulative[-1])}")
            base = _render_labels(metric.labels)
            lines.append(f"{metric.name}_sum{base} {_format_value(metric.sum)}")
            lines.append(f"{metric.name}_count{base} {metric.count}")
        else:
            labels = _render_labels(metric.labels)
            lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace_event JSON (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


#: The Chrome pid the driver's own spans render under.
_DRIVER_PID = 1


def chrome_trace(spans: Iterable[Span], process_name: str = "repro") -> dict[str, Any]:
    """Render finished spans as a Chrome ``trace_event`` document.

    Each trace gets its own ``tid`` track and spans become ``"X"``
    (complete) events with microsecond timestamps and their attributes
    under ``args``.  Spans carrying a ``pid`` attribute (worker subtrees
    merged by :mod:`repro.obs.propagate`) render on that process's own
    track; ``process_name``/``thread_name`` metadata events label every
    track, so Perfetto shows "repro driver" and "repro worker pid=N"
    instead of bare numbers.  The result is ``json.dump``-able as-is.
    """
    span_events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    process_labels: dict[int, str] = {}
    thread_labels: dict[tuple[int, int], str] = {}
    for span in spans:
        if not span.finished:
            continue
        attr_pid = span.attributes.get("pid")
        pid = attr_pid if isinstance(attr_pid, int) and attr_pid > 0 else _DRIVER_PID
        tid = tids.setdefault(span.trace_id, len(tids) + 1)
        if pid == _DRIVER_PID:
            process_labels.setdefault(pid, f"{process_name} driver")
        else:
            process_labels.setdefault(pid, f"{process_name} worker pid={pid}")
        worker = span.attributes.get("worker")
        key = (pid, tid)
        existing = thread_labels.get(key)
        if worker and (existing is None or existing.startswith("trace ")):
            thread_labels[key] = str(worker)
        elif existing is None:
            thread_labels[key] = f"trace {span.trace_id}"
        span_events.append(
            {
                "name": span.name,
                "cat": span.trace_id,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
    if not process_labels:
        process_labels[_DRIVER_PID] = f"{process_name} driver"
    metadata: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        for pid, label in sorted(process_labels.items())
    ]
    metadata.extend(
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}
        for (pid, tid), label in sorted(thread_labels.items())
    )
    return {"traceEvents": metadata + span_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path, spans: Iterable[Span], process_name: str = "repro"
) -> Path:
    """Atomically write a Chrome trace JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, json.dumps(chrome_trace(spans, process_name)) + "\n")
    return path


# ---------------------------------------------------------------------------
# HealthMonitor: evaluate and publish
# ---------------------------------------------------------------------------


class HealthMonitor:
    """Evaluate SLOs and atomically republish the dashboard, once per tick.

    The glue between the interpretation layer and the exporters: every
    :meth:`tick` runs one :class:`~repro.obs.slo.SloEvaluator` evaluation,
    rebuilds the dashboard document (schema
    :data:`DASHBOARD_SCHEMA_VERSION`: alerts, error budgets, recent events,
    trace drops, plus whatever tiers were attached) and rewrites ``path``
    atomically — a poller always reads a complete, current document.  The
    caller sets the cadence by calling :meth:`tick`; the document's
    ``generated_at`` reads the obs clock, so a ``VirtualClock`` gives exact
    tick times in tests and the demo.

    Parameters
    ----------
    path:
        Dashboard JSON destination (atomic tmp + ``os.replace`` writes).
    obs:
        The :class:`~repro.obs.core.Obs` handle supplying the registry,
        tracer, event log and clock.
    slo:
        Optional :class:`~repro.obs.slo.SloEvaluator` to tick; without one
        the monitor still publishes (metrics/events/trace sections only).
    campaign / router / ingest:
        Optional tier sections, as for :func:`build_health_dashboard`.
    """

    def __init__(
        self,
        path: str | Path,
        obs: Any,
        slo: Any = None,
        campaign: Any = None,
        router: Any = None,
        ingest: Any = None,
        max_events: int = 50,
    ) -> None:
        self.path = Path(path)
        self.obs = obs
        self.slo = slo
        self.campaign = campaign
        self.router = router
        self.ingest = ingest
        self.max_events = max_events
        self.n_ticks = 0

    def tick(self, now: float | None = None) -> dict[str, Any]:
        """One evaluation + publish; returns the written document."""
        if self.slo is not None:
            self.slo.evaluate(now)
        generated = now if now is not None else self.obs.clock.now()
        doc = build_health_dashboard(
            campaign=self.campaign,
            router=self.router,
            ingest=self.ingest,
            registry=self.obs.registry,
            generated_at=generated,
            slo=self.slo,
            log=self.obs.log,
            tracer=self.obs.tracer,
            max_events=self.max_events,
        )
        write_health_dashboard(self.path, doc)
        self.n_ticks += 1
        return doc
