"""Cross-process trace propagation: ship spans and metrics back from workers.

The tracer's ``contextvars`` parentage follows ``await`` but stops at pool
boundaries: threads do not inherit the driver's context and processes
cannot pickle it.  A bare ``(value, seconds)`` pair would carry a
duration, not a trace.  This module carries the real thing across:

* :class:`TraceContext` — the two ids (trace, parent span) that define
  where remote work belongs in the driver's tree; picklable, tiny.
* :class:`TracedTask` — the worker-side harness: wraps a task shipped to a
  **process** pool, runs it under a fresh worker-local ``Obs`` (installed
  as the worker's default for the duration, so any instrumented code the
  task calls lands in it), and returns ``(value, WorkerTelemetry)``.
* :class:`WorkerTelemetry` — the compact picklable payload: finished spans
  (times relative to the task root, so wall-clock epochs never need to
  agree) plus the worker registry's metric deltas.
* :func:`merge_worker_telemetry` — the driver-side graft: re-emits every
  worker span with fresh driver span ids (worker ids mean nothing here)
  under the driver's current span, re-anchored on the driver's clock, and
  folds counter/gauge/histogram deltas into the driver registry.

The merged tree is what the Chrome exporter renders: campaign →
``mapreduce.map`` → per-worker task spans, each on its worker's process
track, all one trace.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.metrics import Counter, Gauge, Histogram

__all__ = [
    "TraceContext",
    "TracedTask",
    "WorkerTelemetry",
    "current_context",
    "harvest_worker_telemetry",
    "merge_worker_telemetry",
]


@dataclass(frozen=True)
class TraceContext:
    """The propagated lineage: which trace, and which span is the parent."""

    trace_id: str
    span_id: str


def current_context(tracer: Any) -> TraceContext | None:
    """The caller's innermost open span as a shippable context, if any."""
    span = getattr(tracer, "current_span", None)
    if span is None or not span.trace_id:
        return None
    return TraceContext(trace_id=span.trace_id, span_id=span.span_id)


#: One shipped span: (local id, local parent id, name, start and end
#: relative to the task root's start, attributes).
_SpanRow = tuple[str, Any, str, float, float, dict]


@dataclass
class WorkerTelemetry:
    """Everything a pool worker measured, in picklable relative form."""

    spans: tuple[_SpanRow, ...] = ()
    counters: tuple[tuple[str, tuple, float], ...] = ()
    gauges: tuple[tuple[str, tuple, float], ...] = ()
    histograms: tuple[tuple[str, tuple, tuple, tuple, float, int], ...] = ()
    duration: float = 0.0
    context: TraceContext | None = None


def harvest_worker_telemetry(obs: Any, root: Any, context: TraceContext | None = None) -> WorkerTelemetry:
    """Collect a worker-local ``Obs`` into a shippable payload.

    Span times are rebased to the task root's start: the driver knows the
    task's duration and its own clock, which is all re-anchoring needs —
    worker and driver clocks never have to share an epoch.
    """
    anchor = root.start
    spans = tuple(
        (
            span.span_id,
            span.parent_id,
            span.name,
            span.start - anchor,
            span.end - anchor,
            dict(span.attributes),
        )
        for span in obs.tracer.spans()
    )
    counters: list[tuple[str, tuple, float]] = []
    gauges: list[tuple[str, tuple, float]] = []
    histograms: list[tuple[str, tuple, tuple, tuple, float, int]] = []
    for metric in obs.registry.collect():
        if isinstance(metric, Counter):
            if metric.value:
                counters.append((metric.name, metric.labels, metric.value))
        elif isinstance(metric, Gauge):
            gauges.append((metric.name, metric.labels, metric.value))
        elif isinstance(metric, Histogram):
            if metric.count:
                histograms.append(
                    (
                        metric.name,
                        metric.labels,
                        metric.edges,
                        tuple(int(c) for c in metric.bucket_counts()),
                        metric.sum,
                        metric.count,
                    )
                )
    return WorkerTelemetry(
        spans=spans,
        counters=tuple(counters),
        gauges=tuple(gauges),
        histograms=tuple(histograms),
        duration=root.duration,
        context=context,
    )


class TracedTask:
    """Picklable harness running one pool task under a worker-side tracer.

    The worker builds a *fresh* enabled ``Obs`` per task and installs it as
    the process default for the task's duration (pool workers persist
    across jobs — the previous default is restored), so the whole registry
    content **is** the task's metric delta and the whole span ring is the
    task's subtree.  The root span carries the worker's pid so the Chrome
    exporter can lay worker subtrees out on per-process tracks.
    """

    def __init__(
        self,
        task: Callable,
        context: TraceContext | None = None,
        name: str = "mapreduce.task",
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.task = task
        self.context = context
        self.name = name
        self.attributes = dict(attributes or {})

    def __call__(self):
        from repro.obs.core import Obs, set_default_obs

        obs = Obs()
        previous = set_default_obs(obs)
        try:
            with obs.tracer.span(
                self.name,
                pid=os.getpid(),
                worker=threading.current_thread().name,
                **self.attributes,
            ) as root:
                value = self.task()
        finally:
            set_default_obs(previous)
        return value, harvest_worker_telemetry(obs, root, self.context)


def merge_worker_telemetry(
    obs: Any, telemetry: WorkerTelemetry, **extra_attributes: Any
) -> tuple:
    """Graft one worker payload into the driver's tracer and registry.

    Spans are re-emitted with fresh driver span ids, parented under the
    driver's *current* span (falling back to the shipped
    :class:`TraceContext`, then to a fresh trace), and re-anchored on the
    driver's clock so the subtree ends "now" and keeps its internal
    offsets.  Metric deltas add into the driver registry — the same series
    the worker would have fed had it shared the process.

    Returns the emitted driver-side spans (root last-ish is not guaranteed;
    emission is parents-before-children).
    """
    _merge_metrics(obs.registry, telemetry)
    tracer = obs.tracer
    if not getattr(tracer, "enabled", False) or not telemetry.spans:
        return ()

    parent = tracer.current_span
    if parent is not None:
        trace_id, parent_id = parent.trace_id, parent.span_id
    elif telemetry.context is not None:
        trace_id, parent_id = telemetry.context.trace_id, telemetry.context.span_id
    else:
        trace_id, parent_id = None, None

    anchor = tracer.clock.now() - telemetry.duration
    pending = list(telemetry.spans)
    local_ids = {row[0] for row in pending}
    emitted: list = []
    id_map: dict[str, str] = {}
    # Parents before children: a row is ready once its local parent is
    # either outside the shipped set (a graft point) or already re-emitted.
    while pending:
        ready = [row for row in pending if row[1] not in local_ids or row[1] in id_map]
        if not ready:  # orphaned parent ids cannot cycle; defend anyway
            ready = pending
        pending = [row for row in pending if row not in ready]
        for local_id, local_parent, name, start_rel, end_rel, attributes in ready:
            is_graft_root = local_parent not in id_map
            attrs = dict(attributes, **extra_attributes) if is_graft_root else attributes
            span = tracer.emit(
                name,
                anchor + start_rel,
                anchor + end_rel,
                trace_id=trace_id,
                parent_id=id_map.get(local_parent, parent_id),
                **attrs,
            )
            if trace_id is None:
                trace_id = span.trace_id
            id_map[local_id] = span.span_id
            emitted.append(span)
    return tuple(emitted)


def _merge_metrics(registry: Any, telemetry: WorkerTelemetry) -> None:
    if not getattr(registry, "enabled", False):
        return
    for name, labels, delta in telemetry.counters:
        registry.counter(name, **dict(labels)).inc(delta)
    for name, labels, value in telemetry.gauges:
        registry.gauge(name, **dict(labels)).set(value)
    for name, labels, edges, counts, total_sum, count in telemetry.histograms:
        registry.histogram(name, edges=edges, **dict(labels)).merge_counts(
            counts, total_sum, count
        )
