"""The tracer: nested spans in a bounded ring buffer.

A :class:`Span` is one timed operation — a routed request, a pipeline
stage, one map task.  Spans nest through a :class:`contextvars.ContextVar`,
so the current span follows the code across ``await`` boundaries (asyncio
copies the context into every task) and a span opened by the router is the
parent of the span the shard engine opens while serving it.  Thread-pool
tasks of the map-reduce engine run in a copy of the driver's context, so
their spans are true children too; process-pool workers ship their spans
back as a :class:`~repro.obs.propagate.WorkerTelemetry` subtree, grafted
under the driver's open span through :meth:`Tracer.emit`.

Time comes from a pluggable clock (anything with ``now()``), defaulting to
:class:`~repro.clock.MonotonicClock`.  Handing the tracer a
:class:`~repro.clock.VirtualClock` makes span durations *exact* in tests:
no real time passes, so an operation that ticks the clock by 4 ms produces
a span whose duration equals 0.004 to the last bit.

Finished spans land in a ``deque(maxlen=...)`` ring buffer; once it wraps,
the oldest spans drop and :attr:`Tracer.n_dropped` counts them.  Span and
trace ids are small deterministic strings (``s0007`` / ``t0003``), not
random UUIDs, so traces are reproducible run to run.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.clock import MonotonicClock

__all__ = ["NullSpan", "NullTracer", "Span", "Tracer"]


@dataclass
class Span:
    """One timed operation; ``end`` stays ``None`` until the span closes."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} has not finished")
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; chainable inside a ``with tracer.span(...)``."""
        self.attributes.update(attributes)
        return self

    def __repr__(self) -> str:
        dur = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name} {self.span_id}<-{self.parent_id} {dur})"


class Tracer:
    """Emit nested spans into a bounded ring buffer.

    Parameters
    ----------
    clock:
        Any object with ``now() -> float`` (e.g. a
        :class:`~repro.clock.VirtualClock`); ``None`` uses a
        :class:`~repro.clock.MonotonicClock`.
    buffer_size:
        Ring-buffer capacity for finished spans; the oldest drop (and are
        counted in :attr:`n_dropped`) once it fills.
    """

    enabled = True

    def __init__(self, clock: Any = None, buffer_size: int = 4096) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.clock = clock if clock is not None else MonotonicClock()
        self.buffer_size = buffer_size
        self._spans: deque[Span] = deque(maxlen=buffer_size)
        self.n_dropped = 0
        #: Optional anything-with-``inc()`` (a registry counter) mirroring
        #: every ring-buffer drop, so truncated traces are visible in
        #: exports instead of only on this private attribute.  ``Obs``
        #: wires ``trace_spans_dropped_total`` here.
        self.drop_counter: Any = None
        self._lock = threading.Lock()
        self._next_span = 1
        self._next_trace = 1
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_obs_current_span", default=None
        )

    # -- ids / context -------------------------------------------------------

    def _span_id(self) -> str:
        with self._lock:
            sid, self._next_span = self._next_span, self._next_span + 1
        return f"s{sid:04d}"

    def _trace_id(self) -> str:
        with self._lock:
            tid, self._next_trace = self._next_trace, self._next_trace + 1
        return f"t{tid:04d}"

    @property
    def current_span(self) -> Span | None:
        """The innermost open span of the calling context, if any."""
        return self._current.get()

    def _finish(self, span: Span, end: float) -> None:
        span.end = end
        dropped = False
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.n_dropped += 1
                dropped = True
            self._spans.append(span)
        if dropped and self.drop_counter is not None:
            self.drop_counter.inc()

    # -- emission ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span as a child of the context's current span.

        The span closes (and lands in the buffer) when the block exits;
        an escaping exception is recorded as an ``error`` attribute and
        re-raised.
        """
        parent = self._current.get()
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else self._trace_id(),
            span_id=self._span_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock.now(),
            attributes=dict(attributes),
        )
        token = self._current.set(span)
        try:
            yield span
        except BaseException as exc:
            span.attributes.setdefault("error", type(exc).__name__)
            raise
        finally:
            self._current.reset(token)
            self._finish(span, self.clock.now())

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> Span:
        """Append one externally measured span with explicit lineage.

        The low-level merge primitive behind cross-process propagation
        (:mod:`repro.obs.propagate`): the driver re-emits every span a pool
        worker shipped back, with a *fresh local span id* (worker-side ids
        are meaningless here) but the caller's choice of trace and parent —
        so a whole worker subtree grafts under the driver's open span while
        keeping its internal parent/child structure.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(
            name=name,
            trace_id=trace_id if trace_id is not None else self._trace_id(),
            span_id=self._span_id(),
            parent_id=parent_id,
            start=float(start),
            attributes=dict(attributes),
        )
        self._finish(span, float(end))
        return span

    # -- inspection ----------------------------------------------------------

    def spans(self, name: str | None = None) -> tuple[Span, ...]:
        """Finished spans, oldest first (optionally filtered by name)."""
        with self._lock:
            snapshot = tuple(self._spans)
        if name is None:
            return snapshot
        return tuple(span for span in snapshot if span.name == name)

    def trace(self, trace_id: str) -> tuple[Span, ...]:
        """Every finished span of one trace, oldest first."""
        with self._lock:
            return tuple(span for span in self._spans if span.trace_id == trace_id)

    def children(self, span: Span) -> tuple[Span, ...]:
        with self._lock:
            return tuple(s for s in self._spans if s.parent_id == span.span_id)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.n_dropped = 0


class NullSpan:
    """The shared no-op span the disabled tracer hands out."""

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    finished = True
    attributes: dict[str, Any] = {}

    def set(self, **attributes: Any) -> "NullSpan":
        return self


class _NullSpanContext:
    """Reusable context manager: no allocation per disabled span."""

    _SPAN = NullSpan()

    def __enter__(self) -> NullSpan:
        return self._SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullTracer:
    """The disabled tracer: every call is a cheap no-op."""

    enabled = False
    n_dropped = 0
    buffer_size = 0
    current_span = None
    drop_counter = None

    _CONTEXT = _NullSpanContext()
    _SPAN = NullSpan()

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return self._CONTEXT

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> NullSpan:
        return self._SPAN

    def spans(self, name: str | None = None) -> tuple:
        return ()

    def trace(self, trace_id: str) -> tuple:
        return ()

    def children(self, span: Any) -> tuple:
        return ()

    def clear(self) -> None:
        pass
