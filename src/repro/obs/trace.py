"""The tracer: nested spans in a bounded ring buffer.

A :class:`Span` is one timed operation — a routed request, a pipeline
stage, one map task.  Spans nest through a :class:`contextvars.ContextVar`,
so the current span follows the code across ``await`` boundaries (asyncio
copies the context into every task) and a span opened by the router is the
parent of every span opened while serving it, such as a decode's
map-reduce job.  Thread-pool
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
random UUIDs, so traces are reproducible run to run.  Opening and closing
a span takes no lock.  :func:`profile_table` rolls the finished spans up
into self time per span name when it is called, so the traced code pays
nothing for the rollup.
"""

from __future__ import annotations

import contextvars
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

from repro.clock import MonotonicClock
from repro.obs.metrics import Counter

__all__ = ["NullSpan", "NullTracer", "ProfileRow", "Span", "Tracer", "profile_table"]


@dataclass(slots=True)
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
        #: Optional anything-with-``inc()`` (a registry counter) mirroring
        #: every ring-buffer drop, so truncated traces are visible in
        #: exports instead of only on :attr:`n_dropped`.  ``Obs`` wires
        #: ``trace_spans_dropped_total`` here.
        self.drop_counter: Any = None
        # No lock on the hot path: ``next()`` on an ``itertools.count`` and
        # ``deque.append`` are single thread-safe C calls.  A span's finish
        # ordinal says whether its append pushed the oldest span out.
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._finished = itertools.count(1)
        self._drops = Counter("trace_spans_dropped")
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_obs_current_span", default=None
        )

    # -- ids / context -------------------------------------------------------

    def _span_id(self) -> str:
        return "s%04d" % next(self._span_ids)

    def _trace_id(self) -> str:
        return "t%04d" % next(self._trace_ids)

    @property
    def current_span(self) -> Span | None:
        """The innermost open span of the calling context, if any."""
        return self._current.get()

    @property
    def n_dropped(self) -> int:
        """Spans the full ring buffer pushed out since the last :meth:`clear`."""
        return int(self._drops.value)

    def _finish(self, span: Span, end: float) -> None:
        span.end = end
        self._spans.append(span)
        if next(self._finished) > self.buffer_size:
            self._drops.inc()
            if self.drop_counter is not None:
                self.drop_counter.inc()

    # -- emission ------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> "_SpanScope":
        """Open a span as a child of the context's current span.

        The span closes (and lands in the buffer) when the block exits;
        an escaping exception is recorded as an ``error`` attribute and
        re-raised.
        """
        return _SpanScope(self, name, attributes)

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
        # ``deque.copy`` is one C call, so a concurrent finish cannot
        # interleave with the snapshot.
        snapshot = tuple(self._spans.copy())
        if name is None:
            return snapshot
        return tuple(span for span in snapshot if span.name == name)

    def trace(self, trace_id: str) -> tuple[Span, ...]:
        """Every finished span of one trace, oldest first."""
        return tuple(span for span in self.spans() if span.trace_id == trace_id)

    def children(self, span: Span) -> tuple[Span, ...]:
        return tuple(s for s in self.spans() if s.parent_id == span.span_id)

    def clear(self) -> None:
        self._spans.clear()
        self._finished = itertools.count(1)
        self._drops = Counter("trace_spans_dropped")


class _SpanScope:
    """The context manager behind :meth:`Tracer.span`.

    A slotted class rather than a ``@contextmanager`` generator: entering
    and leaving a span is the per-request cost of every traced hot path,
    and a plain ``__enter__``/``__exit__`` pair skips the generator frame
    and its wrapper.  ``attributes`` is the fresh ``**kwargs`` dict of the
    ``span()`` call, so the span owns it without a copy.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_token")

    def __init__(self, tracer: Tracer, name: str, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = tracer._current.get()
        if parent is None:
            trace_id, parent_id = tracer._trace_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = self._span = Span(
            self._name,
            trace_id,
            tracer._span_id(),
            parent_id,
            tracer.clock.now(),
            None,
            self._attributes,
        )
        self._token = tracer._current.set(span)
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        tracer = self._tracer
        span = self._span
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        tracer._current.reset(self._token)
        tracer._finish(span, tracer.clock.now())


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


# ---------------------------------------------------------------------------
# Self-time rollup: "where did the time go?", computed when read.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    """One span name's share of the trace.

    ``self_s`` is time inside spans of this name but outside their direct
    children, so the self times of a tree add up to its root's duration
    and no nesting is counted twice.  ``total_s`` is inclusive time counted
    only for the outermost span of the name (a ``mapreduce.map`` nested in
    another ``mapreduce.map`` adds calls, not time).
    """

    name: str
    calls: int
    self_s: float
    total_s: float


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``.

    A union, not a sum: pool tasks run concurrently, so their intervals
    overlap, and the parent's self time must not go negative.
    """
    covered = 0.0
    reach = span.start
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def profile_table(tracer: Tracer | NullTracer) -> list[ProfileRow]:
    """Self and inclusive time per span name, largest self time first.

    Built from the tracer's finished spans when called, so the traced code
    pays nothing for it.  A span whose parent has left the ring buffer
    counts as a root.
    """
    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id in by_id:
            children[span.parent_id].append(span)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.duration - _covered(span, children[span.span_id])
        ancestor = by_id.get(span.parent_id)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent_id)
        if ancestor is None:
            total_s[span.name] += span.duration
    rows = [ProfileRow(name, calls[name], self_s[name], total_s[name]) for name in calls]
    return sorted(rows, key=lambda row: (-row.self_s, row.name))
