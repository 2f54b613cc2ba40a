"""Structured logging: JSON-lines events correlated with the tracer.

A log line you cannot join to a trace answers "what happened" but never
"*which request* it happened to".  :class:`EventLog` closes that gap: every
record automatically carries the ``trace_id``/``span_id`` of the caller's
innermost open span (read from the tracer's ``contextvars``), so a firing
dashboard alert, the router span whose request failed and the
``router.shard_quarantined`` event it logged all share one trace id.

Records land in two places:

* a bounded in-memory **ring** (``deque(maxlen)``) feeding the dashboard's
  "recent events" section, and
* an optional append-only **JSON-lines sink** — one ``write()`` call per
  record, each a complete ``\\n``-terminated JSON document, so a tailing
  reader never sees a torn line.

Repeated identical events are **deduplicated**: a record whose
``(level, event)`` pair was emitted within the last ``dedup_window_s``
seconds is suppressed and counted; the next emission outside the window
carries a ``suppressed`` field summarising how many twins were dropped.
An error loop therefore costs one ring slot per window, not one per
iteration.

Time comes from the same pluggable clock as the tracer, so `VirtualClock`
tests assert exact record timestamps and exact dedup-window arithmetic.  A
bare ``EventLog()`` with no clock stamps records with wall time
(:class:`~repro.clock.WallClock`).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO

from repro.clock import WallClock
from repro.config import DEFAULT_LOG, LogConfig

__all__ = ["EventLog", "LEVELS", "LogRecord", "NullEventLog"]

#: Severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "error")
_LEVEL_RANK = {level: rank for rank, level in enumerate(LEVELS)}


@dataclass
class LogRecord:
    """One structured event: when, how severe, what, and its trace lineage."""

    ts: float
    level: str
    event: str
    trace_id: str | None = None
    span_id: str | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-friendly form (the sink's line and the dashboard's row)."""
        return {
            "ts": self.ts,
            "level": self.level,
            "event": self.event,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            **self.fields,
        }

    def __repr__(self) -> str:
        return f"LogRecord({self.level} {self.event!r} t={self.trace_id})"


class EventLog:
    """Bounded ring + optional JSON-lines sink of trace-correlated events.

    Parameters
    ----------
    config:
        The :class:`~repro.config.LogConfig` slice: ring capacity, dedup
        window, minimum severity.
    clock:
        Anything with ``now() -> float``; ``None`` uses a
        :class:`~repro.clock.WallClock`.  Hand it
        the tracer's clock so log timestamps and span times share one axis.
    tracer:
        The tracer whose current span stamps each record's
        ``trace_id``/``span_id``; ``None`` leaves records uncorrelated.
    """

    enabled = True

    def __init__(
        self,
        config: LogConfig = DEFAULT_LOG,
        clock: Any = None,
        tracer: Any = None,
    ) -> None:
        self.config = config
        self.clock = clock if clock is not None else WallClock()
        self.tracer = tracer
        self._ring: deque[LogRecord] = deque(maxlen=config.ring_size)
        self._lock = threading.Lock()
        self._min_rank = _LEVEL_RANK[config.min_level]
        # Dedup state per (level, event): when the last record was *emitted*
        # and how many twins were suppressed since.
        self._last_emitted: dict[tuple[str, str], float] = {}
        self._pending_suppressed: dict[tuple[str, str], int] = {}
        self.n_records = 0
        self.n_suppressed = 0
        self._sink: IO[str] | None = None
        self._sink_path: Path | None = None

    # -- sink lifecycle ------------------------------------------------------

    def attach_sink(self, path: str | Path) -> Path:
        """Mirror every future record to a JSON-lines file (append mode)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            if self._sink is not None:
                self._sink.close()
            self._sink = open(path, "a", encoding="utf-8")
            self._sink_path = path
        return path

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    @property
    def sink_path(self) -> Path | None:
        return self._sink_path

    # -- emission ------------------------------------------------------------

    def emit(self, level: str, event: str, **fields: Any) -> LogRecord | None:
        """Record one event; returns ``None`` when filtered or deduplicated."""
        rank = _LEVEL_RANK.get(level)
        if rank is None:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        if rank < self._min_rank:
            return None
        now = self.clock.now()
        key = (level, event)
        window = self.config.dedup_window_s
        with self._lock:
            if window > 0:
                last = self._last_emitted.get(key)
                if last is not None and now - last < window:
                    self._pending_suppressed[key] = (
                        self._pending_suppressed.get(key, 0) + 1
                    )
                    self.n_suppressed += 1
                    return None
            suppressed = self._pending_suppressed.pop(key, 0)
            self._last_emitted[key] = now
        current = self.tracer.current_span if self.tracer is not None else None
        record = LogRecord(
            ts=now,
            level=level,
            event=event,
            trace_id=current.trace_id if current is not None else None,
            span_id=current.span_id if current is not None else None,
            fields=dict(fields, suppressed=suppressed) if suppressed else dict(fields),
        )
        with self._lock:
            self._ring.append(record)
            self.n_records += 1
            sink = self._sink
        if sink is not None:
            # One write per record: each line is a whole JSON document, so
            # tailing readers never split a record.
            sink.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
            sink.flush()
        return record

    def debug(self, event: str, **fields: Any) -> LogRecord | None:
        return self.emit("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> LogRecord | None:
        return self.emit("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> LogRecord | None:
        return self.emit("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> LogRecord | None:
        return self.emit("error", event, **fields)

    # -- inspection ----------------------------------------------------------

    def events(
        self,
        event: str | None = None,
        level: str | None = None,
        trace_id: str | None = None,
    ) -> tuple[LogRecord, ...]:
        """Ring contents, oldest first, optionally filtered."""
        with self._lock:
            snapshot = tuple(self._ring)
        if event is not None:
            snapshot = tuple(r for r in snapshot if r.event == event)
        if level is not None:
            snapshot = tuple(r for r in snapshot if r.level == level)
        if trace_id is not None:
            snapshot = tuple(r for r in snapshot if r.trace_id == trace_id)
        return snapshot

    def tail(self, n: int = 50) -> list[dict[str, Any]]:
        """The newest ``n`` records as JSON-friendly dicts (dashboard shape).

        ``tail(0)`` is empty; a negative ``n`` raises ``ValueError``.
        """
        _check_tail(n)
        if n == 0:
            return []
        with self._lock:
            snapshot = list(self._ring)[-n:]
        return [record.as_dict() for record in snapshot]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._last_emitted.clear()
            self._pending_suppressed.clear()
            self.n_records = 0
            self.n_suppressed = 0

    def __len__(self) -> int:
        return len(self._ring)


def _check_tail(n: int) -> None:
    if n < 0:
        raise ValueError(f"tail needs n >= 0, got {n}")


class NullEventLog:
    """The disabled log: same surface, no state, no I/O."""

    enabled = False
    n_records = 0
    n_suppressed = 0
    sink_path = None

    def attach_sink(self, path: str | Path) -> Path:
        return Path(path)

    def close(self) -> None:
        pass

    def emit(self, level: str, event: str, **fields: Any) -> None:
        return None

    def debug(self, event: str, **fields: Any) -> None:
        return None

    def info(self, event: str, **fields: Any) -> None:
        return None

    def warning(self, event: str, **fields: Any) -> None:
        return None

    def error(self, event: str, **fields: Any) -> None:
        return None

    def events(self, event=None, level=None, trace_id=None) -> tuple:
        return ()

    def tail(self, n: int = 50) -> list:
        _check_tail(n)
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0
