"""The program's one time source: real monotonic, virtual, and wall clocks.

Everything that reads "now" — span start/end in :mod:`repro.obs.trace`,
SLO ticks, log timestamps and the router's latency measurement — goes
through a one-method clock interface (``now()``) instead of ``time``
directly:

* :class:`MonotonicClock` — the default everywhere: ``time.perf_counter``.
* :class:`VirtualClock` — tests.  It never touches real time: it moves
  only when :meth:`VirtualClock.tick` moves it, which makes span
  durations, request latencies and SLO fire/resolve ticks exact.
* :class:`WallClock` — ``time.time``, the default of a bare
  :class:`~repro.obs.log.EventLog` only, so standalone log timestamps are
  wall-clock epochs.

Durations of real work (map-reduce phases, pipeline stage ``seconds``,
campaign stage timings) are *not* read from these clocks: they are inline
``time.perf_counter()`` deltas, so they stay real under an injected
``VirtualClock`` or a disabled ``Obs``.
"""

from __future__ import annotations

import time


class MonotonicClock:
    """The real clock: ``time.perf_counter``."""

    def now(self) -> float:
        return time.perf_counter()


class WallClock:
    """Wall time (``time.time``): seconds since the epoch, for log records."""

    def now(self) -> float:
        return time.time()


class VirtualClock:
    """A manually advanced clock: ``now()`` moves only on :meth:`tick`.

    No real time passes, ever, so latency arithmetic in tests is
    bit-exact.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def tick(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new ``now()``.

        A handler that ``tick(0.004)``s mid-request makes every ``now()``
        delta — span durations, latency arithmetic — exactly 0.004.
        """
        if seconds < 0:
            raise ValueError("cannot tick a clock backwards")
        self._now += float(seconds)
        return self._now
