"""The program's one time source: real monotonic, virtual, and wall clocks.

Everything that reads "now" — span start/end in :mod:`repro.obs.trace`,
SLO ticks, log timestamps, the router's latency measurement and the health
monitor's pacing — goes through a tiny clock interface (``now()`` /
``sleep()``) instead of ``time`` and ``asyncio.sleep`` directly:

* :class:`MonotonicClock` — the default everywhere: ``time.perf_counter``
  plus ``asyncio.sleep``.
* :class:`VirtualClock` — tests.  It never touches real time:
  :meth:`VirtualClock.tick` moves it synchronously, and async sleepers
  park on futures that :meth:`VirtualClock.advance` wakes **in deadline
  order**, draining the event loop between wake-ups so a woken task runs
  to its next await before a later deadline fires.  That makes span
  durations, request latencies and SLO fire/resolve ticks exact, with no
  real sleeps.
* :class:`WallClock` — ``time.time``, the default of a bare
  :class:`~repro.obs.log.EventLog` only, so standalone log timestamps are
  wall-clock epochs.

Durations of real work (map-reduce phases, pipeline stage ``seconds``,
campaign stage timings) are *not* read from these clocks: they are inline
``time.perf_counter()`` deltas, so they stay real under an injected
``VirtualClock`` or a disabled ``Obs``.
"""

from __future__ import annotations

import asyncio
import heapq
import time


class MonotonicClock:
    """The real clock: ``time.perf_counter`` plus ``asyncio.sleep``."""

    def now(self) -> float:
        return time.perf_counter()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(max(seconds, 0.0))


class WallClock:
    """Wall time (``time.time``): seconds since the epoch, for log records."""

    def now(self) -> float:
        return time.time()


class VirtualClock:
    """A manually advanced clock for deterministic asyncio tests.

    ``sleep(dt)`` parks the caller on a future; ``advance(dt)`` moves
    virtual time forward, resolving due sleepers one at a time in deadline
    order (ties break by sleep order) and yielding to the event loop after
    each wake-up, so a woken coroutine runs up to its next suspension
    before the next deadline fires.  ``now()`` is exact — no real time
    passes, ever — which makes latency arithmetic in tests bit-exact.
    """

    #: Event-loop yields after each wake-up; enough for a woken task to
    #: chain through several plain awaits (future results propagate via
    #: ``call_soon``) before the clock moves again.
    _DRAIN_ROUNDS = 25

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._seq = 0
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    def next_delay(self) -> float | None:
        """Seconds until the earliest pending sleeper, or ``None``."""
        pending = [d for d, _, fut in self._sleepers if not fut.done()]
        if not pending:
            return None
        return max(min(pending) - self._now, 0.0)

    def tick(self, seconds: float) -> float:
        """Advance time *synchronously* without waking sleepers.

        Models synchronous service time inside otherwise-async tests: a
        handler that ``tick(0.004)``s mid-request makes every ``now()``
        delta — span durations, latency arithmetic — exactly 0.004 with no
        event-loop round trip.  Sleepers whose deadlines pass stay parked
        until the next :meth:`advance`/:meth:`advance_to_next` (which wake
        them immediately, their deadlines being already due).
        """
        if seconds < 0:
            raise ValueError("cannot tick a clock backwards")
        self._now += float(seconds)
        return self._now

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        heapq.heappush(self._sleepers, (self._now + float(seconds), self._seq, fut))
        self._seq += 1
        await fut

    async def advance(self, seconds: float) -> None:
        """Move virtual time forward, waking due sleepers in deadline order."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + float(seconds)
        while self._sleepers and self._sleepers[0][0] <= target:
            deadline, _, fut = heapq.heappop(self._sleepers)
            self._now = max(self._now, deadline)
            if not fut.done():  # skip sleepers whose task was cancelled
                fut.set_result(None)
                await self._drain()
        self._now = target
        await self._drain()

    async def advance_to_next(self) -> bool:
        """Advance exactly to the earliest pending deadline (if any)."""
        delay = self.next_delay()
        if delay is None:
            await self._drain()
            return False
        await self.advance(delay)
        return True

    async def _drain(self) -> None:
        for _ in range(self._DRAIN_ROUNDS):
            await asyncio.sleep(0)
