"""The ``Obs`` facade: one handle bundling a registry and a tracer.

Instrumented components take ``obs: Obs | None = None`` and resolve
``None`` to the process-local default (:func:`default_obs`), so plumbing
is optional everywhere: a bare ``QueryEngine()`` and the campaign runner
feed the same default registry, while tests inject a private
``Obs(clock=virtual_clock)`` to get exact, isolated telemetry.

``ObsConfig(enabled=False)`` selects the null twins — same surface, no
state, no locks — which is what the overhead benchmark compares against.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.clock import MonotonicClock
from repro.config import DEFAULT_OBS, ObsConfig
from repro.obs.log import EventLog, NullEventLog
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.trace import NullTracer, Tracer

__all__ = ["Obs", "default_obs", "set_default_obs"]


class Obs:
    """One telemetry handle: ``.registry`` (metrics), ``.tracer`` (spans),
    ``.log`` (structured events, trace-correlated).

    Parameters
    ----------
    config:
        The :class:`~repro.config.ObsConfig` slice; ``enabled=False``
        swaps in the no-op null implementations.
    clock:
        Time source of the tracer and the event log (anything with
        ``now()``, e.g. a :class:`~repro.clock.VirtualClock`); ``None``
        uses a :class:`~repro.clock.MonotonicClock`.  :attr:`clock` is set
        whether or not telemetry is enabled.
    """

    def __init__(self, config: ObsConfig = DEFAULT_OBS, clock: Any = None) -> None:
        self.config = config
        self.clock = clock if clock is not None else MonotonicClock()
        if config.enabled:
            self.registry: MetricsRegistry | NullRegistry = MetricsRegistry(
                default_buckets=config.latency_buckets_s
            )
            self.tracer: Tracer | NullTracer = Tracer(
                clock=self.clock, buffer_size=config.trace_buffer_size
            )
            # Ring-buffer drops surface as a counter so truncated traces
            # are visible in exports, not only on tracer internals.
            self.tracer.drop_counter = self.registry.counter(
                "trace_spans_dropped_total"
            )
            self.log: EventLog | NullEventLog = EventLog(
                config.log, clock=self.clock, tracer=self.tracer
            )
        else:
            self.registry = NullRegistry()
            self.tracer = NullTracer()
            self.log = NullEventLog()

    @classmethod
    def disabled(cls) -> "Obs":
        return cls(ObsConfig(enabled=False))

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- delegates (the surface instrumented code actually touches) ---------

    def counter(self, name: str, **labels: Any):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, edges=None, **labels: Any):
        return self.registry.histogram(name, edges=edges, **labels)

    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Obs({state}, {len(self.registry)} metrics)"


_default_lock = threading.Lock()
_default: Obs | None = None


def default_obs() -> Obs:
    """The process-local default ``Obs``, created enabled on first use."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Obs()
        return _default


def set_default_obs(obs: Obs) -> Obs:
    """Replace the process default; returns the previous one.

    Components resolve the default lazily at *construction*, so set it
    before building the stack you want it to cover (benchmarks install a
    disabled default this way).
    """
    global _default
    with _default_lock:
        previous, _default = _default, obs
    if previous is None:
        previous = obs
    return previous
