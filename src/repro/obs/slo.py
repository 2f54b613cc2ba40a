"""The SLO engine: declarative objectives, burn-rate alerts, error budgets.

An :class:`SloSpec` names an objective ("99.9 % of requests are served",
"99 % of requests finish under 250 ms", "the served product is never more
than 10 minutes stale") **over series the registry already collects** — no
new instrumentation is required to add an objective, only a query:

* :class:`CounterRatioQuery` — bad/total event counters (availability:
  ``router_errors_total`` over ``router_requests_total``);
* :class:`HistogramAboveQuery` — observations above a latency bound, read
  exactly from a histogram's cumulative ``le`` buckets (the bound should
  be one of the bucket edges, where the count is exact);
* :class:`GaugeStalenessQuery` — freshness: one good/bad observation per
  evaluation tick depending on how far a timestamp gauge lags the clock.

The :class:`SloEvaluator` follows the Google-SRE *multi-window burn-rate*
recipe.  The **burn rate** is how many times faster than sustainable the
error budget is being consumed::

    burn = (bad_delta / total_delta) / (1 - objective)

A burn rate of 1 spends exactly the budget over the SLO period; 14.4 over
a 5-minute window is the classic page-now threshold.  Each spec is watched
over a *fast* window (acute outages fire within minutes) and a *slow*
window (sustained low-grade burn cannot hide below the fast threshold),
each with its own :class:`Alert` state machine::

    ok → pending → firing → resolved → (pending ...)

``pending`` debounces (``for_s``), and ``firing`` resolves only once the
burn rate drops below ``threshold * resolve_fraction`` — hysteresis, so an
alert flapping around the threshold does not flap pages.

Every spec also keeps a lifetime **error-budget ledger** from exact event
counts: ``budget = (1 - objective) * total_events`` bad events are allowed;
the ledger reports how many were spent and the remaining fraction.

Everything is clocked through the evaluator's pluggable clock: under
``VirtualClock`` a scripted violation fires at an exact tick, and the
ledger arithmetic is integer-exact (tests assert ``==``, not ``approx``).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.clock import MonotonicClock
from repro.config import DEFAULT_SLO, SloConfig
from repro.obs.metrics import Histogram

__all__ = [
    "Alert",
    "BurnWindow",
    "CounterRatioQuery",
    "ErrorBudget",
    "GaugeStalenessQuery",
    "HistogramAboveQuery",
    "SloEvaluator",
    "SloSpec",
    "availability_slo",
    "freshness_slo",
    "latency_slo",
]


# ---------------------------------------------------------------------------
# Series queries: how a spec reads (bad, total) from the registry
# ---------------------------------------------------------------------------


def _summed(series: list[tuple[Any, float, float]]) -> tuple[float, float]:
    return float(sum(s[1] for s in series)), float(sum(s[2] for s in series))


@dataclass(frozen=True)
class CounterRatioQuery:
    """Cumulative bad/total event counters, summed across label sets."""

    bad: str
    total: str
    cumulative = True

    def series(self, registry: Any) -> list[tuple[Any, float, float]]:
        """``(series id, bad, total)`` for every label set of both counters."""
        return [
            ((metric.name, metric.labels), metric.value, 0.0)
            for metric in registry.find(self.bad)
        ] + [
            ((metric.name, metric.labels), 0.0, metric.value)
            for metric in registry.find(self.total)
        ]

    def sample(self, registry: Any, now: float) -> tuple[float, float]:
        return _summed(self.series(registry))


@dataclass(frozen=True)
class HistogramAboveQuery:
    """Observations above ``threshold_s`` in a latency histogram.

    Reads the cumulative ``le`` buckets: observations at or below the
    largest edge ≤ ``threshold_s`` are good, the rest (including the +Inf
    overflow bucket) are bad.  Pick a threshold that **is** a bucket edge
    and the split is exact; between edges it rounds the threshold down.
    """

    histogram: str
    threshold_s: float
    cumulative = True

    def series(self, registry: Any) -> list[tuple[Any, float, float]]:
        """``(series id, bad, total)`` for every label set of the histogram."""
        out = []
        for metric in registry.find(self.histogram):
            if not isinstance(metric, Histogram):
                continue
            cumulative = metric.cumulative_counts()
            index = bisect.bisect_right(metric.edges, self.threshold_s) - 1
            good = int(cumulative[index]) if index >= 0 else 0
            count = metric.count
            out.append(((metric.name, metric.labels), float(count - good), float(count)))
        return out

    def sample(self, registry: Any, now: float) -> tuple[float, float]:
        return _summed(self.series(registry))


@dataclass(frozen=True)
class GaugeStalenessQuery:
    """Freshness: is a timestamp gauge lagging the clock beyond a bound?

    Contributes one observation per evaluation tick — bad when
    ``now - gauge_value > max_lag_s`` (taking the freshest label set), good
    otherwise; no observation at all while the gauge was never set, so an
    idle process neither earns nor burns freshness budget.
    """

    gauge: str
    max_lag_s: float
    cumulative = False

    def sample(self, registry: Any, now: float) -> tuple[float, float]:
        metrics = registry.find(self.gauge)
        if not metrics:
            return 0.0, 0.0
        freshest = max(metric.value for metric in metrics)
        return (1.0 if now - freshest > self.max_lag_s else 0.0), 1.0


# ---------------------------------------------------------------------------
# Specs, windows, alerts, budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate lookback: its length and the rate that trips it."""

    name: str
    duration_s: float
    burn_threshold: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("window duration_s must be positive")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over existing registry series."""

    name: str
    objective: float
    query: CounterRatioQuery | HistogramAboveQuery | GaugeStalenessQuery
    description: str = ""
    #: Override the evaluator-level window geometry for this spec only.
    windows: tuple[BurnWindow, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.objective < 1:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective} — "
                "an objective of 1 leaves no error budget to burn"
            )

    @property
    def budget_fraction(self) -> float:
        """The tolerated bad fraction (1 − objective)."""
        return 1.0 - self.objective


@dataclass
class Alert:
    """The state machine of one (spec, window) pair."""

    slo: str
    window: str
    burn_threshold: float
    state: str = "ok"  # ok | pending | firing | resolved
    burn_rate: float = 0.0
    pending_since: float | None = None
    fired_at: float | None = None
    resolved_at: float | None = None

    @property
    def firing(self) -> bool:
        return self.state == "firing"

    def as_dict(self) -> dict[str, Any]:
        return {
            "slo": self.slo,
            "window": self.window,
            "state": self.state,
            "burn_rate": self.burn_rate,
            "burn_threshold": self.burn_threshold,
            "pending_since": self.pending_since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
        }


@dataclass(frozen=True)
class ErrorBudget:
    """One spec's lifetime budget ledger, from exact event counts."""

    slo: str
    objective: float
    total_events: float
    bad_events: float
    budget_events: float     # (1 - objective) * total_events
    consumed_fraction: float  # bad / budget, 0 when no budget accrued yet
    remaining_fraction: float  # 1 - consumed (may go negative: overspent)

    def as_dict(self) -> dict[str, Any]:
        return {
            "slo": self.slo,
            "objective": self.objective,
            "total_events": self.total_events,
            "bad_events": self.bad_events,
            "budget_events": self.budget_events,
            "consumed_fraction": self.consumed_fraction,
            "remaining_fraction": self.remaining_fraction,
        }


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class SloEvaluator:
    """Sample specs on a clock, maintain alerts and budget ledgers.

    Parameters
    ----------
    registry:
        The metrics registry the spec queries read.
    clock:
        Anything with ``now() -> float`` (share the tracer's clock so SLO
        ticks and span times live on one axis); ``None`` uses a
        :class:`~repro.clock.MonotonicClock`.
    config:
        Window geometry and thresholds (:class:`~repro.config.SloConfig`);
        per-spec ``windows`` override it.
    log:
        Optional :class:`~repro.obs.log.EventLog`; alert transitions are
        logged (``slo.alert_firing`` / ``slo.alert_resolved``) so a page
        can be joined to the events and spans around it.
    """

    def __init__(
        self,
        registry: Any,
        clock: Any = None,
        config: SloConfig = DEFAULT_SLO,
        log: Any = None,
    ) -> None:
        self.registry = registry
        self.clock = clock if clock is not None else MonotonicClock()
        self.config = config
        self.log = log
        self.specs: list[SloSpec] = []
        #: (t, bad_cum, total_cum) samples per spec, oldest first.
        self._history: dict[str, deque[tuple[float, float, float]]] = {}
        #: Running (bad, total) per spec, so every window sees monotone
        #: totals: per-tick (non-cumulative) samples are summed, cumulative
        #: series add what they grew (:meth:`_grown`).
        self._accumulated: dict[str, tuple[float, float]] = {}
        #: Each cumulative spec's last (bad, total) per series id.
        self._last_series: dict[str, dict[Any, tuple[float, float]]] = {}
        #: First observed (bad, total) per spec — the budget ledger baseline.
        self._baseline: dict[str, tuple[float, float]] = {}
        self._alerts: dict[tuple[str, str], Alert] = {}

    # -- registration --------------------------------------------------------

    def add(self, spec: SloSpec) -> SloSpec:
        if any(existing.name == spec.name for existing in self.specs):
            raise ValueError(f"SLO {spec.name!r} is already registered")
        self.specs.append(spec)
        self._history[spec.name] = deque(maxlen=self.config.max_samples)
        for window in self._windows(spec):
            self._alerts[(spec.name, window.name)] = Alert(
                slo=spec.name,
                window=window.name,
                burn_threshold=window.burn_threshold,
            )
        return spec

    def _windows(self, spec: SloSpec) -> tuple[BurnWindow, ...]:
        if spec.windows is not None:
            return spec.windows
        return (
            BurnWindow("fast", self.config.fast_window_s, self.config.fast_burn_threshold),
            BurnWindow("slow", self.config.slow_window_s, self.config.slow_burn_threshold),
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float | None = None) -> tuple[Alert, ...]:
        """One tick: sample every spec, update windows, alerts, ledgers."""
        t = self.clock.now() if now is None else float(now)
        for spec in self.specs:
            if spec.query.cumulative:
                bad, total = self._grown(spec.name, spec.query.series(self.registry))
            else:
                bad, total = spec.query.sample(self.registry, t)
            prev_bad, prev_total = self._accumulated.get(spec.name, (0.0, 0.0))
            bad, total = prev_bad + bad, prev_total + total
            self._accumulated[spec.name] = (bad, total)
            if spec.name not in self._baseline:
                self._baseline[spec.name] = (bad, total)
            history = self._history[spec.name]
            history.append((t, bad, total))
            self._prune(history, t)
            for window in self._windows(spec):
                alert = self._alerts[(spec.name, window.name)]
                alert.burn_rate = self._burn_rate(spec, history, window, t)
                self._step(alert, t)
        return self.alerts()

    def _grown(self, name: str, series: list[tuple[Any, float, float]]) -> tuple[float, float]:
        """How much a cumulative spec's series grew since the last tick.

        Summed per series, so a series that leaves the registry (a closed
        router drops its own) takes nothing back: a sum over label sets
        would fall and hide a burn.  A series seen for the first time
        adds its whole value; one that fell (dropped, then registered
        again) counts as reset to 0, as Prometheus' ``increase`` does.
        Like any sampler it misses what a series counted after the last
        tick if the series is dropped before the next one: tick before
        closing a router to count its tail.
        """
        last = self._last_series.get(name, {})
        bad = total = 0.0
        for key, now_bad, now_total in series:
            was_bad, was_total = last.get(key, (0.0, 0.0))
            if now_bad < was_bad or now_total < was_total:
                was_bad = was_total = 0.0
            bad += now_bad - was_bad
            total += now_total - was_total
        self._last_series[name] = {key: (b, t) for key, b, t in series}
        return bad, total

    def _prune(self, history: deque, now: float) -> None:
        """Drop samples older than the slow window needs (keep one beyond)."""
        horizon = now - self.config.slow_window_s
        while len(history) > 2 and history[1][0] <= horizon:
            history.popleft()

    @staticmethod
    def _window_start(
        history: deque[tuple[float, float, float]], target: float
    ) -> tuple[float, float, float]:
        """The newest sample at or before ``target`` (oldest as fallback)."""
        chosen = history[0]
        for sample in history:
            if sample[0] <= target:
                chosen = sample
            else:
                break
        return chosen

    def _burn_rate(
        self,
        spec: SloSpec,
        history: deque[tuple[float, float, float]],
        window: BurnWindow,
        now: float,
    ) -> float:
        _, bad_then, total_then = self._window_start(history, now - window.duration_s)
        _, bad_now, total_now = history[-1]
        delta_total = total_now - total_then
        if delta_total <= 0:
            return 0.0
        bad_fraction = (bad_now - bad_then) / delta_total
        return bad_fraction / spec.budget_fraction

    def _step(self, alert: Alert, now: float) -> None:
        burn = alert.burn_rate
        threshold = alert.burn_threshold
        resolve_below = threshold * self.config.resolve_fraction
        if burn >= threshold:
            if alert.state in ("ok", "resolved"):
                alert.state = "pending"
                alert.pending_since = now
            if alert.state == "pending" and now - alert.pending_since >= self.config.for_s:
                alert.state = "firing"
                alert.fired_at = now
                alert.resolved_at = None
                if self.log is not None:
                    self.log.warning(
                        "slo.alert_firing",
                        slo=alert.slo,
                        window=alert.window,
                        burn_rate=round(burn, 6),
                        burn_threshold=threshold,
                    )
        elif alert.state == "pending" and burn < threshold:
            # The violation did not outlast the debounce: stand down.
            alert.state = "ok"
            alert.pending_since = None
        elif alert.state == "firing" and burn < resolve_below:
            alert.state = "resolved"
            alert.resolved_at = now
            alert.pending_since = None
            if self.log is not None:
                self.log.info(
                    "slo.alert_resolved",
                    slo=alert.slo,
                    window=alert.window,
                    burn_rate=round(burn, 6),
                )

    # -- inspection ----------------------------------------------------------

    def alerts(self) -> tuple[Alert, ...]:
        """Every alert, ordered by (slo, window registration order)."""
        return tuple(self._alerts.values())

    def firing(self) -> tuple[Alert, ...]:
        return tuple(a for a in self._alerts.values() if a.firing)

    def alert(self, slo: str, window: str) -> Alert:
        return self._alerts[(slo, window)]

    def error_budget(self, name: str) -> ErrorBudget:
        """The lifetime ledger of one spec, exact from event counts."""
        spec = next((s for s in self.specs if s.name == name), None)
        if spec is None:
            raise KeyError(f"no SLO named {name!r}")
        history = self._history[name]
        if history:
            base_bad, base_total = self._baseline[name]
            _, bad_now, total_now = history[-1]
            bad = bad_now - base_bad
            total = total_now - base_total
        else:
            bad = total = 0.0
        budget = spec.budget_fraction * total
        consumed = bad / budget if budget > 0 else 0.0
        return ErrorBudget(
            slo=name,
            objective=spec.objective,
            total_events=total,
            bad_events=bad,
            budget_events=budget,
            consumed_fraction=consumed,
            remaining_fraction=1.0 - consumed,
        )

    def error_budgets(self) -> list[ErrorBudget]:
        return [self.error_budget(spec.name) for spec in self.specs]

    def as_dict(self) -> dict[str, Any]:
        """The dashboard shape: alert rows plus budget rows."""
        return {
            "alerts": [alert.as_dict() for alert in self.alerts()],
            "error_budgets": [budget.as_dict() for budget in self.error_budgets()],
        }


# ---------------------------------------------------------------------------
# Ready-made specs over the series the tiers already emit
# ---------------------------------------------------------------------------


def availability_slo(
    name: str = "serve_availability",
    objective: float = 0.999,
    bad: str = "router_errors_total",
    total: str = "router_requests_total",
) -> SloSpec:
    """Requests served, out of all routed requests.

    A request is bad when it is unroutable (no healthy product covers it)
    or its execution fails, e.g. on a corrupt product.
    """
    return SloSpec(
        name=name,
        objective=objective,
        query=CounterRatioQuery(bad=bad, total=total),
        description=f"{objective:.3%} of requests served without error",
    )


def latency_slo(
    name: str = "serve_latency",
    objective: float = 0.99,
    histogram: str = "router_request_latency_seconds",
    threshold_s: float = 0.25,
) -> SloSpec:
    """Requests finishing within a latency bound (a histogram bucket edge)."""
    return SloSpec(
        name=name,
        objective=objective,
        query=HistogramAboveQuery(histogram=histogram, threshold_s=threshold_s),
        description=f"{objective:.2%} of requests under {threshold_s * 1e3:g} ms",
    )


def freshness_slo(
    name: str = "ingest_freshness",
    objective: float = 0.95,
    gauge: str = "ingest_last_ingest_ts",
    max_lag_s: float = 600.0,
) -> SloSpec:
    """The served product keeps up with the granule stream."""
    return SloSpec(
        name=name,
        objective=objective,
        query=GaugeStalenessQuery(gauge=gauge, max_lag_s=max_lag_s),
        description=f"ingest lag under {max_lag_s:g} s in {objective:.1%} of checks",
    )
