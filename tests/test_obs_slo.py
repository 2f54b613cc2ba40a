"""SLO engine: burn-rate windows, alert state machines, error budgets.

Every test drives a VirtualClock — violations fire at exact ticks and the
budget ledger arithmetic is exact; no real sleeps anywhere.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.config import SloConfig
from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    CounterRatioQuery,
    GaugeStalenessQuery,
    HistogramAboveQuery,
    SloEvaluator,
    SloSpec,
    availability_slo,
    freshness_slo,
    latency_slo,
)

# Compact window geometry so tests script minutes, not hours: the fast
# window reacts within 60 s, the slow one needs 600 s of history.
CONFIG = SloConfig(
    fast_window_s=60.0,
    slow_window_s=600.0,
    fast_burn_threshold=14.4,
    slow_burn_threshold=6.0,
)


def make_availability(registry=None, clock=None, config=CONFIG, log=None):
    registry = registry if registry is not None else MetricsRegistry()
    clock = clock if clock is not None else VirtualClock()
    ev = SloEvaluator(registry, clock=clock, config=config, log=log)
    ev.add(availability_slo(objective=0.999))
    return registry, clock, ev


def serve_traffic(registry, total: int, failed: int = 0) -> None:
    registry.counter("router_requests_total").inc(total)
    if failed:
        registry.counter("router_errors_total").inc(failed)


class TestQueries:
    def test_counter_ratio_sums_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("router_errors_total", router="a").inc(2)
        reg.counter("router_errors_total", router="b").inc(3)
        reg.counter("router_requests_total", router="a").inc(10)
        q = CounterRatioQuery(bad="router_errors_total", total="router_requests_total")
        assert q.sample(reg, 0.0) == (5.0, 10.0)

    def test_histogram_above_splits_exactly_on_an_edge(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(0.1, 0.25, 1.0))
        for v in (0.05, 0.2, 0.25, 0.5, 2.0):
            h.observe(v)
        q = HistogramAboveQuery(histogram="lat", threshold_s=0.25)
        # 0.05, 0.2, 0.25 land at or below the 0.25 edge; 0.5 and 2.0 above.
        assert q.sample(reg, 0.0) == (2.0, 5.0)

    def test_histogram_threshold_below_first_edge_counts_all_bad(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(0.1, 1.0))
        h.observe(0.05)
        q = HistogramAboveQuery(histogram="lat", threshold_s=0.01)
        assert q.sample(reg, 0.0) == (1.0, 1.0)

    def test_gauge_staleness_good_fresh_bad_stale_silent_unset(self):
        reg = MetricsRegistry()
        q = GaugeStalenessQuery(gauge="ingest_last_ingest_ts", max_lag_s=10.0)
        # Never set: no observation at all.
        assert q.sample(reg, 100.0) == (0.0, 0.0)
        reg.gauge("ingest_last_ingest_ts").set(95.0)
        assert q.sample(reg, 100.0) == (0.0, 1.0)  # 5 s lag: good
        assert q.sample(reg, 120.0) == (1.0, 1.0)  # 25 s lag: bad


class TestSpecValidation:
    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_objective_must_leave_a_budget(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(
                name="x",
                objective=objective,
                query=CounterRatioQuery(bad="b", total="t"),
            )

    def test_window_geometry_validated(self):
        with pytest.raises(ValueError, match="duration_s"):
            BurnWindow("w", duration_s=0.0, burn_threshold=1.0)
        with pytest.raises(ValueError, match="burn_threshold"):
            BurnWindow("w", duration_s=60.0, burn_threshold=0.0)

    def test_duplicate_registration_rejected(self):
        _, _, ev = make_availability()
        with pytest.raises(ValueError, match="already registered"):
            ev.add(availability_slo(objective=0.99))


class TestBurnRateMath:
    def test_burn_rate_is_bad_fraction_over_budget_fraction(self):
        reg, clock, ev = make_availability()
        serve_traffic(reg, total=1000)
        ev.evaluate()
        clock.tick(30.0)
        # 1% failed against a 0.1% budget: burn = 0.01 / 0.001 = 10.
        serve_traffic(reg, total=1000, failed=10)
        ev.evaluate()
        assert ev.alert("serve_availability", "fast").burn_rate == pytest.approx(10.0)

    def test_fast_window_fires_before_slow(self):
        reg, clock, ev = make_availability()
        serve_traffic(reg, total=1000)
        ev.evaluate()
        # A hard outage: 50% of requests fail, burn = 0.5/0.001 = 500.
        clock.tick(30.0)
        serve_traffic(reg, total=100, failed=50)
        ev.evaluate()
        fast = ev.alert("serve_availability", "fast")
        slow = ev.alert("serve_availability", "slow")
        assert fast.firing and fast.fired_at == pytest.approx(30.0)
        # Both windows currently see the same 30 s of history, so the slow
        # alert also trips — the *ordering* claim needs a violation that
        # clears the fast threshold but not a longer horizon, below.
        assert slow.firing

    def test_sustained_low_grade_burn_caught_only_by_slow_window(self):
        # Fail 1% steadily: burn 10 clears the slow threshold (6) but never
        # the fast one (14.4) — the pattern the slow window exists for.
        reg, clock, ev = make_availability()
        serve_traffic(reg, total=1000)
        ev.evaluate()
        for _ in range(20):
            clock.tick(30.0)
            serve_traffic(reg, total=1000, failed=10)
            ev.evaluate()
        assert not ev.alert("serve_availability", "fast").firing
        assert ev.alert("serve_availability", "slow").firing

    def test_no_traffic_means_no_burn(self):
        reg, clock, ev = make_availability()
        ev.evaluate()
        clock.tick(60.0)
        ev.evaluate()
        for alert in ev.alerts():
            assert alert.state == "ok"
            assert alert.burn_rate == 0.0

    def test_for_s_debounces_transient_violation(self):
        reg, clock, ev = make_availability(
            config=SloConfig(
                fast_window_s=60.0,
                slow_window_s=600.0,
                for_s=45.0,
            )
        )
        serve_traffic(reg, total=1000)
        ev.evaluate()
        clock.tick(10.0)
        serve_traffic(reg, total=100, failed=50)
        ev.evaluate()
        fast = ev.alert("serve_availability", "fast")
        assert fast.state == "pending" and fast.pending_since == pytest.approx(10.0)
        # Violation clears before for_s elapses: back to ok, never fired.
        clock.tick(70.0)
        serve_traffic(reg, total=10000)
        ev.evaluate()
        assert fast.state == "ok" and fast.fired_at is None


class TestAlertLifecycle:
    def test_fires_resolves_with_hysteresis_and_rearms(self):
        reg, clock, ev = make_availability()
        serve_traffic(reg, total=1000)
        ev.evaluate()

        clock.tick(30.0)
        serve_traffic(reg, total=100, failed=50)
        ev.evaluate()
        fast = ev.alert("serve_availability", "fast")
        assert fast.state == "firing" and fast.fired_at == pytest.approx(30.0)

        # Burn drops below threshold but above threshold/2: still firing
        # (hysteresis — resolve_fraction defaults to 0.5).
        clock.tick(60.0)
        serve_traffic(reg, total=10000, failed=100)  # window burn = 0.01/0.001 = 10
        ev.evaluate()
        assert fast.state == "firing"
        assert fast.burn_rate == pytest.approx(10.0)

        # Full recovery: burn under 7.2 resolves at this exact tick.
        clock.tick(70.0)
        serve_traffic(reg, total=100000)
        ev.evaluate()
        assert fast.state == "resolved"
        assert fast.resolved_at == pytest.approx(160.0)

        # A fresh outage — after the recovery sample ages out of the fast
        # window — re-arms the same alert.
        clock.tick(100.0)
        serve_traffic(reg, total=100, failed=60)
        ev.evaluate()
        assert fast.state == "firing"

    def test_transitions_are_logged_with_slo_name(self):
        clock = VirtualClock()
        log = EventLog(clock=clock)
        reg, clock, ev = make_availability(clock=clock, log=log)
        serve_traffic(reg, total=1000)
        ev.evaluate()
        clock.tick(30.0)
        serve_traffic(reg, total=100, failed=50)
        ev.evaluate()
        fired = log.events(event="slo.alert_firing", level="warning")
        assert fired and fired[0].fields["slo"] == "serve_availability"
        clock.tick(120.0)
        serve_traffic(reg, total=100000)
        ev.evaluate()
        assert log.events(event="slo.alert_resolved", level="info")


class TestErrorBudget:
    def test_ledger_is_exact_from_event_counts(self):
        reg, clock, ev = make_availability()
        ev.evaluate()  # baseline: nothing served yet
        clock.tick(30.0)
        serve_traffic(reg, total=10000, failed=5)
        ev.evaluate()
        budget = ev.error_budget("serve_availability")
        # 10000 total events accrued since the baseline sample, objective
        # 0.999: the budget is exactly 10 bad events, 5 were spent.
        assert budget.total_events == 10000.0
        assert budget.bad_events == 5.0
        assert budget.budget_events == pytest.approx(10.0)
        assert budget.consumed_fraction == pytest.approx(0.5)
        assert budget.remaining_fraction == pytest.approx(0.5)

    def test_overspent_budget_goes_negative(self):
        reg, clock, ev = make_availability()
        ev.evaluate()
        serve_traffic(reg, total=1000, failed=20)  # budget is 1, spent 20
        clock.tick(30.0)
        ev.evaluate()
        budget = ev.error_budget("serve_availability")
        assert budget.consumed_fraction == pytest.approx(20.0)
        assert budget.remaining_fraction == pytest.approx(-19.0)

    def test_baseline_excludes_traffic_before_first_evaluation(self):
        reg, clock, ev = make_availability()
        serve_traffic(reg, total=5000, failed=100)  # pre-history
        ev.evaluate()
        clock.tick(30.0)
        serve_traffic(reg, total=1000)
        ev.evaluate()
        budget = ev.error_budget("serve_availability")
        assert budget.total_events == 1000.0
        assert budget.bad_events == 0.0

    def test_unknown_slo_raises(self):
        _, _, ev = make_availability()
        with pytest.raises(KeyError, match="no SLO named"):
            ev.error_budget("nope")


class TestReadyMadeSpecs:
    def test_latency_slo_reads_router_histogram(self):
        reg = MetricsRegistry()
        clock = VirtualClock()
        ev = SloEvaluator(reg, clock=clock, config=CONFIG)
        ev.add(latency_slo(objective=0.9, threshold_s=0.25))
        h = reg.histogram(
            "router_request_latency_seconds", edges=(0.025, 0.25, 1.0)
        )
        ev.evaluate()
        clock.tick(30.0)
        for v in [0.01] * 2 + [2.0] * 8:  # 80% above the bound, burn = 8
            h.observe(v)
        ev.evaluate()
        assert ev.alert("serve_latency", "fast").burn_rate == pytest.approx(8.0)

    def test_freshness_slo_accumulates_per_tick_observations(self):
        reg = MetricsRegistry()
        clock = VirtualClock()
        ev = SloEvaluator(reg, clock=clock, config=CONFIG)
        ev.add(freshness_slo(objective=0.95, max_lag_s=10.0))
        reg.gauge("ingest_last_ingest_ts").set(0.0)
        ev.evaluate()
        for _ in range(4):  # lag grows: 30, 60, 90, 120 s — all stale
            clock.tick(30.0)
            ev.evaluate()
        budget = ev.error_budget("ingest_freshness")
        assert budget.total_events == 4.0
        assert budget.bad_events == 4.0
        assert ev.alert("ingest_freshness", "fast").firing

    def test_as_dict_is_dashboard_shaped(self):
        reg, clock, ev = make_availability()
        serve_traffic(reg, total=10)
        ev.evaluate()
        doc = ev.as_dict()
        assert {a["window"] for a in doc["alerts"]} == {"fast", "slow"}
        assert doc["error_budgets"][0]["slo"] == "serve_availability"


class TestSeriesLeavingTheRegistry:
    """Cumulative queries add per-series growth, so a dropped series (a
    closed router's) keeps what it counted and a re-registered one restarts."""

    def test_a_dropped_series_keeps_what_it_counted(self):
        registry, _, ev = make_availability()
        ev.evaluate(0.0)
        registry.counter("router_requests_total", router="r1").inc(100)
        registry.counter("router_errors_total", router="r1").inc(5)
        ev.evaluate(10.0)
        burn = ev.alert("serve_availability", "fast").burn_rate
        assert burn == pytest.approx(50.0)
        assert registry.drop(router="r1") == 2
        ev.evaluate(20.0)
        assert ev.alert("serve_availability", "fast").burn_rate == burn
        assert ev.alert("serve_availability", "fast").firing
        registry.counter("router_requests_total", router="r2").inc(900)
        ev.evaluate(30.0)
        budget = ev.error_budget("serve_availability")
        assert (budget.bad_events, budget.total_events) == (5.0, 1000.0)

    def test_a_series_that_falls_counts_as_reset(self):
        registry, _, ev = make_availability()
        ev.evaluate(0.0)
        registry.counter("router_requests_total", router="r1").inc(100)
        ev.evaluate(10.0)
        registry.drop(router="r1")
        registry.counter("router_requests_total", router="r1").inc(10)
        ev.evaluate(20.0)
        assert ev.error_budget("serve_availability").total_events == 110.0

    def test_a_dropped_histogram_keeps_its_observations(self):
        registry = MetricsRegistry()
        ev = SloEvaluator(registry, clock=VirtualClock(), config=CONFIG)
        ev.add(latency_slo(objective=0.99, threshold_s=0.25))
        ev.evaluate(0.0)
        histogram = registry.histogram("router_request_latency_seconds", router="r1")
        for seconds in (0.01, 0.02, 1.0):
            histogram.observe(seconds)
        ev.evaluate(10.0)
        registry.drop(router="r1")
        ev.evaluate(20.0)
        budget = ev.error_budget("serve_latency")
        assert (budget.bad_events, budget.total_events) == (1.0, 3.0)
        assert ev.alert("serve_latency", "fast").firing
