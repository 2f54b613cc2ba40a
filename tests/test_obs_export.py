"""Exporters: Prometheus text, Chrome trace JSON, and the health dashboard."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.obs.core import Obs
from repro.obs.export import (
    DASHBOARD_SCHEMA_VERSION,
    build_health_dashboard,
    chrome_trace,
    dashboard_schema,
    prometheus_text,
    validate_dashboard,
    validate_json,
    write_chrome_trace,
    write_health_dashboard,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.catalog import CatalogEntry
from repro.serve.pyramid import build_pyramid
from repro.serve.query import ProductLoader, TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

SERVE = ServeConfig(tile_size=8, tile_cache_size=64)


def make_entry(i: int, bbox) -> CatalogEntry:
    x0, y0, x1, y1 = bbox
    return CatalogEntry(
        base_path=f"/products/p{i}",
        kind="mosaic",
        fingerprint=f"fp-{i}",
        granule_ids=(f"g{i:03d}",),
        variables=("freeboard_mean", "n_segments"),
        servable=("freeboard_mean",),
        x_min_m=float(x0),
        y_min_m=float(y0),
        x_max_m=float(x1),
        y_max_m=float(y1),
        cell_size_m=100.0,
        shape=(32, 48),
    )


class SyntheticLoader(ProductLoader):
    """Decodes any entry to a uniform in-memory product of its shape: no disk."""

    def decode(self, entry):
        ny, nx = entry.shape
        grid = GridDefinition(
            x_min_m=entry.x_min_m,
            y_min_m=entry.y_min_m,
            cell_size_m=entry.cell_size_m,
            nx=nx,
            ny=ny,
        )
        product = Level3Grid(
            grid=grid,
            variables={
                "n_segments": np.ones(entry.shape, dtype=np.int64),
                "freeboard_mean": np.full(entry.shape, 0.3),
            },
            metadata={"kind": "mosaic", "fingerprint": entry.fingerprint},
        )
        return build_pyramid(product, serve=self.serve)


def make_router(obs=None, clock=None):
    return RequestRouter(
        ShardedCatalog(2, [make_entry(0, (0.0, 0.0, 4800.0, 3200.0))]),
        serve=SERVE,
        config=RouterConfig(n_shards=2),
        loader_factory=lambda index: SyntheticLoader(SERVE),
        clock=clock if clock is not None else VirtualClock(),
        obs=obs,
    )


REQUEST = TileRequest(bbox=(0.0, 0.0, 2400.0, 1600.0), variable="freeboard_mean")


class TestPrometheusText:
    def test_counters_and_gauges_render_with_types(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", shard="0").inc(3)
        reg.gauge("depth").set(2)
        text = prometheus_text(reg)
        assert "# TYPE depth gauge" in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{shard="0"} 3' in text
        assert "depth 2" in text

    def test_type_line_appears_once_per_name(self):
        reg = MetricsRegistry()
        reg.counter("x", shard="0").inc()
        reg.counter("x", shard="1").inc()
        text = prometheus_text(reg)
        assert text.count("# TYPE x counter") == 1

    def test_histogram_cumulative_buckets_and_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = prometheus_text(reg)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5.55" in text
        assert "lat_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_non_finite_values_render_as_the_format_spells_them(self):
        reg = MetricsRegistry()
        reg.gauge("up").set(float("inf"))
        reg.gauge("down").set(float("-inf"))
        reg.gauge("unknown").set(float("nan"))
        h = reg.histogram("lat", edges=(0.1, 1.0))
        h.observe(float("nan"))
        text = prometheus_text(reg)
        assert "up +Inf" in text
        assert "down -Inf" in text
        assert "unknown NaN" in text
        assert "lat_sum NaN" in text
        assert "lat_count 1" in text


class TestChromeTrace:
    def test_spans_become_complete_events(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", label="x"):
            clock.tick(0.002)
            with tracer.span("inner"):
                clock.tick(0.001)
        doc = chrome_trace(tracer.spans())
        meta, *events = doc["traceEvents"]
        assert meta["ph"] == "M"
        by_name = {e["name"]: e for e in events}
        assert by_name["inner"]["ph"] == "X"
        assert by_name["inner"]["dur"] == pytest.approx(1000.0)  # microseconds
        assert by_name["outer"]["dur"] == pytest.approx(3000.0)
        assert by_name["outer"]["args"]["label"] == "x"
        assert (
            by_name["inner"]["args"]["parent_id"]
            == by_name["outer"]["args"]["span_id"]
        )
        # Same trace -> same tid track.
        assert by_name["inner"]["tid"] == by_name["outer"]["tid"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        tracer = Tracer(clock=VirtualClock())
        with tracer.span("op"):
            pass
        path = write_chrome_trace(tmp_path / "trace.json", tracer.spans())
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert any(e["name"] == "op" for e in loaded["traceEvents"])


class TestMiniValidator:
    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="expected type"):
            validate_json({"a": "s"}, {"type": "object", "properties": {"a": {"type": "number"}}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValueError):
            validate_json(True, {"type": "number"})

    def test_rejects_missing_required_and_extra(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }
        with pytest.raises(ValueError, match="missing required"):
            validate_json({}, schema)
        with pytest.raises(ValueError, match="unexpected property"):
            validate_json({"a": 1, "b": 2}, schema)

    def test_items_and_enum(self):
        schema = {"type": "array", "items": {"enum": [1, 2]}}
        validate_json([1, 2, 1], schema)
        with pytest.raises(ValueError, match="not in enum"):
            validate_json([3], schema)


class TestHealthDashboard:
    def test_minimal_document_validates(self):
        doc = build_health_dashboard(generated_at=123.0)
        validate_dashboard(doc)
        assert doc["schema_version"] == DASHBOARD_SCHEMA_VERSION
        assert doc["campaign"] is None
        assert doc["serve"] is None
        assert doc["ingest"] is None
        assert doc["metrics"] == {}

    def test_router_health_round_trips_unchanged(self):
        obs = Obs(clock=VirtualClock())
        router = make_router(obs=obs)
        router.serve([REQUEST])
        doc = build_health_dashboard(
            router=router, registry=obs.registry, generated_at=0.0
        )
        validate_dashboard(doc)
        # The contract: serve.health IS router.health(), verbatim.
        assert doc["serve"]["health"] == router.health()
        assert doc["serve"]["health"]["requests"] == 1
        # ... and it survives a JSON round trip intact.
        assert json.loads(json.dumps(doc))["serve"]["health"] == router.health()

    def test_registry_metrics_flatten_into_document(self):
        obs = Obs(clock=VirtualClock())
        router = make_router(obs=obs)
        router.serve([REQUEST, REQUEST])
        doc = build_health_dashboard(registry=obs.registry, generated_at=0.0)
        validate_dashboard(doc)
        label = router._labels["router"]
        assert doc["metrics"][f'router_requests_total{{router="{label}"}}'] == 2

    def test_write_is_atomic_and_validated(self, tmp_path):
        path = tmp_path / "dash" / "health.json"
        doc = build_health_dashboard(generated_at=9.0)
        written = write_health_dashboard(path, doc)
        assert written == path
        assert not path.with_name(path.name + ".tmp").exists()
        assert json.loads(path.read_text())["generated_at"] == 9.0

    def test_write_rejects_invalid_document(self, tmp_path):
        doc = build_health_dashboard(generated_at=1.0)
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            write_health_dashboard(tmp_path / "bad.json", doc)
        assert not (tmp_path / "bad.json").exists()

    def test_committed_schema_is_draft_like(self):
        schema = dashboard_schema()
        assert schema["type"] == "object"
        assert "schema_version" in schema["required"]


class TestDashboardV2:
    def make_obs(self):
        return Obs(clock=VirtualClock())

    def test_slo_section_carries_alerts_and_budgets(self):
        from repro.obs.slo import SloEvaluator, availability_slo

        obs = self.make_obs()
        obs.counter("router_requests_total").inc(100)
        obs.counter("router_errors_total").inc(50)
        ev = SloEvaluator(obs.registry, clock=obs.clock)
        ev.add(availability_slo())
        ev.evaluate()
        obs.clock.tick(30.0)
        obs.counter("router_requests_total").inc(100)
        obs.counter("router_errors_total").inc(50)
        ev.evaluate()
        doc = build_health_dashboard(registry=obs.registry, slo=ev, generated_at=0.0)
        validate_dashboard(doc)
        states = {a["window"]: a["state"] for a in doc["slo"]["alerts"]}
        assert states["fast"] == "firing"
        assert doc["slo"]["error_budgets"][0]["slo"] == "serve_availability"

    def test_events_section_is_the_log_tail_sanitized(self):
        obs = self.make_obs()
        obs.log.error("router.shard_quarantined", shard=3, extra=object())
        doc = build_health_dashboard(log=obs.log, generated_at=0.0)
        validate_dashboard(doc)
        (event,) = doc["events"]
        assert event["event"] == "router.shard_quarantined"
        assert event["shard"] == 3
        assert isinstance(event["extra"], str)  # non-scalar clamped to repr

    def test_trace_section_reports_ring_drops(self):
        from repro.config import ObsConfig

        obs = Obs(ObsConfig(trace_buffer_size=2), clock=VirtualClock())
        for i in range(5):
            with obs.span(f"s{i}"):
                pass
        doc = build_health_dashboard(tracer=obs.tracer, generated_at=0.0)
        validate_dashboard(doc)
        assert doc["trace"] == {"spans_dropped": 3, "buffer_size": 2}

    def test_dropped_spans_feed_the_counter_series(self):
        from repro.config import ObsConfig

        obs = Obs(ObsConfig(trace_buffer_size=2), clock=VirtualClock())
        for i in range(5):
            with obs.span(f"s{i}"):
                pass
        assert obs.registry.total("trace_spans_dropped_total") == 3


class TestHealthMonitor:
    def make_monitor(self, tmp_path, with_slo=True):
        from repro.obs.export import HealthMonitor
        from repro.obs.slo import SloEvaluator, availability_slo

        obs = Obs(clock=VirtualClock())
        slo = None
        if with_slo:
            slo = SloEvaluator(obs.registry, clock=obs.clock)
            slo.add(availability_slo())
        monitor = HealthMonitor(tmp_path / "health.json", obs, slo=slo)
        return obs, slo, monitor

    def test_tick_evaluates_and_publishes_atomically(self, tmp_path):
        obs, slo, monitor = self.make_monitor(tmp_path)
        monitor.tick()  # baseline evaluation
        obs.counter("router_requests_total").inc(10)
        obs.clock.tick(5.0)
        doc = monitor.tick()
        assert monitor.n_ticks == 2
        on_disk = json.loads(monitor.path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        assert on_disk["generated_at"] == 5.0
        assert on_disk["slo"]["error_budgets"][0]["total_events"] == 10
        assert not monitor.path.with_name("health.json.tmp").exists()

    def test_zero_max_events_embeds_no_events(self, tmp_path):
        from repro.obs.export import HealthMonitor

        obs = Obs(clock=VirtualClock())
        obs.log.info("hello")
        doc = build_health_dashboard(log=obs.log, generated_at=0.0, max_events=0)
        assert doc["events"] == []
        monitor = HealthMonitor(tmp_path / "health.json", obs, max_events=0)
        assert monitor.tick()["events"] == []

    def test_tick_without_slo_still_publishes(self, tmp_path):
        obs, _, monitor = self.make_monitor(tmp_path, with_slo=False)
        obs.log.info("hello")
        doc = monitor.tick()
        assert doc["slo"] is None
        assert doc["events"][0]["event"] == "hello"
