"""The traffic simulator: Zipf mix, determinism, the scaling report."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import ServeConfig
from repro.distributed.cluster import ClusterCostModel
from repro.evaluation import serve_scaling_table
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.serve.catalog import ProductCatalog
from repro.serve.query import ProductLoader, QueryEngine
from repro.serve.traffic import (
    TrafficConfig,
    TrafficSimulator,
)

SERVE = ServeConfig(tile_size=8, tile_cache_size=128)


@pytest.fixture()
def engine(tmp_path):
    rng = np.random.default_rng(0)
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=48, ny=32)
    n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan),
            "thickness_mean": np.where(n_seg > 0, rng.normal(2.4, 0.8, grid.shape), np.nan),
        },
        metadata={"kind": "mosaic", "granule_ids": ["g000"], "fingerprint": "fp-m"},
    )
    write_level3(product, tmp_path / "mosaic")
    catalog = ProductCatalog()
    catalog.scan(tmp_path)
    return QueryEngine(catalog, loader=ProductLoader(SERVE), serve=SERVE)


class ConstantServiceEngine:
    """An engine stub whose every batch takes exactly ``service_s``.

    Duck-types the slice of :class:`QueryEngine` the simulator uses
    (``catalog``, ``stats``, ``query_batch``), so the queue-wait/service
    split can be asserted arithmetically instead of against wall time.
    """

    def __init__(self, catalog, service_s: float) -> None:
        from repro.serve.query import QueryStats, TileResponse

        self.catalog = catalog
        self.service_s = service_s
        self.stats = QueryStats()
        self._response_cls = TileResponse

    def query_batch(self, requests):
        self.stats.requests += len(requests)
        self.stats.batches += 1
        self.stats.seconds += self.service_s
        return [
            self._response_cls(
                request=request,
                product="stub",
                zoom=request.zoom,
                tiles={},
                n_cached=0,
                n_computed=1,
                seconds=self.service_s,
            )
            for request in requests
        ]


class TestLatencySplit:
    """Closed-loop queue wait must be separated from service time.

    Request k of batch b waited for batches ``0..b-1`` (queue) and then
    took its own batch's execution (service); reporting their sum alone
    would hide queueing collapse behind a flat number.
    """

    def test_split_on_a_constant_service_engine(self, engine):
        service_s = 0.25
        stub = ConstantServiceEngine(engine.catalog, service_s)
        config = TrafficConfig(n_requests=20, batch_size=5, n_regions=3, seed=21)
        result = TrafficSimulator(stub, config).run()

        batches = np.repeat(np.arange(4), 5)  # 20 requests in 4 batches
        np.testing.assert_allclose(result.queue_wait_s, batches * service_s)
        np.testing.assert_allclose(result.service_s, np.full(20, service_s))
        np.testing.assert_allclose(result.latencies_s, (batches + 1) * service_s)
        assert result.seconds == pytest.approx(4 * service_s)

        assert result.queue_wait_ms() == pytest.approx(1.5 * service_s * 1e3)
        assert result.service_ms() == pytest.approx(service_s * 1e3)
        assert result.latency_ms() == pytest.approx(2.5 * service_s * 1e3)
        # P95 of queue wait: the last batch waited 3 service times.
        assert result.queue_wait_ms(95.0) == pytest.approx(3 * service_s * 1e3)

        row = result.summary_row()
        assert row["Mean Queue Wait (ms)"] == pytest.approx(375.0)
        assert row["Mean Service (ms)"] == pytest.approx(250.0)
        assert row["Mean Latency (ms)"] == pytest.approx(625.0)

    def test_split_sums_to_latency_on_the_real_engine(self, engine):
        config = TrafficConfig(n_requests=30, batch_size=6, n_regions=3, seed=22)
        result = TrafficSimulator(engine, config).run()
        assert result.queue_wait_s.shape == (30,)
        assert result.service_s.shape == (30,)
        np.testing.assert_allclose(
            result.latencies_s, result.queue_wait_s + result.service_s
        )
        # Queue wait is monotone in batch order and zero for the first batch.
        assert result.queue_wait_s[0] == 0.0
        assert np.all(np.diff(result.queue_wait_s) >= 0)


class TestConstruction:
    def test_requires_an_engine(self):
        with pytest.raises(TypeError):
            TrafficSimulator()

    def test_stream_keeps_the_closed_loop_draw_order(self):
        """Regions, then variables, then zooms: one draw of the whole stream each."""
        extent = SimpleNamespace(extent=lambda: (0.0, 0.0, 10_000.0, 8_000.0))
        config = TrafficConfig(
            n_requests=6,
            n_regions=4,
            variables=("freeboard_mean", "thickness_mean"),
            zoom_levels=(0, 1, 2),
            seed=7,
        )
        stream = TrafficSimulator(SimpleNamespace(catalog=extent), config)._stream()
        assert [(rank, request.variable, request.zoom) for rank, request in stream] == [
            (0, "thickness_mean", 1),
            (3, "freeboard_mean", 1),
            (0, "freeboard_mean", 2),
            (2, "freeboard_mean", 0),
            (2, "freeboard_mean", 2),
            (0, "freeboard_mean", 0),
        ]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_requests=0),
            dict(batch_size=0),
            dict(n_regions=0),
            dict(zipf_exponent=0.0),
            dict(region_fraction=0.0),
            dict(region_fraction=1.5),
            dict(variables=()),
            dict(variables=("a", "b"), variable_weights=(1.0,)),
            dict(variable_weights=(0.0,)),
            dict(zoom_levels=()),
            dict(zoom_levels=(-1,)),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrafficConfig(**kwargs)


class TestGeneration:
    def test_stream_is_deterministic(self, engine):
        config = TrafficConfig(n_requests=50, n_regions=5, seed=11)
        a = TrafficSimulator(engine, config).generate()
        b = TrafficSimulator(engine, config).generate()
        assert a == b

    def test_zipf_head_dominates(self, engine):
        config = TrafficConfig(
            n_requests=300, n_regions=8, zipf_exponent=1.4, seed=2
        )
        simulator = TrafficSimulator(engine, config)
        boxes = simulator.regions()
        counts = {box: 0 for box in boxes}
        for request in simulator.generate():
            counts[request.bbox] += 1
        ranked = [counts[box] for box in boxes]
        assert ranked[0] == max(ranked)
        assert ranked[0] > 3 * min(ranked)

    def test_requests_respect_the_mix(self, engine):
        config = TrafficConfig(
            n_requests=100,
            variables=("freeboard_mean", "thickness_mean"),
            variable_weights=(1.0, 0.0),
            zoom_levels=(2,),
            seed=4,
        )
        for request in TrafficSimulator(engine, config).generate():
            assert request.variable == "freeboard_mean"
            assert request.zoom == 2

    def test_regions_fit_catalog_extent(self, engine):
        simulator = TrafficSimulator(engine, TrafficConfig(n_regions=16, seed=5))
        x0, y0, x1, y1 = engine.catalog.extent()
        for bx0, by0, bx1, by1 in simulator.regions():
            assert bx0 >= x0 and by0 >= y0
            assert bx1 <= x1 + 1e-9 and by1 <= y1 + 1e-9


class TestRunAndReport:
    def test_run_measures_and_caches(self, engine):
        config = TrafficConfig(
            n_requests=60, batch_size=10, n_regions=4, zoom_levels=(0, 1), seed=6
        )
        result = TrafficSimulator(engine, config).run()
        assert result.n_requests == 60
        assert result.latencies_s.shape == (60,)
        assert result.seconds > 0
        assert result.throughput_rps > 0
        # The Zipf head must be hitting the tile cache.
        assert result.stats.hit_rate > 0.3
        # One mosaic: however heavy the traffic, few decodes.
        assert result.stats.loads <= 4
        assert sum(result.region_counts.values()) == 60
        row = result.summary_row()
        assert row["Requests"] == 60
        assert row["Product Loads"] == result.stats.loads

    def test_stats_are_a_per_run_snapshot(self, engine):
        from repro.serve.query import TileRequest

        # Traffic served before the run must not leak into the run's report,
        # and a later run must not mutate an earlier result retroactively.
        engine.query(TileRequest(bbox=(0.0, 0.0, 900.0, 900.0)))
        loads_before_run = engine.stats.loads
        simulator = TrafficSimulator(
            engine, TrafficConfig(n_requests=20, batch_size=5, n_regions=2, seed=12)
        )
        first = simulator.run()
        assert first.stats.requests == 20  # not 21
        frozen = (first.stats.tile_hits, first.stats.loads)
        second = simulator.run()
        assert (first.stats.tile_hits, first.stats.loads) == frozen
        assert second.stats.requests == 20
        assert first.stats.loads + loads_before_run <= engine.stats.loads

    def test_scaling_rows_follow_cost_model(self, engine):
        config = TrafficConfig(n_requests=30, batch_size=6, n_regions=3, seed=7)
        result = TrafficSimulator(engine, config).run()
        model = ClusterCostModel(map_overhead_s=0.0)
        rows = serve_scaling_table(result, cost_model=model, executor_counts=(1, 2, 4))
        assert [row["Executors"] for row in rows] == [1, 2, 4]
        assert rows[0]["Speedup"] == 1.0
        # With zero overhead and no serial fraction the speedup is superlinear
        # in slots only through the bandwidth term; it must be monotone.
        speedups = [row["Speedup"] for row in rows]
        assert speedups == sorted(speedups)
        assert rows[-1]["Throughput (req/s)"] >= rows[0]["Throughput (req/s)"]

    def test_scaling_report_runs_if_needed(self, engine):
        simulator = TrafficSimulator(
            engine, TrafficConfig(n_requests=10, batch_size=5, n_regions=2, seed=8)
        )
        rows = serve_scaling_table(simulator.run(), executor_counts=(1, 2))
        assert len(rows) == 2

    def test_empty_executor_counts_rejected(self, engine):
        simulator = TrafficSimulator(
            engine, TrafficConfig(n_requests=5, batch_size=5, n_regions=2, seed=9)
        )
        result = simulator.run()
        with pytest.raises(ValueError, match="executor_counts"):
            serve_scaling_table(result, executor_counts=())

    def test_evaluation_tables_wrap_results(self, engine):
        from repro.evaluation import format_table, serve_latency_table, serve_scaling_table

        result = TrafficSimulator(
            engine, TrafficConfig(n_requests=12, batch_size=6, n_regions=2, seed=10)
        ).run()
        latency = serve_latency_table(result)
        scaling = serve_scaling_table(result, executor_counts=(1, 2))
        assert len(latency) == 1 and len(scaling) == 2
        text = format_table(latency, title="serving")
        assert "Throughput" in text
