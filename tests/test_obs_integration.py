"""Cross-tier telemetry integration: the E2E trace, stats survival, spans.

The acceptance-critical scenario lives here: one request traced from
the router through the shard engine down to the tile loader, with
*exact* durations under the virtual clock, exportable as a Chrome trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.distributed.mapreduce import MapReduceEngine
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import Level3ProductError, write_level3
from repro.obs.core import Obs
from repro.obs.export import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import StageCache
from repro.pipeline.runner import GraphRunner
from repro.serve.catalog import ProductCatalog
from repro.serve.query import ProductLoader, QueryEngine, TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

SERVE = ServeConfig(tile_size=8, tile_cache_size=64)


def write_product(path, fingerprint="fp-m", nx=40, ny=24, seed=0):
    rng = np.random.default_rng(seed)
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=nx, ny=ny)
    n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
    layers = {
        "n_segments": n_seg,
        "freeboard_mean": np.where(n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan),
    }
    write_level3(
        Level3Grid(
            grid=grid,
            variables=layers,
            metadata={"kind": "mosaic", "fingerprint": fingerprint, "granule_ids": ["g000"]},
        ),
        path,
        format="npz",
    )


class TickingLoader(ProductLoader):
    """A loader whose decode costs an exact amount of *virtual* time."""

    def __init__(self, serve, clock, decode_s):
        super().__init__(serve)
        self.clock = clock
        self.decode_s = decode_s

    def decode(self, entry):
        self.clock.tick(self.decode_s)
        return super().decode(entry)


def ancestors(span, by_id):
    chain = []
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        chain.append(span)
    return chain


REQUEST = TileRequest(bbox=(0.0, 0.0, 1500.0, 1500.0), variable="freeboard_mean")


class TestEndToEndTrace:
    @pytest.fixture()
    def stack(self, tmp_path):
        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        clock = VirtualClock()
        obs = Obs(clock=clock)
        router = RequestRouter(
            ShardedCatalog.from_catalog(catalog, 2),
            serve=SERVE,
            config=RouterConfig(n_shards=2),
            loader_factory=lambda index: TickingLoader(SERVE, clock, 0.004),
            clock=clock,
            obs=obs,
        )
        return clock, obs, router

    def test_request_traces_router_to_engine_to_loader(self, stack):
        clock, obs, router = stack
        response = router.serve([REQUEST])[0]
        assert response.n_computed > 0

        spans = obs.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        (root,) = obs.tracer.spans("router.request")
        (fetch,) = obs.tracer.spans("loader.fetch")

        # One trace, rooted at the router: the engine serves onto the
        # request's span and decodes inline, so the loader's fetch is its
        # only child.  Nothing else is opened, and no map-reduce job runs.
        assert len(spans) == 2
        assert obs.tracer.spans("engine.query_batch") == ()
        assert obs.tracer.spans("mapreduce.run") == ()
        assert obs.registry.total("mapreduce_jobs_total") == 0
        assert root.parent_id is None
        assert {s.trace_id for s in (root, fetch)} == {root.trace_id}
        assert fetch.parent_id == root.span_id
        assert ancestors(fetch, by_id) == [root]

        # Exact virtual-clock durations: the only time that passes is the
        # loader's 4 ms decode tick.
        assert fetch.duration == 0.004
        assert root.duration == 0.004

        # The request span carries the routing outcome and the engine's
        # cache accounting.
        assert root.attributes["outcome"] == "served"
        assert root.attributes["shard"] == response.shard
        assert root.attributes["n_computed"] == response.n_computed
        assert root.attributes["n_cached"] == response.n_cached == 0
        assert fetch.attributes["product"] == response.product
        assert fetch.attributes["n_tiles"] == response.n_computed
        assert fetch.attributes["windowed"] is False

    def test_cached_repeat_skips_the_loader_span(self, stack):
        clock, obs, router = stack
        router.serve([REQUEST])
        obs.tracer.clear()
        response = router.serve([REQUEST])[0]
        assert response.from_cache
        assert obs.tracer.spans("loader.fetch") == ()
        (root,) = obs.tracer.spans()  # the request span is the only one
        assert root.name == "router.request"
        assert root.duration == 0.0  # no decode, no virtual time
        assert root.attributes["n_computed"] == 0
        assert root.attributes["n_cached"] == response.n_tiles > 0

    def test_trace_exports_to_chrome_format(self, stack):
        clock, obs, router = stack
        router.serve([REQUEST])
        (root,) = obs.tracer.spans("router.request")
        doc = chrome_trace(obs.tracer.spans())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert names == {"router.request", "loader.fetch"}
        by_name = {e["name"]: e for e in events}
        assert by_name["router.request"]["dur"] == pytest.approx(4000.0)
        assert by_name["loader.fetch"]["dur"] == pytest.approx(4000.0)
        # Both render on the same trace track.
        assert len({by_name[n]["tid"] for n in names}) == 1
        assert by_name["loader.fetch"]["args"]["parent_id"] == root.span_id

    def test_direct_engine_batch_keeps_its_own_span(self, tmp_path):
        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        obs = Obs(clock=VirtualClock())
        engine = QueryEngine(catalog, serve=SERVE, obs=obs)
        responses = engine.query_batch([REQUEST, REQUEST])
        (batch,) = obs.tracer.spans("engine.query_batch")
        (fetch,) = obs.tracer.spans("loader.fetch")
        assert len(obs.tracer.spans()) == 2
        assert batch.parent_id is None
        assert fetch.parent_id == batch.span_id
        assert batch.attributes["n_requests"] == 2
        assert batch.attributes["n_computed"] == sum(r.n_computed for r in responses)
        assert batch.attributes["n_cached"] == 0


class TestServePathBudget:
    """The per-request telemetry budget, checked without timing anything."""

    REQUESTS = [
        REQUEST,
        TileRequest(bbox=(800.0, 0.0, 3200.0, 1600.0), variable="freeboard_mean"),
        TileRequest(bbox=(0.0, 0.0, 4000.0, 2400.0), variable="freeboard_mean", zoom=1),
    ]

    @staticmethod
    def router(tmp_path, obs):
        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        return RequestRouter(
            ShardedCatalog.from_catalog(catalog, 2),
            serve=SERVE,
            config=RouterConfig(n_shards=2),
            clock=obs.clock,
            obs=obs,
        )

    def test_warm_request_opens_exactly_one_span(self, tmp_path):
        obs = Obs(clock=VirtualClock())
        router = self.router(tmp_path, obs)
        router.serve(self.REQUESTS)
        for request in self.REQUESTS:
            obs.tracer.clear()
            (response,) = router.serve([request])
            assert response.from_cache
            (span,) = obs.tracer.spans()
            assert span.name == "router.request"

    def test_no_metric_lookup_after_warm_up(self, tmp_path, monkeypatch):
        obs = Obs(clock=VirtualClock())
        router = self.router(tmp_path, obs)
        router.serve(self.REQUESTS)
        lookups = []
        original = MetricsRegistry._get_or_create

        def counting(registry, cls, name, labels, **kwargs):
            lookups.append(name)
            return original(registry, cls, name, labels, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "_get_or_create", counting)
        router.serve(self.REQUESTS)
        # A decode after warm-up (its map-reduce job included) binds nothing
        # new either: every series handle was bound at construction.
        router.invalidate_tiles(
            [key for shard in router.shards for key in list(shard.engine.tile_cache._data)]
        )
        cold = router.serve(self.REQUESTS)
        assert sum(r.n_computed for r in cold) > 0
        assert lookups == []

    def test_tiles_are_identical_with_telemetry_on_and_off(self, tmp_path):
        served = []
        for index, obs in enumerate((Obs(clock=VirtualClock()), Obs.disabled())):
            router = self.router(tmp_path / str(index), obs)
            cold = router.serve(self.REQUESTS)
            warm = router.serve(self.REQUESTS)
            served.append(
                [
                    (
                        r.product,
                        r.zoom,
                        r.n_cached,
                        r.n_computed,
                        r.fingerprints,
                        {key: tile.tobytes() for key, tile in r.tiles.items()},
                    )
                    for r in cold + warm
                ]
            )
        assert served[0] == served[1]


class TestStatsSurvival:
    def test_engine_stats_survive_shard_rebuild(self, tmp_path):
        """The QueryStats-loss fix: a quarantine-style engine rebuild keeps
        the shard's cumulative counters (they live in the registry, keyed by
        {router, shard}, not on the engine instance)."""
        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        clock = VirtualClock()
        obs = Obs(clock=clock)
        router = RequestRouter(
            ShardedCatalog.from_catalog(catalog, 2),
            serve=SERVE,
            config=RouterConfig(n_shards=2),
            clock=clock,
            obs=obs,
        )
        router.serve([REQUEST, REQUEST])
        shard_id = router.catalog.shard_of("fp-m")
        shard = router.shards[shard_id]
        shard.errors = 3
        shard.quarantined = True
        before = shard.engine.stats
        assert before.requests == 2
        old_engine = shard.engine

        rebuilt = router.rebuild_shard(shard_id)
        assert rebuilt.engine is not old_engine
        assert not rebuilt.quarantined and rebuilt.errors == 0
        # The new engine re-attached to the same counter series.
        assert rebuilt.engine.stats == before

        router.serve([REQUEST])
        after = rebuilt.engine.stats
        assert after.requests == 3
        assert after.batches == before.batches + 1
        # Router-level counters kept counting across the rebuild too.
        assert router.stats.requests == 3

    def test_independent_engines_do_not_share_counters(self, tmp_path):
        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        obs = Obs()
        a = QueryEngine(catalog, serve=SERVE, obs=obs)
        b = QueryEngine(catalog, serve=SERVE, obs=obs)
        a.query(REQUEST)
        assert a.stats.requests == 1
        assert b.stats.requests == 0


class TestPipelineAndMapReduceSpans:
    def test_graph_runner_emits_stage_spans_and_counters(self, tmp_path):
        from repro.pipeline import ArtifactSpec, Stage, StageGraph

        graph = StageGraph(
            [Stage("make_x", lambda ctx, **inputs: {"x": 41}, (), ("x",))],
            [ArtifactSpec("x", int)],
        )
        obs = Obs()
        runner = GraphRunner(graph, cache=StageCache(str(tmp_path)), obs=obs)
        runner.run(None, targets=("x",))
        (span,) = obs.tracer.spans("pipeline.stage")
        assert span.attributes["stage"] == "make_x"
        assert obs.registry.value(
            "pipeline_stage_runs_total", stage="make_x", cache="miss"
        ) == 1
        # Warm run: cache hit, no new compute span.
        GraphRunner(graph, cache=StageCache(str(tmp_path)), obs=obs).run(
            None, targets=("x",)
        )
        assert len(obs.tracer.spans("pipeline.stage")) == 1
        assert obs.registry.value(
            "pipeline_stage_runs_total", stage="make_x", cache="hit"
        ) == 1

    def test_mapreduce_thread_tasks_merge_into_driver_trace(self):
        obs = Obs()
        engine = MapReduceEngine(n_partitions=3, executor="thread", max_workers=3, obs=obs)
        try:
            with obs.span("driver") as driver:
                result = engine.run(
                    lambda: list(range(30)),
                    lambda part: [v * 2 for v in part],
                    lambda parts: sorted(v for part in parts for v in part),
                )
        finally:
            engine.close()
        assert result.value == [v * 2 for v in range(30)]
        tasks = obs.tracer.spans("mapreduce.task")
        assert len(tasks) == 3
        assert {s.attributes["executor"] for s in tasks} == {"thread"}
        # Worker-measured spans merge under the driver's open span.
        (map_span,) = obs.tracer.spans("mapreduce.map")
        assert map_span.trace_id == driver.trace_id
        assert all(s.trace_id == driver.trace_id for s in tasks)
        assert obs.registry.value("mapreduce_jobs_total", executor="thread") == 1
        assert obs.registry.value("mapreduce_pool_spawns_total", executor="thread") == 1

    @pytest.mark.parametrize(
        ("executor", "n_partitions"), [("serial", 3), ("thread", 1), ("process", 1)]
    )
    def test_inline_job_records_one_span_with_phase_timings(
        self, executor, n_partitions
    ):
        obs = Obs(clock=VirtualClock())
        engine = MapReduceEngine(
            n_partitions=n_partitions, executor=executor, max_workers=2, obs=obs
        )
        try:
            with obs.span("driver") as driver:
                result = engine.run(
                    lambda: list(range(30)),
                    lambda part: [v * 2 for v in part],
                    lambda parts: sorted(v for part in parts for v in part),
                )
                arrays = engine.map_arrays(
                    {"x": np.arange(12.0)},
                    lambda chunk: float(chunk["x"].sum()),
                    sum,
                )
        finally:
            engine.close()
        assert result.value == [v * 2 for v in range(30)]
        assert arrays.value == 66.0
        # Each inline job is exactly one span under the caller's: no phase
        # or task spans, and no worker pool.
        jobs = obs.tracer.spans("mapreduce.run")
        assert len(jobs) == 2
        assert {s.name for s in obs.tracer.spans()} == {"driver", "mapreduce.run"}
        for job, timed in zip(jobs, (result, arrays)):
            assert job.parent_id == driver.span_id
            assert job.attributes == {
                "n_partitions": n_partitions,
                "executor": executor,
                "load_s": timed.load_seconds,
                "map_s": timed.map_seconds,
                "reduce_s": timed.reduce_seconds,
            }
        assert obs.registry.value("mapreduce_jobs_total", executor=executor) == 2
        assert obs.registry.value("mapreduce_pool_spawns_total", executor=executor) == 0

    def test_disabled_obs_keeps_results_identical(self):
        enabled = MapReduceEngine(n_partitions=2, executor="serial", obs=Obs())
        disabled = MapReduceEngine(n_partitions=2, executor="serial", obs=Obs.disabled())

        def load():
            return list(range(10))

        def map_fn(part):
            return [v + 1 for v in part]

        def reduce_fn(parts):
            return [v for part in parts for v in part]

        assert (
            enabled.run(load, map_fn, reduce_fn).value
            == disabled.run(load, map_fn, reduce_fn).value
        )


class TestSloLifecycleAcceptance:
    """The acceptance scenario: a scripted storage outage fires the
    fast-window availability alert at an exact virtual tick; the dashboard
    carries the firing alert, the overspent budget and the quarantine event,
    whose trace id matches the router span of the request that failed; and
    rebuilding the shard once storage is back resolves the alert — no real
    sleeps.
    """

    def make_stack(self, tmp_path):
        from repro.config import SloConfig
        from repro.obs.export import HealthMonitor
        from repro.obs.slo import SloEvaluator, availability_slo

        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        clock = VirtualClock()
        obs = Obs(clock=clock)
        storage = {"down": False}

        class OutageLoader(ProductLoader):
            """Decodes from disk, except while the scripted outage lasts."""

            def decode(self, entry):
                if storage["down"]:
                    raise Level3ProductError(f"storage outage: cannot read {entry.key}")
                return super().decode(entry)

        router = RequestRouter(
            ShardedCatalog.from_catalog(catalog, 1),
            serve=SERVE,
            config=RouterConfig(n_shards=1, quarantine_errors=3),
            loader_factory=lambda index: OutageLoader(SERVE),
            clock=clock,
            obs=obs,
        )
        slo = SloEvaluator(
            obs.registry,
            clock=clock,
            config=SloConfig(fast_window_s=60.0, slow_window_s=600.0),
            log=obs.log,
        )
        slo.add(availability_slo(objective=0.999))
        monitor = HealthMonitor(tmp_path / "health.json", obs, slo=slo, router=router)
        return storage, clock, obs, router, slo, monitor

    def request(self, i):
        # One whole 800 m tile (tile_size 8 x cell 100 m) of the 5 x 3-tile
        # mosaic per index, so every request misses the tile cache.
        col, row = i % 5, i // 5
        return TileRequest(
            bbox=(col * 800.0, row * 800.0, col * 800.0 + 800.0, row * 800.0 + 800.0),
            variable="freeboard_mean",
            zoom=0,
        )

    def serve_each(self, router, indices) -> int:
        """Serve the requests one at a time; return how many failed."""
        failed = 0
        for i in indices:
            try:
                router.query(self.request(i))
            except (LookupError, Level3ProductError):
                failed += 1
        return failed

    def test_outage_fires_dashboard_correlates_recovery_resolves(self, tmp_path):
        import json

        storage, clock, obs, router, slo, monitor = self.make_stack(tmp_path)
        monitor.tick()  # baseline sample at t=0, published
        fast = slo.alert("serve_availability", "fast")
        assert fast.state == "ok"

        # -- the outage: 2 requests served, then storage fails ---------------
        # Three decode failures quarantine the only shard; the five requests
        # after that find no healthy product.  8 of 10 requests fail.
        assert self.serve_each(router, range(2)) == 0
        storage["down"] = True
        assert self.serve_each(router, range(2, 10)) == 8
        assert router.quarantined_shards == (0,)
        assert (router.stats.requests, router.stats.errors) == (10, 8)

        clock.tick(30.0)
        fired_tick = clock.now()
        doc = monitor.tick()

        # The fast-window alert fired at this exact virtual tick.
        assert fast.state == "firing"
        assert fast.fired_at == fired_tick
        assert fast.burn_rate == pytest.approx((8 / 10) / 0.001)

        # The published document carries the whole story.
        on_disk = json.loads((tmp_path / "health.json").read_text())
        assert on_disk == json.loads(json.dumps(doc))
        alert_row = next(
            a
            for a in doc["slo"]["alerts"]
            if a["slo"] == "serve_availability" and a["window"] == "fast"
        )
        assert alert_row["state"] == "firing"
        budget_row = doc["slo"]["error_budgets"][0]
        assert budget_row["remaining_fraction"] < 0  # overspent: 8 bad vs 0.01
        health = doc["serve"]["health"]
        assert (health["errors"], health["quarantined"], health["healthy_shards"]) == (8, [0], 0)

        # Correlation: the quarantine event carries the trace id of the
        # router.request span whose decode failure tripped it.
        (quarantined,) = [e for e in doc["events"] if e["event"] == "router.shard_quarantined"]
        failed_traces = [
            s.trace_id
            for s in obs.tracer.spans("router.request")
            if s.attributes.get("error") == "Level3ProductError"
        ]
        assert len(failed_traces) == 3
        assert quarantined["trace_id"] == failed_traces[-1]
        assert any(e["event"] == "slo.alert_firing" for e in doc["events"])

        # -- recovery: storage is back, the shard is rebuilt ------------------
        clock.tick(120.0)
        storage["down"] = False
        router.rebuild_shard(0)
        for _ in range(5):
            assert self.serve_each(router, range(8)) == 0
        assert router.stats.errors == 8  # no new errors during recovery
        resolved_tick = clock.now()
        doc = monitor.tick(now=resolved_tick)

        assert fast.state == "resolved"
        assert fast.resolved_at == resolved_tick
        alert_row = next(
            a
            for a in doc["slo"]["alerts"]
            if a["slo"] == "serve_availability" and a["window"] == "fast"
        )
        assert alert_row["state"] == "resolved"
        assert doc["serve"]["health"]["quarantined"] == []
        assert any(e["event"] == "router.shard_rebuilt" for e in doc["events"])
        assert any(e["event"] == "slo.alert_resolved" for e in doc["events"])
