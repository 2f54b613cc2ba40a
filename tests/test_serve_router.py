"""Deterministic concurrency tests for the async service tier.

No real sleeps anywhere: every test drives a real asyncio event loop
through a :class:`~repro.clock.VirtualClock` and an injected execute
hook with *virtual* service times, so thousands of concurrent requests are
reproducible bit-for-bit — single-flight coalescing, load shedding at the
admission watermark and quarantine all assert exact counts, not flaky
sleeps-and-hopes.
"""

import asyncio

import numpy as np
import pytest

from repro.clock import MonotonicClock, VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.evaluation import router_scaling_table
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import Level3ProductError, write_level3
from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.query import ProductLoader, TileRequest, TileResponse
from repro.serve.router import RequestRouter, RouterOverloadedError
from repro.serve.shard import ShardedCatalog, shard_index
from repro.serve.traffic import (
    OpenLoopResult,
    TrafficConfig,
    TrafficSimulator,
)

SERVE = ServeConfig(tile_size=8, tile_cache_size=128)


def make_entry(i: int, bbox, kind: str = "mosaic") -> CatalogEntry:
    x0, y0, x1, y1 = bbox
    return CatalogEntry(
        base_path=f"/products/p{i}",
        kind=kind,
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


class Harness:
    """A router over synthetic products with virtual-time execution.

    The execute hook replaces the shard engine: each call sleeps a
    configurable *virtual* service time and returns an empty response, while
    ``calls`` records every underlying execution — the ground truth that
    coalescing assertions compare against.
    """

    def __init__(
        self,
        entries,
        config: RouterConfig,
        service_s: float = 0.05,
    ) -> None:
        self.clock = VirtualClock()
        self.calls: list[TileRequest] = []
        self.service_s = service_s

        async def execute(shard, request: TileRequest) -> TileResponse:
            self.calls.append(request)
            await self.clock.sleep(self.service_s)
            return TileResponse(
                request=request,
                product="synthetic",
                zoom=request.zoom,
                tiles={},
                n_cached=0,
                n_computed=1,
                seconds=self.service_s,
            )

        self.router = RequestRouter(
            ShardedCatalog(config.n_shards, entries),
            serve=SERVE,
            config=config,
            clock=self.clock,
            execute=execute,
        )

    async def settle(self, tasks) -> list:
        """Drive virtual time until every task resolves; gather outcomes."""
        while True:
            for _ in range(5):  # let fresh tasks run up to their first await
                await asyncio.sleep(0)
            if all(task.done() for task in tasks):
                break
            if not await self.clock.advance_to_next():
                break  # nothing sleeps and nothing is done: a real deadlock
        return await asyncio.gather(*tasks, return_exceptions=True)


def run(coro):
    return asyncio.run(coro)


ENTRY = make_entry(0, (0.0, 0.0, 4800.0, 3200.0))
REQUEST = TileRequest(bbox=(0.0, 0.0, 2400.0, 1600.0), variable="freeboard_mean", zoom=0)


class TestVirtualClock:
    def test_sleepers_wake_in_deadline_order(self):
        async def scenario():
            clock = VirtualClock()
            order = []

            async def sleeper(name, dt):
                await clock.sleep(dt)
                order.append(name)

            tasks = [
                asyncio.ensure_future(sleeper("c", 0.3)),
                asyncio.ensure_future(sleeper("a", 0.1)),
                asyncio.ensure_future(sleeper("b", 0.2)),
            ]
            await asyncio.sleep(0)  # let the tasks park on the clock
            await clock.advance(0.15)
            assert order == ["a"]
            assert clock.now() == pytest.approx(0.15)
            await clock.advance(1.0)
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == ["a", "b", "c"]

    def test_advance_to_next_reports_exhaustion(self):
        async def scenario():
            clock = VirtualClock()
            task = asyncio.ensure_future(clock.sleep(2.0))
            await asyncio.sleep(0)
            assert clock.next_delay() == pytest.approx(2.0)
            assert await clock.advance_to_next() is True
            await task
            assert await clock.advance_to_next() is False

        run(scenario())

    def test_monotonic_clock_advances_for_real(self):
        async def scenario():
            clock = MonotonicClock()
            before = clock.now()
            await clock.advance(0.0)
            assert clock.now() >= before

        run(scenario())


class TestSingleFlight:
    def test_1000_identical_queries_build_once(self):
        # The acceptance scenario: 1000 concurrent identical queries must
        # cost exactly one underlying tile build, whatever the watermark —
        # coalesced joiners add no work, so they never count against it.
        harness = Harness(
            [ENTRY], RouterConfig(n_shards=2, max_queue_depth=4), service_s=0.05
        )

        async def scenario():
            tasks = [
                asyncio.ensure_future(harness.router.query(REQUEST))
                for _ in range(1000)
            ]
            return await harness.settle(tasks)

        results = run(scenario())
        assert len(harness.calls) == 1
        stats = harness.router.stats
        assert stats.requests == 1000
        assert stats.executions == 1
        assert stats.shed == 0
        assert stats.coalesced == 999
        assert stats.coalescing_ratio == pytest.approx(999 / 1000)
        # One execution, one tile payload: every joiner's TileResponse is its
        # own object (distinct shard/coalesced/queue_wait_s fields) but shares
        # the executed response's tiles dict -- the single-flight guarantee.
        shared = results[0].tiles
        for routed in results:
            assert not isinstance(routed, BaseException)
            assert routed.tiles is shared
        assert sum(1 for r in results if r.coalesced) == 999

    def test_coalesced_latency_splits_wait_from_service(self):
        harness = Harness(
            [ENTRY], RouterConfig(n_shards=1, max_queue_depth=4), service_s=0.05
        )

        async def scenario():
            first = asyncio.ensure_future(harness.router.query(REQUEST))
            for _ in range(5):
                await asyncio.sleep(0)
            await harness.clock.advance(0.02)  # the joiner arrives mid-flight
            second = asyncio.ensure_future(harness.router.query(REQUEST))
            return await harness.settle([first, second])

        first, second = run(scenario())
        assert first.latency_s == pytest.approx(0.05)
        assert first.queue_wait_s == pytest.approx(0.0)
        # The joiner only waited the flight's remaining 0.03s; its reported
        # queue wait is its own elapsed time minus the shared service time,
        # clamped at zero — never negative.
        assert second.coalesced and second.queue_wait_s == 0.0
        assert second.service_s == pytest.approx(0.05)

    def test_distinct_requests_do_not_coalesce(self):
        harness = Harness(
            [ENTRY], RouterConfig(n_shards=1, max_queue_depth=8), service_s=0.05
        )
        other = TileRequest(
            bbox=(2400.0, 1600.0, 4800.0, 3200.0), variable="freeboard_mean", zoom=0
        )

        async def scenario():
            tasks = [
                asyncio.ensure_future(harness.router.query(REQUEST)),
                asyncio.ensure_future(harness.router.query(other)),
            ]
            return await harness.settle(tasks)

        run(scenario())
        assert len(harness.calls) == 2
        assert harness.router.stats.coalesced == 0

    def test_execution_failure_propagates_to_every_joiner(self):
        harness = Harness([ENTRY], RouterConfig(n_shards=1, max_queue_depth=4))

        async def boom(shard, request):
            await harness.clock.sleep(0.01)
            raise RuntimeError("decode blew up")

        harness.router._execute = boom

        async def scenario():
            tasks = [
                asyncio.ensure_future(harness.router.query(REQUEST)) for _ in range(5)
            ]
            return await harness.settle(tasks)

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert harness.router.stats.coalesced == 4
        assert harness.router.stats.executions == 0


class TestAdmissionControl:
    def test_sheds_past_watermark_with_retry_after(self):
        config = RouterConfig(n_shards=1, max_queue_depth=2, retry_after_s=0.125)
        harness = Harness([ENTRY], config, service_s=1.0)
        distinct = [
            TileRequest(
                bbox=(col * 800.0, 0.0, col * 800.0 + 800.0, 800.0),
                variable="freeboard_mean",
                zoom=0,
            )
            for col in range(5)
        ]

        async def scenario():
            tasks = []
            for request in distinct:
                tasks.append(asyncio.ensure_future(harness.router.query(request)))
                for _ in range(5):
                    await asyncio.sleep(0)
            depth_at_peak = harness.router.depth
            results = await harness.settle(tasks)
            return depth_at_peak, results

        depth_at_peak, results = run(scenario())
        assert depth_at_peak == 2
        shed = [r for r in results if isinstance(r, RouterOverloadedError)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert len(shed) == 3 and len(served) == 2
        for error in shed:
            assert error.retry_after_s == 0.125
            assert error.max_queue_depth == 2
            assert "Retry-After" in str(error)
        assert harness.router.stats.shed == 3
        assert harness.router.stats.shed_rate == pytest.approx(3 / 5)

    def test_shedding_is_immediate(self):
        # Rejection spends zero (virtual) time: the whole point of load
        # shedding is that the client learns *now*, not after queueing.
        harness = Harness(
            [ENTRY], RouterConfig(n_shards=1, max_queue_depth=1), service_s=1.0
        )
        other = TileRequest(
            bbox=(2400.0, 1600.0, 4800.0, 3200.0), variable="freeboard_mean", zoom=0
        )

        async def scenario():
            first = asyncio.ensure_future(harness.router.query(REQUEST))
            for _ in range(5):
                await asyncio.sleep(0)
            before = harness.clock.now()
            with pytest.raises(RouterOverloadedError):
                await harness.router.query(other)
            assert harness.clock.now() == before
            await harness.settle([first])

        run(scenario())

    def test_capacity_recovers_after_completion(self):
        harness = Harness(
            [ENTRY], RouterConfig(n_shards=1, max_queue_depth=1), service_s=0.5
        )
        other = TileRequest(
            bbox=(2400.0, 1600.0, 4800.0, 3200.0), variable="freeboard_mean", zoom=0
        )

        async def scenario():
            first = asyncio.ensure_future(harness.router.query(REQUEST))
            for _ in range(5):
                await asyncio.sleep(0)
            with pytest.raises(RouterOverloadedError):
                await harness.router.query(other)
            await harness.settle([first])
            second = asyncio.ensure_future(harness.router.query(other))
            results = await harness.settle([second])
            assert not isinstance(results[0], BaseException)

        run(scenario())
        assert harness.router.stats.shed == 1
        assert harness.router.stats.executions == 2


class FailingLoader(ProductLoader):
    """A loader whose decodes always raise — a shard serving corrupt files."""

    def load(self, entry):
        raise Level3ProductError(f"corrupt product {entry.key}")


class TestQuarantine:
    def build(self, tmp_path):
        """Two overlapping products on different shards; B (later) wins.

        A is real on disk; B's shard gets a loader that always raises
        ``Level3ProductError``, modelling a shard over corrupt storage.
        """
        rng = np.random.default_rng(3)
        grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=48, ny=32)
        n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
        product = Level3Grid(
            grid=grid,
            variables={
                "n_segments": n_seg,
                "freeboard_mean": np.where(
                    n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan
                ),
            },
            metadata={"kind": "mosaic", "granule_ids": ["a"], "fingerprint": "fp-a"},
        )
        _, json_path = write_level3(product, tmp_path / "mosaic-a")
        catalog = ProductCatalog()
        entry_a = catalog.register(json_path)
        # B: same variables over a bbox chosen to land on a different shard.
        n_shards = 2
        shard_a = shard_index(entry_a.bbox, n_shards)
        for dx in (1.0, 2.0, 3.0, 5.0, 8.0):
            bbox_b = (-dx, -dx, 4800.0 - dx, 3200.0 - dx)
            if shard_index(bbox_b, n_shards) != shard_a:
                break
        else:  # pragma: no cover - hash would have to collide 5 times
            pytest.fail("could not place B on another shard")
        entry_b = make_entry(1, bbox_b)
        catalog.add(entry_b)
        sharded = ShardedCatalog.from_catalog(catalog, n_shards)
        bad_shard = sharded.shard_of(entry_b.key)

        def loader_factory(index: int) -> ProductLoader:
            return FailingLoader(SERVE) if index == bad_shard else ProductLoader(SERVE)

        router = RequestRouter(
            sharded,
            serve=SERVE,
            config=RouterConfig(n_shards=n_shards, max_queue_depth=8, quarantine_errors=2),
            loader_factory=loader_factory,
        )
        return router, entry_a, entry_b, bad_shard

    def test_failing_shard_is_quarantined_and_routed_around(self, tmp_path):
        router, entry_a, entry_b, bad_shard = self.build(tmp_path)
        request = TileRequest(
            bbox=(100.0, 100.0, 1500.0, 1200.0), variable="freeboard_mean", zoom=0
        )
        # B is the latest registration, so it wins resolution — and fails.
        assert router.resolve(request) == (bad_shard, entry_b)
        for _ in range(2):
            with pytest.raises(Level3ProductError):
                router.serve([request])
        # Two strikes: B's shard is quarantined, resolution reroutes to A,
        # and the same request now serves real tiles from the other shard.
        assert router.quarantined_shards == (bad_shard,)
        shard_id, entry = router.resolve(request)
        assert entry.key == entry_a.key and shard_id != bad_shard
        routed = router.serve([request])[0]
        assert routed.product == entry_a.key
        assert routed.n_tiles > 0

        health = router.health()
        assert health["quarantined"] == [bad_shard]
        assert health["healthy_shards"] == 1
        bad_row = health["shards"][bad_shard]
        assert bad_row["quarantined"] is True and bad_row["errors"] == 2
        assert health["errors"] == 2

    def test_nothing_left_mentions_quarantine(self, tmp_path):
        router, entry_a, entry_b, bad_shard = self.build(tmp_path)
        # A strip strictly left of A's footprint: only B covers it, so once
        # B's shard is quarantined nothing healthy remains for this region.
        request = TileRequest(
            bbox=(entry_b.x_min_m, entry_b.y_min_m, 0.0, 0.0),
            variable="freeboard_mean",
            zoom=0,
        )
        for _ in range(2):
            with pytest.raises(Level3ProductError):
                router.serve([request])
        with pytest.raises(LookupError, match="quarantined"):
            router.resolve(request)


class TestOpenLoop:
    def entries(self):
        # A spread-out archive: many distinct footprints keep the flight
        # keys distinct, so admission (not coalescing) is what is tested.
        return [
            make_entry(
                i, (i * 6000.0, 0.0, i * 6000.0 + 4800.0, 3200.0)
            )
            for i in range(24)
        ]

    def simulator(self, router, n_requests):
        return TrafficSimulator(
            catalog=router.catalog,
            config=TrafficConfig(
                n_requests=n_requests,
                n_regions=40,
                zipf_exponent=0.4,
                region_fraction=0.02,
                zoom_levels=(0,),
                seed=13,
            ),
        )

    def test_two_times_saturation_sheds_with_bounded_p99(self):
        # Saturation: max_queue_depth distinct executions of service time c
        # sustain depth/c req/s.  Offering 2x that must shed a substantial
        # fraction — while every ADMITTED request still finishes in exactly
        # one service time (virtual clock: the p99 bound is exact, and
        # queueing collapse would show up as queue_wait > 0).
        service_s = 0.01
        config = RouterConfig(n_shards=4, max_queue_depth=8)
        harness = Harness(self.entries(), config, service_s=service_s)
        saturation_rps = config.max_queue_depth / service_s
        result = self.simulator(harness.router, 4000).run_open_loop(
            harness.router, arrival_rate_rps=2.0 * saturation_rps
        )
        assert result.n_offered == 4000
        assert result.stats.requests == 4000
        assert result.n_errors == 0
        assert result.shed_rate > 0.25
        assert result.n_completed == 4000 - result.stats.shed
        # Bounded tail for admitted traffic: exactly the service time.
        assert result.latency_ms(99.0) == pytest.approx(service_s * 1e3)
        assert result.queue_wait_ms(99.0) == pytest.approx(0.0)
        row = result.summary_row()
        assert row["Shed Rate"] == round(result.shed_rate, 4)
        assert row["P99 Latency (ms)"] == pytest.approx(10.0)

    def test_below_saturation_nothing_sheds(self):
        service_s = 0.01
        config = RouterConfig(n_shards=4, max_queue_depth=8)
        harness = Harness(self.entries(), config, service_s=service_s)
        saturation_rps = config.max_queue_depth / service_s
        result = self.simulator(harness.router, 1500).run_open_loop(
            harness.router, arrival_rate_rps=0.25 * saturation_rps
        )
        assert result.stats.shed == 0
        assert result.n_completed == 1500
        assert result.throughput_rps == pytest.approx(
            0.25 * saturation_rps, rel=0.15
        )

    def test_open_loop_result_is_never_repred(self, monkeypatch):
        # The synchronous wrapper must not leave the result on the loop task,
        # which asyncio.run formats on the main thread.
        harness = Harness(self.entries(), RouterConfig(n_shards=4, max_queue_depth=8))
        reprs = []
        original = OpenLoopResult.__repr__

        def counting_repr(self):
            reprs.append(self)
            return original(self)

        monkeypatch.setattr(OpenLoopResult, "__repr__", counting_repr)
        result = self.simulator(harness.router, 100).run_open_loop(
            harness.router, arrival_rate_rps=100.0
        )
        assert isinstance(result, OpenLoopResult)
        assert reprs == []

    def test_open_loop_is_deterministic_on_the_virtual_clock(self):
        def once():
            harness = Harness(
                self.entries(), RouterConfig(n_shards=4, max_queue_depth=8)
            )
            result = self.simulator(harness.router, 800).run_open_loop(
                harness.router, arrival_rate_rps=300.0
            )
            return (
                result.seconds,
                result.stats.shed,
                result.stats.coalesced,
                tuple(np.round(result.latencies_s, 9)),
            )

        assert once() == once()

    def test_scaling_rows_follow_the_cost_model(self):
        harness = Harness(
            self.entries(), RouterConfig(n_shards=4, max_queue_depth=16)
        )
        result = self.simulator(harness.router, 600).run_open_loop(
            harness.router, arrival_rate_rps=200.0
        )
        rows = router_scaling_table(result, shard_counts=(1, 2, 4))
        assert [row["Shards"] for row in rows] == [1, 2, 4]
        assert rows[0]["Speedup"] == 1.0
        speedups = [row["Speedup"] for row in rows]
        assert speedups == sorted(speedups)
        assert rows[-1]["Saturation Throughput (req/s)"] >= rows[0][
            "Saturation Throughput (req/s)"
        ]
        with pytest.raises(ValueError, match="shard_counts"):
            router_scaling_table(result, shard_counts=())

    def test_evaluation_tables_wrap_open_loop_results(self):
        from repro.evaluation import (
            format_table,
            router_latency_table,
            router_scaling_table,
        )

        harness = Harness(
            self.entries(), RouterConfig(n_shards=2, max_queue_depth=8)
        )
        result = self.simulator(harness.router, 200).run_open_loop(
            harness.router, arrival_rate_rps=100.0
        )
        latency = router_latency_table(result)
        scaling = router_scaling_table(result, shard_counts=(1, 2))
        assert len(latency) == 1 and len(scaling) == 2
        text = format_table(latency, title="router")
        assert "Shed Rate" in text and "Coalescing Ratio" in text

    def test_rejects_bad_rates(self):
        harness = Harness(self.entries(), RouterConfig(n_shards=2, max_queue_depth=8))
        simulator = self.simulator(harness.router, 10)
        with pytest.raises(ValueError, match="arrival_rate"):
            simulator.run_open_loop(harness.router, arrival_rate_rps=0.0)
        with pytest.raises(ValueError, match="chunk_size"):
            simulator.run_open_loop(harness.router, 10.0, chunk_size=0)


class TestRouterConstruction:
    def test_flat_catalog_is_partitioned_per_config(self):
        catalog = ProductCatalog([ENTRY])
        router = RequestRouter(
            catalog, serve=SERVE, config=RouterConfig(n_shards=3, max_queue_depth=8)
        )
        assert isinstance(router.catalog, ShardedCatalog)
        assert router.catalog.n_shards == 3 and len(router.shards) == 3

    def test_physical_partition_overrides_config(self):
        sharded = ShardedCatalog(5, [ENTRY])
        router = RequestRouter(
            sharded, serve=SERVE, config=RouterConfig(n_shards=2, max_queue_depth=8)
        )
        assert router.config.n_shards == 5 and len(router.shards) == 5

    def test_unknown_variable_is_a_lookup_error(self):
        harness = Harness([ENTRY], RouterConfig(n_shards=1, max_queue_depth=8))
        bad = TileRequest(bbox=(0.0, 0.0, 100.0, 100.0), variable="n_segments", zoom=0)
        with pytest.raises(LookupError, match="servable"):
            harness.router.serve([bad])
        assert harness.router.stats.errors == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=0),
            dict(max_queue_depth=0),
            dict(retry_after_s=-0.5),
            dict(quarantine_errors=0),
        ],
    )
    def test_router_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)

    def test_router_config_is_fingerprintable(self):
        from repro.pipeline.fingerprint import canonical

        assert canonical(RouterConfig()) == canonical(RouterConfig())
        assert canonical(RouterConfig(n_shards=8)) != canonical(RouterConfig())


class TestCampaignIntegration:
    def test_runner_serve_returns_router_fronted_engine(self, tmp_path):
        from repro.campaign import CampaignConfig, CampaignRunner
        from repro.config import L3GridConfig
        from repro.surface.scene import SceneConfig
        from repro.workflow.end_to_end import ExperimentConfig

        config = CampaignConfig(
            base=ExperimentConfig(
                scene=SceneConfig(
                    width_m=6_000.0,
                    height_m=6_000.0,
                    open_water_fraction=0.12,
                    thin_ice_fraction=0.18,
                    thick_ice_fraction=0.70,
                    n_leads=8,
                ),
                epochs=2,
                model_kind="mlp",
                l3=L3GridConfig(cell_size_m=1_000.0),
            ),
            grid={"cloud_fraction": (0.1, 0.3)},
        )
        runner = CampaignRunner(config)
        handle = runner.serve(str(tmp_path / "products")).with_router()
        router = handle.router
        assert isinstance(router, RequestRouter)
        assert router.catalog.n_shards == config.base.serve.router.n_shards
        x0, y0, x1, y1 = router.catalog.extent()
        request = TileRequest(
            bbox=(x0, y0, x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2), zoom=0
        )
        routed = handle.query_batch([request, request])
        assert routed[0].n_tiles > 0
        assert handle.health()["healthy_shards"] == router.catalog.n_shards
