"""The service tier: global resolution, quarantine, construction, clocks.

The router serves on the calling thread, so every test here is plain
synchronous code over synthetic catalog entries or small on-disk products.
"""

from collections import Counter

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import Level3ProductError, write_level3
from repro.obs.core import Obs
from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.query import ProductLoader, TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog, shard_index

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


ENTRY = make_entry(0, (0.0, 0.0, 4800.0, 3200.0))


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
            config=RouterConfig(n_shards=n_shards, quarantine_errors=2),
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


class TestRouterConstruction:
    def test_flat_catalog_is_partitioned_per_config(self):
        catalog = ProductCatalog([ENTRY])
        router = RequestRouter(
            catalog, serve=SERVE, config=RouterConfig(n_shards=3)
        )
        assert isinstance(router.catalog, ShardedCatalog)
        assert router.catalog.n_shards == 3 and len(router.shards) == 3

    def test_physical_partition_overrides_config(self):
        sharded = ShardedCatalog(5, [ENTRY])
        router = RequestRouter(sharded, serve=SERVE, config=RouterConfig(n_shards=2))
        assert router.config.n_shards == 5 and len(router.shards) == 5

    def test_unknown_variable_is_a_lookup_error(self):
        router = RequestRouter(
            ShardedCatalog(1, [ENTRY]), serve=SERVE, config=RouterConfig(n_shards=1)
        )
        bad = TileRequest(bbox=(0.0, 0.0, 100.0, 100.0), variable="n_segments", zoom=0)
        with pytest.raises(LookupError, match="servable"):
            router.serve([bad])
        assert router.stats.errors == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=0),
            dict(n_shards=-1),
            dict(quarantine_errors=0),
            dict(quarantine_errors=-1),
        ],
    )
    def test_router_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)

    def test_one_router_registers_a_pinned_set_of_series(self):
        """The series a 4-shard router holds on a fresh registry, by name.

        Every one but ``trace_spans_dropped_total`` carries the router's
        label, so :meth:`RequestRouter.close` releases them all.
        """
        obs = Obs()
        RequestRouter(ProductCatalog(), config=RouterConfig(n_shards=4), obs=obs)
        names = Counter(metric.name for metric in obs.registry.collect())
        per_shard = (
            "serve_batch_seconds",
            "serve_batch_seconds_total",
            "serve_batches_total",
            "serve_loads_total",
            "serve_requests_total",
            "serve_tile_hits_total",
            "serve_tile_misses_total",
        )
        assert names == {
            "router_requests_total": 1,
            "router_executions_total": 1,
            "router_errors_total": 1,
            "router_request_latency_seconds": 1,
            **{name: 4 for name in per_shard},
            "trace_spans_dropped_total": 1,
        }
        assert sum(names.values()) == 33

    def test_router_config_is_fingerprintable(self):
        from repro.pipeline.fingerprint import canonical

        assert canonical(RouterConfig()) == canonical(RouterConfig())
        assert canonical(RouterConfig(n_shards=8)) != canonical(RouterConfig())


def write_mosaic(path) -> ProductCatalog:
    """A one-mosaic catalog over ENTRY's 48 x 32 grid, written to ``path``."""
    rng = np.random.default_rng(5)
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=48, ny=32)
    n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan),
        },
        metadata={"kind": "mosaic", "granule_ids": ["m"], "fingerprint": "fp-m"},
    )
    _, json_path = write_level3(product, path / "mosaic")
    catalog = ProductCatalog()
    catalog.register(json_path)
    return catalog


class TestRequestOutcome:
    def test_a_failed_execution_is_not_reported_as_served(self):
        obs = Obs(clock=VirtualClock())
        router = RequestRouter(
            ShardedCatalog(1, [ENTRY]),
            serve=SERVE,
            config=RouterConfig(n_shards=1),
            loader_factory=lambda index: FailingLoader(SERVE),
            obs=obs,
        )
        with pytest.raises(Level3ProductError):
            router.serve([TileRequest(bbox=(0.0, 0.0, 800.0, 800.0))])
        (span,) = obs.tracer.spans("router.request")
        assert span.attributes["shard"] == 0
        assert span.attributes["outcome"] == "failed"
        assert span.attributes["error"] == "Level3ProductError"
        assert router.stats.errors == 1 and router.stats.executions == 0


class TestRouterClose:
    REQUEST = TileRequest(bbox=(100.0, 100.0, 1500.0, 1200.0))

    def test_build_query_close_cycles_keep_the_registry_size(self, tmp_path):
        catalog = write_mosaic(tmp_path)
        obs = Obs()
        before = len(obs.registry)
        sizes = []
        for _ in range(4):
            router = RequestRouter(catalog, serve=SERVE, config=RouterConfig(n_shards=4), obs=obs)
            assert router.serve([self.REQUEST])[0].n_tiles > 0
            router.close()
            sizes.append(len(obs.registry))
        assert sizes == [before] * 4

    def test_a_closed_router_still_reads_its_final_counts(self, tmp_path):
        router = RequestRouter(
            write_mosaic(tmp_path), serve=SERVE, config=RouterConfig(n_shards=2), obs=Obs()
        )
        router.serve([self.REQUEST, self.REQUEST])
        router.close()
        assert (router.stats.requests, router.stats.executions) == (2, 2)
        assert sum(shard.engine.stats.loads for shard in router.shards) == 1

    def test_handle_close_releases_the_router_it_built(self, tmp_path):
        from repro.serve.handle import ServeHandle

        catalog = write_mosaic(tmp_path)
        obs = Obs()
        before = len(obs.registry)
        handle = ServeHandle(catalog, serve=SERVE, obs=obs)
        handle.close()  # no router built yet: nothing to release, none built
        assert handle._router is None and len(obs.registry) == before
        with ServeHandle(catalog, serve=SERVE, obs=obs) as handle:
            assert handle.query(self.REQUEST).n_tiles > 0
            assert len(obs.registry) > before
        assert len(obs.registry) == before

    def test_a_closed_router_refuses_to_serve_or_rebuild(self, tmp_path):
        obs = Obs()
        router = RequestRouter(
            write_mosaic(tmp_path), serve=SERVE, config=RouterConfig(n_shards=2), obs=obs
        )
        router.serve([self.REQUEST])
        router.close()
        size = len(obs.registry)
        with pytest.raises(RuntimeError, match="closed"):
            router.query(self.REQUEST)
        with pytest.raises(RuntimeError, match="closed"):
            router.serve([self.REQUEST])
        with pytest.raises(RuntimeError, match="closed"):
            router.rebuild_shard(0)
        # Nothing was counted and nothing was registered again.
        assert (router.stats.requests, router.stats.executions) == (1, 1)
        assert len(obs.registry) == size
        router.close()  # idempotent
        assert router.health()["requests"] == 1

    def test_a_closed_handle_serves_nothing(self, tmp_path):
        from repro.serve.handle import ServeHandle

        catalog = write_mosaic(tmp_path)
        with ServeHandle(catalog, serve=SERVE, obs=Obs()) as handle:
            handle.query(self.REQUEST)
        with pytest.raises(RuntimeError, match="closed"):
            handle.query(self.REQUEST)
        assert handle.stats.requests == 1
        unused = ServeHandle(catalog, serve=SERVE, obs=Obs())
        unused.close()
        with pytest.raises(RuntimeError, match="closed"):
            unused.query(self.REQUEST)
        assert unused._router is None

    def test_slos_keep_a_closed_routers_counts(self, tmp_path):
        """Closing a handle drops its series, but no burn rate or budget falls."""
        from repro.config import SloConfig
        from repro.obs.slo import SloEvaluator, availability_slo, latency_slo
        from repro.serve.handle import ServeHandle

        catalog = write_mosaic(tmp_path)
        obs = Obs()
        slo = SloEvaluator(
            obs.registry,
            clock=VirtualClock(),
            config=SloConfig(fast_window_s=60.0, slow_window_s=600.0),
        )
        slo.add(availability_slo(objective=0.999))
        slo.add(latency_slo(threshold_s=1e-9))  # every served request is slow
        outside = TileRequest(bbox=(1e7, 1e7, 1e7 + 100.0, 1e7 + 100.0))

        def burns():
            return [alert.burn_rate for alert in slo.alerts()]

        def ledgers():
            return [(b.bad_events, b.total_events) for b in slo.error_budgets()]

        slo.evaluate(now=0.0)  # baseline: nothing served yet
        with ServeHandle(catalog, serve=SERVE, obs=obs) as handle:
            for _ in range(3):
                handle.query(self.REQUEST)
            with pytest.raises(LookupError):
                handle.query(outside)
            slo.evaluate(now=10.0)
            open_burns, open_ledgers = burns(), ledgers()
        assert open_ledgers == [(1.0, 4.0), (3.0, 3.0)]
        assert slo.alert("serve_availability", "fast").firing
        slo.evaluate(now=20.0)  # the router's series are gone
        assert "router_requests_total" not in obs.registry.as_dict()
        assert burns() == open_burns and ledgers() == open_ledgers
        assert slo.alert("serve_availability", "fast").firing
        with ServeHandle(catalog, serve=SERVE, obs=obs) as handle:
            handle.query(self.REQUEST)
            handle.query(self.REQUEST)
            slo.evaluate(now=30.0)
        slo.evaluate(now=40.0)
        assert ledgers() == [(1.0, 6.0), (5.0, 5.0)]
        assert slo.alert("serve_availability", "fast").firing


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
