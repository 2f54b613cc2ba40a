"""ServeHandle: the serve construction surface.

Covers the builder contract (chaining, the one ordering rule, clear
failures), the router every handle serves through (built on first use
from the ``serve.router`` config), the ``CampaignRunner.serve``
integration, and the unified ``TileResponse`` surface — the same dataclass
from a bare ``QueryEngine`` and from the handle, with the same tiles.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import RouterConfig, ServeConfig
from repro.serve import (
    ProductCatalog,
    QueryEngine,
    RequestRouter,
    ServeHandle,
    ShardedCatalog,
    TileRequest,
    TileResponse,
)

from tests.test_ingest_service import SERVE, _batch, localized_granule


def handle_over_synthetic_fleet(tmp_path, serve=SERVE, seed_l3=True):
    from repro.l3.writer import write_level3

    granules = {
        gid: localized_granule(gid, slice(0, 16), slice(0, 16), seed=seed)
        for gid, seed in (("g000", 1), ("g001", 2))
    }
    mosaic = _batch(granules)
    mosaic.metadata["fingerprint"] = "fleetfp"  # path-independent catalog key
    catalog = ProductCatalog()
    _, json_path = write_level3(mosaic, tmp_path / "mosaic")
    catalog.register(json_path)
    for gid, product in granules.items():
        _, json_path = write_level3(product, tmp_path / gid)
        catalog.register(json_path)
    seed = (
        SimpleNamespace(mosaic=mosaic, granules=granules, fingerprint="seedfp")
        if seed_l3
        else None
    )
    return ServeHandle(catalog, serve=serve, products_dir=tmp_path, seed_l3=seed)


REQUEST = TileRequest(bbox=(0.0, 0.0, 4_000.0, 4_000.0), variable="freeboard_mean")


class TestBuilder:
    def test_handle_routes_on_the_serve_config_without_with_router(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        response = handle.query(REQUEST)
        assert isinstance(response, TileResponse)
        assert handle.router.config == SERVE.router
        assert handle.catalog.n_shards == SERVE.router.n_shards
        assert response.shard == handle.catalog.shard_of(response.product)

    def test_with_router_chains_and_owns_per_shard_engines(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        chained = handle.with_router(RouterConfig(n_shards=2))
        assert chained is handle  # builder steps return the handle
        assert isinstance(handle.router, RequestRouter)
        assert isinstance(handle.catalog, ShardedCatalog)
        assert handle.catalog.n_shards == 2
        response = handle.query(REQUEST)
        assert isinstance(response, TileResponse)
        assert response.shard is not None

    def test_with_ingest_chains_onto_a_router(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        chained = handle.with_router(RouterConfig(n_shards=2)).with_ingest()
        assert chained is handle
        assert handle.ingest_service.key == "live:seedfp"

    def test_router_must_come_before_the_engine_is_used(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        handle.query(REQUEST)  # builds the router and its shard engines
        with pytest.raises(RuntimeError, match="before the first query"):
            handle.with_router()

    def test_any_router_access_is_first_use(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        handle.catalog.extent()  # builds the router, as a query would
        with pytest.raises(RuntimeError, match="catalog/stats/health"):
            handle.with_router(RouterConfig(n_shards=2))

    def test_a_second_with_router_before_first_use_replaces_the_first(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        handle.with_router(RouterConfig(n_shards=2)).with_router(RouterConfig(n_shards=1))
        assert handle.catalog.n_shards == 1

    def test_double_attachment_raises(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path).with_router().with_ingest()
        with pytest.raises(RuntimeError, match="already attached"):
            handle.with_router()
        with pytest.raises(RuntimeError, match="already attached"):
            handle.with_ingest()

    def test_with_ingest_requires_campaign_wiring(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path, seed_l3=False)
        with pytest.raises(RuntimeError, match="CampaignRunner.serve"):
            handle.with_ingest()

    def test_accessors_fail_clearly_when_the_tier_is_absent(self, tmp_path):
        bare = handle_over_synthetic_fleet(tmp_path)
        with pytest.raises(RuntimeError, match="no ingest"):
            bare.ingest_service


class TestShardHealth:
    def test_loads_survive_a_shard_rebuild(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path).with_router(RouterConfig(n_shards=2))
        response = handle.query(REQUEST)
        router = handle.router
        index = response.shard
        assert router.health()["shards"][index]["loads"] == 1
        shard = router.rebuild_shard(index)
        assert shard.engine.stats.loads == 1
        assert router.health()["shards"][index]["loads"] == 1


class TestUnifiedTileResponse:
    def test_engine_and_router_return_the_same_dataclass(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        engine = QueryEngine(ProductCatalog(handle.catalog.entries), serve=SERVE)
        engine_response = engine.query(REQUEST)
        router_response = handle.query(REQUEST)
        assert type(engine_response) is TileResponse
        assert type(router_response) is TileResponse
        # Same tiles, same provenance fingerprints, whichever front served.
        assert engine_response.tiles.keys() == router_response.tiles.keys()
        assert engine_response.fingerprints == router_response.fingerprints

    def test_response_carries_provenance_and_compat_surface(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        response = handle.query(REQUEST)
        assert response.fingerprints.keys() == response.tiles.keys()
        assert all(response.fingerprints.values())
        assert not response.stale
        assert response.shard is not None


class TestBatchedDecode:
    def test_a_cold_batch_decodes_each_npz_product_once(self, tmp_path):
        # Four requests for four distinct zoom-0 tiles of the one npz mosaic:
        # the batch decodes the mosaic once and cuts every tile from it.
        handle = handle_over_synthetic_fleet(tmp_path)
        requests = [
            TileRequest(bbox=(x + 10.0, 10.0, x + 990.0, 990.0), variable="freeboard_mean")
            for x in (0.0, 1_000.0, 2_000.0, 3_000.0)
        ]
        responses = handle.query_batch(requests)
        (product,) = {response.product for response in responses}
        assert handle.catalog.get(product).storage == "npz"
        assert [(r.n_tiles, r.n_cached, r.n_computed) for r in responses] == [(1, 0, 1)] * 4
        shards = handle.router.shards
        assert sum(shard.engine.stats.loads for shard in shards) == 1
        assert sum(shard.engine.loader.n_loads for shard in shards) == 1
        # The same tiles as one bare-engine batch over the same catalog.
        engine = QueryEngine(ProductCatalog(handle.catalog.entries), serve=SERVE)
        for got, want in zip(responses, engine.query_batch(requests)):
            assert got.tiles.keys() == want.tiles.keys()
            for address, tile in want.tiles.items():
                np.testing.assert_array_equal(got.tiles[address], tile)
        assert engine.stats.loads == 1


class TestMainThreadServing:
    def test_query_batch_never_reprs_the_responses(self, tmp_path, monkeypatch):
        # An event loop run from the main thread formats its SIGINT handler,
        # bound to the finished loop task; a task holding the response list
        # would repr (numpy-format) every served tile.  Serving on the
        # calling thread must repr nothing.
        assert threading.current_thread() is threading.main_thread()
        handle = handle_over_synthetic_fleet(tmp_path).with_router(RouterConfig(n_shards=2))
        reprs = []
        original = TileResponse.__repr__

        def counting_repr(self):
            reprs.append(self)
            return original(self)

        monkeypatch.setattr(TileResponse, "__repr__", counting_repr)
        responses = handle.query_batch([REQUEST, REQUEST])
        assert len(responses) == 2
        assert all(isinstance(r, TileResponse) for r in responses)
        assert reprs == []


class TestCampaignServeRedesign:
    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
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
                serve=ServeConfig(tile_size=4, router=RouterConfig(n_shards=2)),
            ),
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=str(tmp_path_factory.mktemp("handle-cache")),
        )
        return CampaignRunner(config)

    def test_serve_returns_a_handle(self, runner, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the builder path must not warn
            handle = runner.serve(str(tmp_path / "products"))
        assert isinstance(handle, ServeHandle)
        assert len(handle.catalog) == 3  # mosaic + two granules
        response = handle.query(
            TileRequest(bbox=handle.catalog.extent(), variable="freeboard_mean")
        )
        assert response.n_tiles > 0
