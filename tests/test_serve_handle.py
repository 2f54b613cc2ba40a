"""ServeHandle: the redesigned serve construction surface.

Covers the builder contract (chaining, ordering rules, clear failures),
the ``CampaignRunner.serve`` integration including the deprecated
``router=`` boolean shim, and the unified ``TileResponse`` surface — the
same dataclass whichever front (bare engine or router) serves the query.
"""

import threading
from types import SimpleNamespace

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
    def test_bare_handle_serves_through_a_query_engine(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        assert isinstance(handle.engine, QueryEngine)
        assert not handle.has_router
        assert handle.front is handle.engine
        response = handle.query(REQUEST)
        assert isinstance(response, TileResponse)
        assert response.shard is None  # no router in the path

    def test_with_router_chains_and_owns_per_shard_engines(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path)
        chained = handle.with_router(RouterConfig(n_shards=2))
        assert chained is handle  # builder steps return the handle
        assert handle.has_router
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
        handle.query(REQUEST)  # forces the bare engine into existence
        with pytest.raises(RuntimeError, match="before the bare engine"):
            handle.with_router()

    def test_double_attachment_raises(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path).with_router()
        with pytest.raises(RuntimeError, match="already attached"):
            handle.with_router()
        handle.with_ingest()
        with pytest.raises(RuntimeError, match="already attached"):
            handle.with_ingest()

    def test_with_ingest_requires_campaign_wiring(self, tmp_path):
        handle = handle_over_synthetic_fleet(tmp_path, seed_l3=False)
        with pytest.raises(RuntimeError, match="CampaignRunner.serve"):
            handle.with_ingest()

    def test_accessors_fail_clearly_when_the_tier_is_absent(self, tmp_path):
        bare = handle_over_synthetic_fleet(tmp_path)
        with pytest.raises(RuntimeError, match="no router"):
            bare.router
        with pytest.raises(RuntimeError, match="no ingest"):
            bare.ingest_service
        routed = handle_over_synthetic_fleet(tmp_path / "b").with_router()
        with pytest.raises(RuntimeError, match="fronts a router"):
            routed.engine


class TestUnifiedTileResponse:
    def test_engine_and_router_return_the_same_dataclass(self, tmp_path):
        bare = handle_over_synthetic_fleet(tmp_path / "a")
        routed = handle_over_synthetic_fleet(tmp_path / "b").with_router()
        engine_response = bare.query(REQUEST)
        router_response = routed.query(REQUEST)
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
        assert response.service_s == response.seconds
        assert response.latency_s == response.queue_wait_s + response.seconds
        assert not response.stale
        assert not response.coalesced


class TestMainThreadServing:
    def test_query_batch_never_reprs_the_responses(self, tmp_path, monkeypatch):
        # On the main thread asyncio.run formats its SIGINT handler, which is
        # bound to the finished loop task; a task holding the response list
        # would repr (numpy-format) every served tile.
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
