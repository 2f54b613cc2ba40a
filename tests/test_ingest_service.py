"""Live ingest: dirty-tile-only rebuilds, targeted invalidation, SWR serving.

Two tiers of coverage:

* synthetic (fast): a ServeHandle over hand-built granules, asserting the
  sharp guarantees — only tiles overlapping the new granule's footprint are
  rebuilt, only their cache entries are invalidated, responses inside the
  rebuild window carry ``stale=True``, and the live pyramid stays
  byte-identical to a from-scratch build;
* end-to-end (one small campaign): ``runner.serve(...).with_router()
  .with_ingest()`` ingests a granule the original fleet never saw, with
  ``verify_merge=True`` cross-checking bit-identity against the batch
  mosaic, and the router serves the updated tiles without a restart.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import IngestConfig, RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.serve import ServeHandle, TileRequest, build_pyramid
from repro.serve.catalog import ProductCatalog
from repro.serve.pyramid import tiles_for_cells

from tests.test_l3_merge import synthetic_granule

GRID = GridDefinition.from_extent(
    x_min_m=0.0, x_max_m=4_000.0, y_min_m=0.0, y_max_m=4_000.0, cell_size_m=250.0
)
SERVE = ServeConfig(tile_size=4)
FULL_BBOX = (0.0, 0.0, 4_000.0, 4_000.0)


def localized_granule(granule_id: str, rows: slice, cols: slice, seed: int = 0) -> Level3Grid:
    """A granule observing only the given block of base-grid cells."""
    rng = np.random.default_rng(seed)
    granule = synthetic_granule(granule_id, rng, grid=GRID, coverage=1.0)
    mask = np.zeros(GRID.shape, dtype=bool)
    mask[rows, cols] = True
    for name, layer in granule.variables.items():
        if layer.dtype.kind == "i":
            layer[~mask] = 0
        else:
            layer[~mask] = np.nan
    return granule


def seeded_handle(tmp_path, rows=slice(0, 16), cols=slice(0, 16), **ingest_kwargs):
    """A bare-engine handle over two synthetic granules, ingest attached."""
    granules = {
        gid: localized_granule(gid, rows, cols, seed=seed)
        for gid, seed in (("g000", 1), ("g001", 2))
    }
    seed_l3 = SimpleNamespace(mosaic=_batch(granules), granules=granules, fingerprint="seedfp")
    handle = ServeHandle(
        ProductCatalog(), serve=SERVE, products_dir=tmp_path, seed_l3=seed_l3
    )
    return handle.with_ingest(
        config=IngestConfig(verify_merge=True), **ingest_kwargs
    )


def _batch(granules: dict) -> Level3Grid:
    from repro.l3.processor import Level3Processor

    return Level3Processor(GRID).mosaic(list(granules.values()))


class TestDirtyTileRebuild:
    def test_only_overlapping_tiles_are_rebuilt(self, tmp_path):
        """The instrumented-builder guarantee: rebuilt == dirty footprint."""
        handle = seeded_handle(tmp_path)
        service = handle.ingest_service
        # New granule touches only the top-left 2x2 cell block.
        report = service.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))

        assert report.granule_id == "g002"
        assert report.n_dirty_cells == 4
        dirty = np.array([0, 1, GRID.shape[1], GRID.shape[1] + 1])
        expected = [
            (zoom, row, col)
            for zoom in range(service.builder.pyramid.n_levels)
            for row, col in tiles_for_cells(dirty, GRID.shape, zoom, SERVE.tile_size)
        ]
        assert list(report.rebuilt_tiles) == expected
        # One tile per level here — and the untouched zoom-0 tiles stay put.
        n_zoom0 = sum(1 for z, _, _ in report.rebuilt_tiles if z == 0)
        assert n_zoom0 == 1
        assert service.builder.revisions[(0, 0, 0)] == 1
        assert (0, 3, 3) not in service.builder.revisions

    def test_live_pyramid_matches_a_full_rebuild(self, tmp_path):
        handle = seeded_handle(tmp_path)
        service = handle.ingest_service
        service.ingest(localized_granule("g002", slice(3, 9), slice(5, 12), seed=3))
        service.ingest(localized_granule("g003", slice(10, 16), slice(0, 6), seed=4))

        snapshot = service.accumulator.snapshot()
        snapshot.metadata["fingerprint"] = service.key
        full = build_pyramid(snapshot, serve=SERVE)
        live = service.builder.pyramid
        assert live.n_levels == full.n_levels
        for level_live, level_full in zip(live.levels, full.levels):
            for name in level_full.variables:
                assert level_live.variables[name].tobytes() == level_full.variables[name].tobytes()
                assert level_live.weights[name].tobytes() == level_full.weights[name].tobytes()
            assert level_live.coverage.tobytes() == level_full.coverage.tobytes()

    def test_update_metadata_equals_a_full_build(self):
        from repro.l3.merge import MosaicAccumulator
        from repro.serve.live import IncrementalPyramidBuilder

        accumulator = MosaicAccumulator(GRID)
        accumulator.add(localized_granule("g000", slice(0, 16), slice(0, 16), seed=1))
        pyramid = build_pyramid(accumulator.snapshot(), serve=SERVE)
        builder = IncrementalPyramidBuilder(pyramid, serve=SERVE)
        dirty = accumulator.add(localized_granule("g001", slice(0, 2), slice(0, 2), seed=2))
        snapshot = accumulator.snapshot()
        builder.update(snapshot, dirty)
        full = build_pyramid(snapshot, serve=SERVE)
        assert builder.pyramid.metadata == full.metadata

    def test_verify_merge_crosschecks_against_batch(self, tmp_path):
        """verify_merge recomputes the batch mosaic each ingest — and passes."""
        handle = seeded_handle(tmp_path)
        report = handle.ingest(localized_granule("g002", slice(2, 7), slice(2, 7), seed=9))
        assert report.n_granules == 3  # no RuntimeError: bytes matched


class TestTargetedInvalidation:
    def test_untouched_tiles_stay_cached_across_an_ingest(self, tmp_path):
        handle = seeded_handle(tmp_path)
        request = TileRequest(bbox=FULL_BBOX, variable="freeboard_mean", zoom=0)
        first = handle.query(request)
        assert not first.from_cache
        warm = handle.query(request)
        assert warm.from_cache

        report = handle.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))
        rebuilt_zoom0 = [t for t in report.rebuilt_tiles if t[0] == 0]
        assert report.n_invalidated > 0

        after = handle.query(request)
        # Exactly the invalidated tiles recompute; every other tile is warm.
        assert after.n_computed == len(rebuilt_zoom0)
        assert after.n_cached == after.n_tiles - len(rebuilt_zoom0)

    def test_rebuilt_tiles_advance_their_fingerprint_revision(self, tmp_path):
        handle = seeded_handle(tmp_path)
        request = TileRequest(bbox=FULL_BBOX, variable="freeboard_mean", zoom=0)
        before = handle.query(request).fingerprints
        assert all(fp.endswith("#r0") for fp in before.values())

        handle.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))
        after = handle.query(request).fingerprints
        assert after[(0, 0)] == before[(0, 0)].replace("#r0", "#r1")
        unchanged = [(r, c) for (r, c) in after if (r, c) != (0, 0)]
        assert unchanged
        assert all(after[rc] == before[rc] for rc in unchanged)


class TestStaleWhileRevalidate:
    def test_responses_in_the_rebuild_window_are_flagged_stale(self, tmp_path):
        observed = []

        def on_rebuild(service):
            response = service.handle.query(
                TileRequest(bbox=FULL_BBOX, variable="freeboard_mean", zoom=0)
            )
            observed.append(response.stale)

        handle = seeded_handle(tmp_path, on_rebuild=on_rebuild)
        before = handle.query(TileRequest(bbox=FULL_BBOX, variable="freeboard_mean", zoom=0))
        assert not before.stale

        handle.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))
        assert observed == [True]  # served mid-rebuild, old revision, flagged

        after = handle.query(TileRequest(bbox=FULL_BBOX, variable="freeboard_mean", zoom=0))
        assert not after.stale


class TestPublication:
    def test_live_mosaic_replaces_the_batch_entry_under_a_stable_key(self, tmp_path):
        handle = seeded_handle(tmp_path)
        service = handle.ingest_service
        mosaics = [e for e in handle.catalog.entries if e.kind == "mosaic"]
        assert [e.key for e in mosaics] == ["live:seedfp"]

        handle.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))
        mosaics = [e for e in handle.catalog.entries if e.kind == "mosaic"]
        assert [e.key for e in mosaics] == ["live:seedfp"]  # key stable across ingests
        assert set(mosaics[0].granule_ids) == {"g000", "g001", "g002"}
        assert service.n_ingested == 1

    def test_granule_products_are_appended_not_rescanned(self, tmp_path):
        handle = seeded_handle(tmp_path)
        handle.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))
        granule_entries = [e for e in handle.catalog.entries if e.kind == "granule"]
        assert {"g002"} == {gid for e in granule_entries for gid in e.granule_ids}
        assert (tmp_path / "g002.npz").is_file()
        assert (tmp_path / "g002.json").is_file()

    def test_write_granule_products_false_skips_the_granule_file(self, tmp_path):
        granules = {
            gid: localized_granule(gid, slice(0, 16), slice(0, 16), seed=seed)
            for gid, seed in (("g000", 1), ("g001", 2))
        }
        seed_l3 = SimpleNamespace(
            mosaic=_batch(granules), granules=granules, fingerprint="seedfp"
        )
        handle = ServeHandle(
            ProductCatalog(), serve=SERVE, products_dir=tmp_path, seed_l3=seed_l3
        ).with_ingest(config=IngestConfig(write_granule_products=False))
        report = handle.ingest(localized_granule("g002", slice(0, 2), slice(0, 2), seed=3))
        assert len(report.products) == 1
        assert not (tmp_path / "g002.npz").exists()

    def test_spec_ingest_without_gridder_raises(self, tmp_path):
        handle = seeded_handle(tmp_path)
        with pytest.raises(RuntimeError, match="gridder"):
            handle.ingest(object())


class TestEndToEndCampaign:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        from repro.campaign import CampaignConfig, CampaignRunner
        from repro.config import L3GridConfig
        from repro.surface.scene import SceneConfig
        from repro.workflow.end_to_end import ExperimentConfig

        base = ExperimentConfig(
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
            drift_m=(120.0, 180.0),
            l3=L3GridConfig(cell_size_m=1_000.0),
            serve=ServeConfig(tile_size=4, router=RouterConfig(n_shards=2)),
        )
        cache_dir = str(tmp_path_factory.mktemp("ingest-cache"))
        config = CampaignConfig(
            base=base, grid={"cloud_fraction": (0.1, 0.35)}, seed=33, cache_dir=cache_dir
        )
        # The "future" granule: same campaign, one more scenario point — its
        # spec is what arrives after the fleet is already serving.
        wider = CampaignConfig(
            base=base,
            grid={"cloud_fraction": (0.1, 0.35, 0.5)},
            seed=33,
            cache_dir=cache_dir,
        )
        runner = CampaignRunner(config)
        result = runner.run()
        return SimpleNamespace(
            runner=runner, result=result, new_spec=wider.expand()[2]
        )

    def test_router_serves_updated_tiles_without_restart(self, campaign, tmp_path):
        handle = (
            campaign.runner.serve(
                str(tmp_path / "products"), result=campaign.result
            )
            .with_router()
            .with_ingest(config=IngestConfig(verify_merge=True))
        )
        x0, y0, x1, y1 = handle.catalog.extent()
        request = TileRequest(bbox=(x0, y0, x1, y1), variable="freeboard_mean", zoom=0)

        before = handle.query(request)
        assert before.product == handle.ingest_service.key
        assert before.shard is not None  # served through the router

        report = handle.ingest(campaign.new_spec)
        assert report.granule_id == campaign.new_spec.granule_id
        assert report.n_granules == 3  # verify_merge passed: bytes == batch
        assert report.rebuilt_tiles

        after = handle.query(request)
        assert after.product == handle.ingest_service.key
        # Same serving stack, no restart — and the merged granule's footprint
        # changed the served payload.
        changed = any(
            not np.array_equal(after.tiles[rc], before.tiles[rc], equal_nan=True)
            for rc in after.tiles
        )
        assert changed
        assert {gid for e in handle.catalog.entries for gid in e.granule_ids} >= {
            report.granule_id
        }

    def test_second_ingest_of_same_granule_id_is_rejected(self, campaign, tmp_path):
        handle = campaign.runner.serve(
            str(tmp_path / "products2"), result=campaign.result
        ).with_ingest()
        handle.ingest(campaign.new_spec)
        with pytest.raises(ValueError, match="granule"):
            handle.ingest(campaign.new_spec)
