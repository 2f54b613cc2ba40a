"""Campaign-level Level-3 tests: ``to_l3``, stage-granular invalidation,
product provenance and the on-disk round trip.

The acceptance criterion under test: a warm-cache campaign re-run after a
grid-resolution-only config change re-executes **only** the
``grid_granule``/``mosaic_campaign`` stages, and a written L3 product
reloads bit-identically.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig
from repro.l3 import read_level3, write_level3
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

BASE = ExperimentConfig(
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
)

GRID = {"cloud_fraction": (0.1, 0.35)}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("l3-cache"))


@pytest.fixture(scope="module")
def config(cache_dir):
    return CampaignConfig(base=BASE, grid=GRID, seed=33, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def first_run(config):
    runner = CampaignRunner(config)
    result = runner.run()
    return runner.to_l3(result)


class TestToL3:
    def test_products_cover_the_fleet(self, config, first_run):
        specs = config.expand()
        assert list(first_run.granules) == [spec.granule_id for spec in specs]
        assert first_run.mosaic.kind == "mosaic"
        assert first_run.mosaic.metadata["granule_ids"] == [
            spec.granule_id for spec in specs
        ]
        assert first_run.mosaic.variable("n_granules").max() >= 1
        assert 0.0 < first_run.mosaic.coverage_fraction() <= 1.0

    def test_first_run_misses_only_l3_stages(self, first_run):
        kinds = {key.rsplit("-", 1)[0] for key in first_run.stage_misses}
        assert kinds == {"grid_granule", "mosaic_campaign"}

    def test_products_carry_provenance(self, first_run):
        assert first_run.fingerprint
        for product in first_run.granules.values():
            assert product.metadata["fingerprint"]
            assert "kernel_backend" not in product.metadata
        assert first_run.mosaic.metadata["fingerprint"] == first_run.fingerprint

    def test_warm_rerun_is_pure_cache(self, config, first_run):
        runner = CampaignRunner(config)
        again = runner.to_l3(runner.run())
        assert again.stage_misses == ()
        kinds = {key.rsplit("-", 1)[0] for key in again.stage_hits}
        assert {"grid_granule", "mosaic_campaign"} <= kinds
        for gid, product in first_run.granules.items():
            for name, arr in product.variables.items():
                np.testing.assert_array_equal(arr, again.granules[gid].variables[name])
        np.testing.assert_array_equal(
            first_run.mosaic.variable("freeboard_mean"),
            again.mosaic.variable("freeboard_mean"),
        )

    def test_to_l3_without_cache_matches_cached_run(self, first_run):
        uncached = CampaignRunner(
            CampaignConfig(base=BASE, grid=GRID, seed=33, cache_dir=None)
        )
        result = uncached.to_l3()
        assert result.stage_hits == () and result.stage_misses == ()
        assert result.fingerprint == ""
        np.testing.assert_array_equal(
            result.mosaic.variable("freeboard_mean"),
            first_run.mosaic.variable("freeboard_mean"),
        )


class TestGridResolutionInvalidation:
    """The acceptance criterion: an l3-only change re-runs only the L3 stages."""

    def test_only_grid_and_mosaic_stages_rerun(self, config, first_run):
        changed = CampaignConfig(
            base=replace(BASE, l3=L3GridConfig(cell_size_m=500.0)),
            grid=GRID,
            seed=33,
            cache_dir=config.cache_dir,
        )
        runner = CampaignRunner(changed)
        result = runner.run()
        # The campaign itself is untouched: every stage of every granule is
        # served from the shared stage tier.
        assert result.stage_misses == ()

        l3 = runner.to_l3(result)
        missed = {key.rsplit("-", 1)[0] for key in l3.stage_misses}
        assert missed == {"grid_granule", "mosaic_campaign"}, l3.stage_misses
        # The finer grid really is finer, and the products differ.
        assert l3.mosaic.grid.shape == (12, 12)
        assert first_run.mosaic.grid.shape == (6, 6)
        # The coarse products are still cached: re-running the original
        # config grids nothing.
        original = CampaignRunner(config)
        warm = original.to_l3(original.run())
        assert warm.stage_misses == ()

    def test_l3_axis_rejected_as_scenario(self):
        with pytest.raises(ValueError, match="campaign-wide"):
            CampaignConfig(base=BASE, grid={"l3.cell_size_m": (500.0, 1000.0)})


class TestProductRoundTrip:
    def test_written_mosaic_reloads_bit_identically(self, first_run, tmp_path):
        write_level3(first_run.mosaic, tmp_path / "mosaic")
        reloaded = read_level3(tmp_path / "mosaic")
        assert reloaded.grid == first_run.mosaic.grid
        for name, arr in first_run.mosaic.variables.items():
            loaded = reloaded.variables[name]
            assert loaded.dtype == arr.dtype, name
            assert loaded.tobytes() == arr.tobytes(), name
        assert reloaded.metadata["fingerprint"] == first_run.fingerprint

    def test_written_granule_grid_reloads_bit_identically(self, first_run, tmp_path):
        gid, product = next(iter(first_run.granules.items()))
        write_level3(product, tmp_path / gid)
        reloaded = read_level3(tmp_path / gid)
        for name, arr in product.variables.items():
            assert reloaded.variables[name].tobytes() == arr.tobytes(), name
        assert reloaded.metadata["granule_id"] == gid


class TestServe:
    def test_serve_returns_an_engine_over_exactly_the_written_fleet(
        self, config, first_run, tmp_path
    ):
        import json

        from repro.serve import TileRequest

        products = tmp_path / "products"
        products.mkdir()
        # Pre-existing junk in the directory must never be catalogued: only
        # the products this serve() call writes belong to the campaign.
        (products / "foreign.json").write_text(json.dumps({"hello": 1}))
        (products / "stale.json").write_text(json.dumps({"format": "other/9"}))

        runner = CampaignRunner(config)
        engine = runner.serve(str(products), l3=first_run)
        assert len(engine.catalog) == first_run.n_granules + 1
        assert {entry.kind for entry in engine.catalog} == {"granule", "mosaic"}
        served_ids = {gid for e in engine.catalog for gid in e.granule_ids}
        assert served_ids == set(first_run.granules)

        # End to end: a region query resolves to the mosaic, and its repeat
        # is pure tile cache (no second decode of any product file).
        x0, y0, _, _ = engine.catalog.extent()
        request = TileRequest(bbox=(x0, y0, x0 + 2_000.0, y0 + 2_000.0), zoom=0)
        first = engine.query(request)
        assert engine.catalog.get(first.product).kind == "mosaic"
        loads = engine.loader.n_loads
        repeat = engine.query(request)
        assert repeat.from_cache
        assert engine.loader.n_loads == loads
