"""The query engine: LRU tile cache and per-product decode batching.

The acceptance-critical property lives here: a repeated region query is
served from the LRU tile cache **without re-reading the npz**, asserted via
the instrumented loader (`n_loads` / `loaded`).
"""

import numpy as np
import pytest

from repro.config import ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.serve.catalog import ProductCatalog
from repro.serve.query import ProductLoader, QueryEngine, TileRequest, _LRUCache

SERVE = ServeConfig(tile_size=8, tile_cache_size=64)


def write_product(path, kind="mosaic", fingerprint="fp-m", x_min=0.0, nx=40, ny=24,
                  cell=100.0, seed=0, variables=("freeboard_mean", "thickness_mean"),
                  format="npz"):
    rng = np.random.default_rng(seed)
    grid = GridDefinition(x_min_m=x_min, y_min_m=0.0, cell_size_m=cell, nx=nx, ny=ny)
    n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
    layers = {"n_segments": n_seg}
    for name in variables:
        layers[name] = np.where(n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan)
    metadata = {"kind": kind, "fingerprint": fingerprint}
    if kind == "mosaic":
        metadata["granule_ids"] = ["g000"]
    else:
        metadata["granule_id"] = "g000"
    write_level3(
        Level3Grid(grid=grid, variables=layers, metadata=metadata), path, format=format
    )


@pytest.fixture()
def engine(tmp_path):
    write_product(tmp_path / "mosaic")
    catalog = ProductCatalog()
    catalog.scan(tmp_path)
    return QueryEngine(catalog, loader=ProductLoader(SERVE), serve=SERVE)


class TestTileRequestValidation:
    def test_degenerate_bbox(self):
        with pytest.raises(ValueError, match="positive width"):
            TileRequest(bbox=(0, 0, 0, 10))

    def test_negative_zoom(self):
        with pytest.raises(ValueError, match="zoom"):
            TileRequest(bbox=(0, 0, 1, 1), zoom=-1)


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = _LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            _LRUCache(0)


class TestServing:
    def test_repeated_query_served_from_cache_without_reread(self, engine):
        request = TileRequest(bbox=(0.0, 0.0, 1500.0, 1500.0), zoom=0)
        first = engine.query(request)
        assert first.n_computed == first.n_tiles and first.n_cached == 0
        assert engine.loader.n_loads == 1
        assert engine.loader.loaded == ["fp-m"]

        repeat = engine.query(request)
        assert repeat.from_cache
        assert repeat.n_cached == repeat.n_tiles
        assert engine.loader.n_loads == 1, "repeat must not re-read the npz"
        for key in first.tiles:
            np.testing.assert_array_equal(first.tiles[key], repeat.tiles[key])

    def test_batch_decodes_each_product_once(self, tmp_path):
        write_product(tmp_path / "a", fingerprint="fp-a", x_min=0.0, seed=1)
        write_product(tmp_path / "b", fingerprint="fp-b", x_min=50_000.0, seed=2)
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        engine = QueryEngine(catalog, loader=ProductLoader(SERVE), serve=SERVE)
        requests = [
            TileRequest(bbox=(0.0, 0.0, 900.0, 900.0)),
            TileRequest(bbox=(1000.0, 1000.0, 1900.0, 1900.0)),
            TileRequest(bbox=(0.0, 0.0, 1900.0, 1900.0)),
            TileRequest(bbox=(50_000.0, 0.0, 50_900.0, 900.0)),
        ]
        responses = engine.query_batch(requests)
        # Three requests hit fp-a, one hits fp-b: exactly two decodes total.
        assert engine.loader.n_loads == 2
        assert sorted(engine.loader.loaded) == ["fp-a", "fp-b"]
        assert [r.product for r in responses] == ["fp-a", "fp-a", "fp-a", "fp-b"]

    def test_mosaic_preferred_over_granule(self, tmp_path):
        write_product(tmp_path / "granule", kind="granule", fingerprint="fp-g", seed=1)
        write_product(tmp_path / "mosaic", kind="mosaic", fingerprint="fp-m", seed=2)
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        engine = QueryEngine(catalog, serve=SERVE)
        assert engine.resolve(TileRequest(bbox=(0, 0, 1000, 1000))).kind == "mosaic"

    def test_unresolvable_request_raises(self, engine):
        with pytest.raises(LookupError, match="no catalogued product"):
            engine.query(TileRequest(bbox=(9e6, 9e6, 9.1e6, 9.1e6)))
        with pytest.raises(LookupError, match="nope"):
            engine.query(TileRequest(bbox=(0, 0, 100, 100), variable="nope"))

    def test_non_servable_variable_rejected_before_decode(self, engine):
        # n_segments is in every sidecar but is a reduction weight, not a
        # pyramid value layer: the engine must refuse cleanly at resolution
        # instead of decoding and crashing with a KeyError.
        with pytest.raises(LookupError, match="not a servable pyramid layer"):
            engine.query(TileRequest(bbox=(0, 0, 1000, 1000), variable="n_segments"))
        assert engine.loader.n_loads == 0

    def test_loader_with_mismatched_geometry_rejected(self, engine):
        with pytest.raises(ValueError, match="ServeConfig mismatch"):
            QueryEngine(
                engine.catalog,
                loader=ProductLoader(ServeConfig(tile_size=64)),
                serve=SERVE,
            )

    def test_zoom_clamped_to_pyramid_depth(self, engine):
        response = engine.query(TileRequest(bbox=(0.0, 0.0, 900.0, 900.0), zoom=99))
        # 40x24 at tile_size 8 -> levels 0..3 (5x3 fits one 8-tile at zoom 3).
        assert response.zoom == engine._plan(
            TileRequest(bbox=(0.0, 0.0, 900.0, 900.0), zoom=99)
        ).zoom
        assert response.zoom < 99

    def test_tiles_match_direct_pyramid_extraction(self, engine, tmp_path):
        from repro.l3.writer import read_level3
        from repro.serve.pyramid import build_pyramid

        request = TileRequest(bbox=(800.0, 800.0, 2300.0, 1500.0), zoom=1)
        response = engine.query(request)
        entry = engine.catalog.get(response.product)
        pyramid = build_pyramid(read_level3(entry.base_path), serve=SERVE)
        for (row, col), tile in response.tiles.items():
            np.testing.assert_array_equal(
                tile, pyramid.tile(request.variable, response.zoom, row, col)
            )

    def test_mosaic_array_stitches_window(self, engine):
        response = engine.query(TileRequest(bbox=(0.0, 0.0, 3000.0, 1500.0), zoom=0))
        stitched = response.mosaic_array()
        rows = {row for row, _ in response.tiles}
        cols = {col for _, col in response.tiles}
        assert stitched.shape == (len(rows) * 8, len(cols) * 8)

    def test_stats_accumulate(self, engine):
        request = TileRequest(bbox=(0.0, 0.0, 1500.0, 1500.0))
        engine.query(request)
        engine.query(request)
        assert engine.stats.requests == 2
        assert engine.stats.batches == 2
        assert engine.stats.loads == 1
        assert engine.stats.tile_hits > 0 and engine.stats.tile_misses > 0
        assert 0.0 < engine.stats.hit_rate < 1.0

    def test_eviction_causes_reload(self, tmp_path):
        write_product(tmp_path / "mosaic")
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        tiny = ServeConfig(tile_size=8, tile_cache_size=1)
        engine = QueryEngine(catalog, loader=ProductLoader(tiny), serve=tiny)
        a = TileRequest(bbox=(0.0, 0.0, 700.0, 700.0), zoom=0)
        b = TileRequest(bbox=(900.0, 900.0, 1500.0, 1500.0), zoom=0)
        engine.query(a)
        engine.query(b)  # evicts a's tile
        engine.query(a)  # must decode again
        assert engine.loader.n_loads == 3


class _DecodeCountingLoader(ProductLoader):
    """Counts full pyramid decodes separately from window-read loads."""

    def __init__(self, serve):
        super().__init__(serve)
        self.n_decodes = 0

    def decode(self, entry):
        self.n_decodes += 1
        return super().decode(entry)


class TestRawProducts:
    def _engine(self, directory, format):
        write_product(directory / "mosaic", format=format)
        catalog = ProductCatalog()
        catalog.scan(directory)
        return QueryEngine(catalog, loader=_DecodeCountingLoader(SERVE), serve=SERVE)

    def test_raw_responses_match_npz_byte_for_byte(self, tmp_path):
        npz_engine = self._engine(tmp_path / "npz", "npz")
        raw_engine = self._engine(tmp_path / "raw", "raw")
        for zoom in (0, 1):
            request = TileRequest(bbox=(0.0, 0.0, 3000.0, 2000.0), zoom=zoom)
            want = npz_engine.query(request)
            got = raw_engine.query(request)
            assert set(got.tiles) == set(want.tiles)
            for key in want.tiles:
                assert got.tiles[key].tobytes() == want.tiles[key].tobytes()
            assert got.fingerprints == want.fingerprints

    def test_zoom0_raw_query_skips_pyramid_build(self, tmp_path):
        engine = self._engine(tmp_path, "raw")
        response = engine.query(TileRequest(bbox=(0.0, 0.0, 1500.0, 1500.0), zoom=0))
        assert response.n_computed == response.n_tiles
        assert engine.loader.n_loads == 1  # the windowed read counts as a load
        assert engine.loader.n_decodes == 0  # ...but built no pyramid

    def test_overview_zoom_still_decodes_pyramid(self, tmp_path):
        engine = self._engine(tmp_path, "raw")
        engine.query(TileRequest(bbox=(0.0, 0.0, 3000.0, 2000.0), zoom=1))
        assert engine.loader.n_decodes == 1

    def test_served_tiles_are_immutable(self, tmp_path):
        for format in ("npz", "raw"):
            engine = self._engine(tmp_path / format, format)
            request = TileRequest(bbox=(0.0, 0.0, 1500.0, 1500.0), zoom=0)
            first = engine.query(request)
            for tile in first.tiles.values():
                assert not tile.flags.writeable
                with pytest.raises(ValueError):
                    tile[0, 0] = 1e9
            # The failed writes above corrupted nothing: a cached repeat
            # serves the same bytes.
            repeat = engine.query(request)
            assert repeat.from_cache
            for key in first.tiles:
                assert repeat.tiles[key].tobytes() == first.tiles[key].tobytes()
