"""Property tests for the sharded catalog: total, stable, order-preserving.

The contracts under test are exactly what lets the router treat shards as
interchangeable with the unsharded catalog: every bbox maps to one shard,
the mapping survives catalog rebuilds in any registration order, and a
query against the sharded catalog returns the same products — and hence
resolves to the same winner — as the unsharded one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.query import TileRequest, select_entry
from repro.serve.shard import ShardedCatalog, shard_index


def make_entry(i: int, bbox, kind: str = "mosaic") -> CatalogEntry:
    """A synthetic catalog entry (metadata only, no files on disk)."""
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
        shape=(max(int((y1 - y0) // 100), 1), max(int((x1 - x0) // 100), 1)),
    )


coordinates = st.floats(
    min_value=-1e7, max_value=1e7, allow_nan=False, allow_subnormal=False
)
extents = st.floats(min_value=1.0, max_value=1e6, allow_subnormal=False)


@st.composite
def bboxes(draw):
    x0 = draw(coordinates)
    y0 = draw(coordinates)
    return (x0, y0, x0 + draw(extents), y0 + draw(extents))


class TestShardIndex:
    @given(bbox=bboxes(), n_shards=st.integers(min_value=1, max_value=64))
    def test_total_in_range_and_deterministic(self, bbox, n_shards):
        index = shard_index(bbox, n_shards)
        assert 0 <= index < n_shards
        assert shard_index(bbox, n_shards) == index

    @given(bbox=bboxes())
    def test_single_shard_is_identity(self, bbox):
        assert shard_index(bbox, 1) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_index((0.0, 0.0, 1.0, 1.0), 0)

    def test_known_vectors_are_frozen(self):
        # The assignment function is a persistence contract: per-shard tile
        # caches stay valid across restarts only while these hold.  Changing
        # the hash (or its packing) must fail loudly here.
        assert shard_index((0.0, 0.0, 4800.0, 3200.0), 4) == 0
        assert shard_index((0.0, 0.0, 4800.0, 3200.0), 7) == 6
        assert shard_index((-1e6, 2.5, 1e6, 9000.0), 4) == 2

    @given(bbox=bboxes(), n_shards=st.integers(min_value=2, max_value=16))
    def test_independent_of_entry_identity(self, bbox, n_shards):
        # Two products with the same footprint land on the same shard, so
        # one shard's cache sees all traffic for that footprint.
        a, b = make_entry(1, bbox), make_entry(2, bbox, kind="granule")
        catalog = ShardedCatalog(n_shards, [a, b])
        assert catalog.shard_of(a.key) == catalog.shard_of(b.key)


@st.composite
def entry_sets(draw):
    boxes = draw(
        st.lists(bboxes(), min_size=1, max_size=10, unique_by=lambda b: b)
    )
    return [make_entry(i, bbox) for i, bbox in enumerate(boxes)]


class TestShardedCatalog:
    @given(entries=entry_sets(), n_shards=st.integers(min_value=1, max_value=8))
    def test_every_entry_on_exactly_one_shard(self, entries, n_shards):
        catalog = ShardedCatalog(n_shards, entries)
        assert sum(catalog.counts()) == len(entries)
        for entry in entries:
            owner = catalog.shard_of(entry.key)
            assert [entry.key in shard for shard in catalog.shards] == [
                index == owner for index in range(n_shards)
            ]

    @given(
        entries=entry_sets(),
        n_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_assignment_stable_across_rebuild_order(self, entries, n_shards, seed):
        shuffled = list(entries)
        np.random.default_rng(seed).shuffle(shuffled)
        first = ShardedCatalog(n_shards, entries)
        rebuilt = ShardedCatalog(n_shards, shuffled)
        assert {e.key: first.shard_of(e.key) for e in entries} == {
            e.key: rebuilt.shard_of(e.key) for e in entries
        }

    @given(entries=entry_sets(), n_shards=st.integers(min_value=1, max_value=8))
    def test_entries_preserve_registration_order(self, entries, n_shards):
        catalog = ShardedCatalog(n_shards, entries)
        assert catalog.entries == tuple(entries)

    @given(
        entries=entry_sets(),
        n_shards=st.integers(min_value=1, max_value=8),
        query_bbox=bboxes(),
    )
    def test_query_matches_unsharded_catalog(self, entries, n_shards, query_bbox):
        flat = ProductCatalog(entries)
        sharded = ShardedCatalog(n_shards, entries)
        expected = flat.query(bbox=query_bbox, variable="freeboard_mean")
        assert sharded.query(bbox=query_bbox, variable="freeboard_mean") == expected

    @given(
        entries=entry_sets(),
        n_shards=st.integers(min_value=1, max_value=8),
        query_bbox=bboxes(),
    )
    def test_resolution_matches_unsharded_catalog(self, entries, n_shards, query_bbox):
        # The winner under select_entry is identical — the property that
        # makes routing to the owning shard semantics-preserving.
        request = TileRequest(bbox=query_bbox, variable="freeboard_mean")
        flat = ProductCatalog(entries)
        sharded = ShardedCatalog(n_shards, entries)
        try:
            expected = select_entry(flat.query(bbox=query_bbox, variable="freeboard_mean"), request)
        except LookupError:
            with pytest.raises(LookupError):
                select_entry(
                    sharded.query(bbox=query_bbox, variable="freeboard_mean"), request
                )
            return
        got = select_entry(sharded.query(bbox=query_bbox, variable="freeboard_mean"), request)
        assert got.key == expected.key
        assert sharded.shard_of(got.key) == shard_index(got.bbox, n_shards)

    def test_rehoming_a_changed_footprint(self):
        # Same key, different bbox (the sidecars disagree): the entry moves
        # to the new footprint's shard instead of existing on two shards.
        from dataclasses import replace

        old = make_entry(0, (0.0, 0.0, 1000.0, 1000.0))
        new = replace(old, x_max_m=2000.0)
        catalog = ShardedCatalog(16, [old])
        catalog.add(new)
        assert len(catalog) == 1
        assert catalog.shard_of(new.key) == shard_index(new.bbox, 16)
        assert sum(catalog.counts()) == 1

    def test_empty_catalog_has_no_extent(self):
        with pytest.raises(ValueError, match="empty"):
            ShardedCatalog(4).extent()

    def test_scan_collects_skipped_files(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        catalog = ShardedCatalog(2)
        registered, skipped = catalog.scan(tmp_path)
        assert registered == [] and len(skipped) == 1


@pytest.fixture(scope="module")
def product_archive(tmp_path_factory):
    """Two real overlapping products on disk plus their flat catalog."""
    root = tmp_path_factory.mktemp("shard-products")
    rng = np.random.default_rng(7)
    catalog = ProductCatalog()
    for name, origin in (("mosaic-a", (0.0, 0.0)), ("mosaic-b", (2000.0, 1000.0))):
        grid = GridDefinition(
            x_min_m=origin[0], y_min_m=origin[1], cell_size_m=100.0, nx=48, ny=32
        )
        n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
        product = Level3Grid(
            grid=grid,
            variables={
                "n_segments": n_seg,
                "freeboard_mean": np.where(
                    n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan
                ),
            },
            metadata={
                "kind": "mosaic",
                "granule_ids": [name],
                "fingerprint": f"fp-{name}",
            },
        )
        _, json_path = write_level3(product, root / name)
        catalog.register(json_path)
    return catalog


class TestEngineFanOutEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        x0=st.floats(min_value=0.0, max_value=5000.0, allow_subnormal=False),
        y0=st.floats(min_value=0.0, max_value=3000.0, allow_subnormal=False),
        zoom=st.integers(min_value=0, max_value=2),
        n_shards=st.integers(min_value=1, max_value=5),
    )
    @example(x0=0.0, y0=0.0, zoom=0, n_shards=1)
    def test_router_tiles_bit_identical_to_unsharded_engine(
        self, product_archive, x0, y0, zoom, n_shards
    ):
        from dataclasses import replace

        from repro.config import RouterConfig, ServeConfig
        from repro.serve.handle import ServeHandle
        from repro.serve.query import QueryEngine
        from repro.serve.router import RequestRouter

        serve = ServeConfig(tile_size=8, tile_cache_size=64)
        request = TileRequest(
            bbox=(x0, y0, x0 + 1500.0, y0 + 1200.0),
            variable="freeboard_mean",
            zoom=zoom,
        )
        engine = QueryEngine(product_archive, serve=serve)
        router = RequestRouter(
            ShardedCatalog.from_catalog(product_archive, n_shards), serve=serve
        )
        expected = engine.query(request)
        fronts = [(router, router.serve([request])[0])]
        if n_shards == 1:
            # The unsharded case of the handle's one front.
            handle = ServeHandle(
                product_archive, serve=replace(serve, router=RouterConfig(n_shards=1))
            )
            fronts.append((handle.router, handle.query_batch([request])[0]))
        for front, routed in fronts:
            assert routed.product == expected.product
            assert routed.zoom == expected.zoom
            assert routed.shard == front.catalog.shard_of(expected.product)
            assert set(routed.tiles) == set(expected.tiles)
            for address, tile in expected.tiles.items():
                np.testing.assert_array_equal(routed.tiles[address], tile)
