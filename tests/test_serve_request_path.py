"""The warm request path answers exactly as the direct computation does.

Two shortcuts sit on every routed request.  ``ProductCatalog.query`` starts
from a variable's entries, kept in registration order, instead of scanning
every product; ``plan_request`` takes the zoom clamp and the tile
addresses from a memo keyed on the product geometry and the request.  These
tests hold both to what they replace: the plan to ``n_levels_for`` and
``tiles_for_bbox`` computed afresh, and the router's resolution to
``select_entry`` over a brute-force scan of the catalog after every kind of
catalog and shard change.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig, ServeConfig
from repro.serve import query as query_module
from repro.serve.catalog import CatalogEntry
from repro.serve.pyramid import n_levels_for, tiles_for_bbox
from repro.serve.query import ProductLoader, TileRequest, plan_request, select_entry
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

SERVE = ServeConfig(tile_size=8, tile_cache_size=128)


def make_entry(
    i: int,
    bbox,
    kind: str = "mosaic",
    variables=("freeboard_mean", "n_segments"),
    shape=(32, 48),
    cell_size_m: float = 100.0,
) -> CatalogEntry:
    """A synthetic catalog entry (metadata only, no files on disk)."""
    x0, y0, x1, y1 = bbox
    return CatalogEntry(
        base_path=f"/products/p{i}",
        kind=kind,
        fingerprint=f"fp-{i}",
        granule_ids=(f"g{i:03d}",),
        variables=tuple(variables),
        servable=tuple(v for v in variables if v != "n_segments"),
        x_min_m=float(x0),
        y_min_m=float(y0),
        x_max_m=float(x1),
        y_max_m=float(y1),
        cell_size_m=cell_size_m,
        shape=shape,
    )


def direct_plan(entry: CatalogEntry, request: TileRequest, serve: ServeConfig):
    """``(zoom, tile_keys)`` computed afresh from the pyramid geometry."""
    levels = n_levels_for(entry.shape, serve.tile_size, serve.max_levels)
    zoom = max(0, min(request.zoom, levels - 1))
    addresses = tiles_for_bbox(
        request.bbox,
        (entry.x_min_m, entry.y_min_m),
        entry.cell_size_m,
        entry.shape,
        zoom,
        serve.tile_size,
    )
    return zoom, tuple((entry.key, request.variable, zoom, row, col) for row, col in addresses)


@st.composite
def plan_cases(draw):
    """A product grid, a serve config and a request bbox against the grid."""
    ny = draw(st.integers(min_value=1, max_value=400))
    nx = draw(st.integers(min_value=1, max_value=400))
    cell = draw(st.sampled_from([0.5, 2.0, 10.0, 25.0, 100.0]))
    x0 = draw(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False))
    y0 = draw(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False))
    tile_size = draw(st.sampled_from([1, 2, 7, 8, 64, 256]))
    max_levels = draw(st.none() | st.integers(min_value=0, max_value=6))
    entry = make_entry(
        0, (x0, y0, x0 + nx * cell, y0 + ny * cell), shape=(ny, nx), cell_size_m=cell
    )
    width, height = nx * cell, ny * cell
    where = draw(st.sampled_from(["overlap", "tile_edge", "miss"]))
    if where == "overlap":
        fx = draw(st.floats(min_value=-0.2, max_value=1.2))
        fy = draw(st.floats(min_value=-0.2, max_value=1.2))
        left, bottom = x0 + fx * width, y0 + fy * height
        right = left + draw(st.floats(min_value=0.01, max_value=1.5)) * width + 1.0
        top = bottom + draw(st.floats(min_value=0.01, max_value=1.5)) * height + 1.0
    elif where == "tile_edge":
        # Edges exactly on tile boundaries of one level: the half-open rule
        # decides which neighbour a boundary belongs to.
        span = cell * 2 ** draw(st.integers(min_value=0, max_value=4)) * tile_size
        left = x0 + draw(st.integers(min_value=0, max_value=4)) * span
        bottom = y0 + draw(st.integers(min_value=0, max_value=4)) * span
        right = left + draw(st.integers(min_value=1, max_value=3)) * span
        top = bottom + draw(st.integers(min_value=1, max_value=3)) * span
    else:  # entirely left of and below the grid
        right = x0 - draw(st.floats(min_value=0.0, max_value=1e4))
        top = y0 - draw(st.floats(min_value=0.0, max_value=1e4))
        left, bottom = right - width, top - height
    request = TileRequest(
        bbox=(left, bottom, right, top), zoom=draw(st.integers(min_value=0, max_value=12))
    )
    serve = ServeConfig(tile_size=tile_size, max_levels=max_levels)
    return entry, serve, request


class TestMemoizedPlan:
    @settings(max_examples=300, deadline=None)
    @given(case=plan_cases())
    def test_memoized_plan_equals_the_direct_plan(self, case):
        entry, serve, request = case
        expected = direct_plan(entry, request, serve)
        for _ in range(2):  # the second plan is read from the memo
            plan = plan_request(entry, request, serve)
            assert (plan.zoom, plan.tile_keys) == expected
            assert plan.entry is entry and plan.request is request

    def test_zoom_past_the_pyramid_depth_clamps_to_the_coarsest_level(self):
        entry = make_entry(0, (0.0, 0.0, 4800.0, 3200.0))
        request = TileRequest(bbox=(0.0, 0.0, 4800.0, 3200.0), zoom=40)
        levels = n_levels_for(entry.shape, SERVE.tile_size, SERVE.max_levels)
        plan = plan_request(entry, request, SERVE)
        assert plan.zoom == levels - 1
        assert (plan.zoom, plan.tile_keys) == direct_plan(entry, request, SERVE)

    def test_a_bbox_on_tile_edges_covers_only_the_tiles_inside(self):
        entry = make_entry(0, (0.0, 0.0, 4800.0, 3200.0))
        # One 800 m tile exactly: its right and top edges belong to the
        # next tiles, so only (1, 1) is addressed.
        request = TileRequest(bbox=(800.0, 800.0, 1600.0, 1600.0))
        plan = plan_request(entry, request, SERVE)
        assert plan.tile_keys == (("fp-0", "freeboard_mean", 0, 1, 1),)

    def test_a_bbox_that_misses_the_grid_plans_no_tiles(self):
        entry = make_entry(0, (0.0, 0.0, 4800.0, 3200.0))
        request = TileRequest(bbox=(-900.0, -900.0, -100.0, -100.0))
        assert plan_request(entry, request, SERVE).tile_keys == ()

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_bbox_raises_every_time(self, bad):
        entry = make_entry(0, (0.0, 0.0, 4800.0, 3200.0))
        request = TileRequest(bbox=(0.0, 0.0, bad, 800.0))
        size = query_module._tile_geometry.cache_info().currsize
        for _ in range(2):  # an error is raised again, never memoized
            with pytest.raises(ValueError, match="finite"):
                plan_request(entry, request, SERVE)
        assert query_module._tile_geometry.cache_info().currsize == size

    def test_the_memo_is_bounded_by_the_module_constant(self):
        info = query_module._tile_geometry.cache_info()
        assert info.maxsize == query_module.TILE_GEOMETRY_MEMO_SIZE


#: Requests over the synthetic archive: covering, partial, edge-touching and
#: missing boxes, a servable, a count and an unknown variable.
REQUEST_BOXES = [
    (0.0, 0.0, 4800.0, 3200.0),
    (100.0, 100.0, 900.0, 700.0),
    (4000.0, 2000.0, 9000.0, 6000.0),
    (4800.0, 0.0, 5600.0, 800.0),
    (-2000.0, -2000.0, -1000.0, -1000.0),
    (-500.0, -500.0, 200.0, 200.0),
    (7000.0, 5000.0, 7100.0, 5100.0),
    (-800.0, 1000.0, 500.0, 1500.0),
    (1000.0, -900.0, 1500.0, 500.0),
]
REQUESTS = [
    TileRequest(bbox=box, variable=variable)
    for box in REQUEST_BOXES
    for variable in ("freeboard_mean", "thickness_mean", "n_segments", "missing")
]


def scanned_candidates(catalog: ShardedCatalog, request: TileRequest) -> list[CatalogEntry]:
    """Every product with the variable whose footprint meets the bbox."""
    return [
        entry
        for entry in catalog.entries
        if request.variable in entry.variables and entry.intersects(request.bbox)
    ]


def scanned_resolution(router: RequestRouter, request: TileRequest):
    """``select_entry`` over a brute-force scan of every healthy product."""
    catalog = router.catalog
    quarantined = set(router.quarantined_shards)
    candidates = [
        entry
        for entry in scanned_candidates(catalog, request)
        if catalog.shard_of(entry.key) not in quarantined
    ]
    entry = select_entry(candidates, request)
    return catalog.shard_of(entry.key), entry


def outcome(resolve, request):
    try:
        return resolve(request)
    except LookupError:
        return LookupError


def assert_resolution_matches_a_scan(router: RequestRouter) -> None:
    for request in REQUESTS:
        expected = outcome(lambda r: scanned_resolution(router, r), request)
        assert outcome(router.resolve, request) == expected, request
        scanned = scanned_candidates(router.catalog, request)
        assert router.catalog.query(bbox=request.bbox, variable=request.variable) == scanned
        # Kind and granule filters narrow the same registration-order list.
        for kind in (None, "mosaic", "granule"):
            for granule_id in (None, "g001", "g099"):
                for variable in (None, request.variable):
                    got = router.catalog.query(
                        bbox=request.bbox, variable=variable, kind=kind, granule_id=granule_id
                    )
                    assert got == [
                        entry
                        for entry in router.catalog.entries
                        if (variable is None or variable in entry.variables)
                        and (kind is None or entry.kind == kind)
                        and (granule_id is None or granule_id in entry.granule_ids)
                        and entry.intersects(request.bbox)
                    ]


class TestResolutionAfterChanges:
    def build(self) -> RequestRouter:
        entries = [
            make_entry(0, (0.0, 0.0, 4800.0, 3200.0)),
            make_entry(1, (-1000.0, -1000.0, 2000.0, 2000.0), kind="granule"),
            make_entry(
                2,
                (3000.0, 1000.0, 8000.0, 6000.0),
                kind="granule",
                variables=("freeboard_mean", "n_segments", "thickness_mean"),
            ),
            make_entry(3, (-3000.0, -3000.0, 9000.0, 9000.0), kind="granule"),
            make_entry(4, (500.0, 500.0, 5000.0, 4000.0)),
        ]
        return RequestRouter(
            ShardedCatalog(3, entries),
            serve=SERVE,
            config=RouterConfig(n_shards=3),
            loader_factory=lambda index: ProductLoader(SERVE),
        )

    def test_resolution_matches_a_catalog_scan_after_every_change(self):
        router = self.build()
        catalog = router.catalog
        assert_resolution_matches_a_scan(router)

        catalog.add(make_entry(5, (-2000.0, -2000.0, 1000.0, 1000.0)))
        catalog.add(
            make_entry(
                6,
                (4500.0, 100.0, 6000.0, 900.0),
                kind="granule",
                variables=("freeboard_mean", "thickness_mean"),
            )
        )
        assert_resolution_matches_a_scan(router)

        catalog.remove("fp-4")
        assert_resolution_matches_a_scan(router)

        # The same key over a new footprint, with one more variable: it may
        # move shards, and it keeps its place in registration order.
        catalog.add(
            make_entry(
                0,
                (2000.0, 1500.0, 7500.0, 5500.0),
                variables=("freeboard_mean", "n_segments", "thickness_mean"),
            )
        )
        assert_resolution_matches_a_scan(router)

        winner = router.resolve(REQUESTS[0])[0]
        router.shards[winner].quarantined = True
        assert router.quarantined_shards == (winner,)
        assert_resolution_matches_a_scan(router)

        router.rebuild_shard(winner)
        assert router.quarantined_shards == ()
        assert_resolution_matches_a_scan(router)

    @settings(max_examples=60, deadline=None)
    @given(order=st.permutations(range(5)), removed=st.sets(st.integers(0, 4), max_size=3))
    @example(order=[4, 3, 2, 1, 0], removed={0})
    def test_any_registration_order_and_removals_match_a_scan(self, order, removed):
        full = self.build().catalog.entries
        router = RequestRouter(
            ShardedCatalog(3, [full[i] for i in order]),
            serve=SERVE,
            config=RouterConfig(n_shards=3),
            loader_factory=lambda index: ProductLoader(SERVE),
        )
        assert_resolution_matches_a_scan(router)
        for i in sorted(removed):
            router.catalog.remove(full[i].key)
            assert_resolution_matches_a_scan(router)
