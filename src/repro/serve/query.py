"""The query engine: resolve (bbox, variable, zoom) requests to tiles.

Serving path, in order of decreasing cheapness:

1. **Tile cache** — every served tile lands in a fingerprint-keyed LRU
   (``(product key, variable, zoom, row, col)``), so a repeated region
   query is answered without touching the filesystem at all: the engine
   resolves the request to tile addresses from catalog metadata alone
   (shared geometry helpers in :mod:`repro.serve.pyramid`), then copies the
   cached arrays out.
2. **Batched decode** — cache-missing tiles are grouped *per product*, so
   however many concurrent requests hit one mosaic, its npz is decoded and
   its pyramid built exactly once per batch.  The products of a batch are
   decoded one after another, in product-key order, on the calling thread;
   the serve tier has no fan-out level of its own.  A routed batch serves
   its requests one at a time but hands every request the pyramids the
   batch has already decoded (:meth:`QueryEngine.serve_plans`'s
   ``decoded``), so there too a product is decoded once per batch.

The loader is pluggable and instrumented (``n_loads``, ``loaded``): tests
can assert exactly which requests caused a decode, which is the whole
point of the cache.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.config import DEFAULT_SERVE, ServeConfig
from repro.l3.writer import read_level3
from repro.obs.core import Obs, default_obs
from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.pyramid import (
    TilePyramid,
    build_pyramid,
    cut_tile,
    n_levels_for,
    tiles_for_bbox,
)

#: Cache key of one tile: (product key, variable, zoom, row, col).
TileKey = tuple[str, str, int, int, int]

#: Auto-assigned ``engine=eN`` metric labels for engines constructed without
#: explicit ``obs_labels`` (keeps independent engines' counters separate).
_ENGINE_IDS = itertools.count(1)


@dataclass(frozen=True)
class TileRequest:
    """One client request: a projected-metre region, a variable, a zoom."""

    bbox: tuple[float, float, float, float]
    variable: str = "freeboard_mean"
    zoom: int = 0

    def __post_init__(self) -> None:
        box = tuple(float(v) for v in self.bbox)
        object.__setattr__(self, "bbox", box)
        if box[2] <= box[0] or box[3] <= box[1]:
            raise ValueError(f"bbox must have positive width and height, got {box}")
        if self.zoom < 0:
            raise ValueError("zoom must be >= 0")
        if not self.variable:
            raise ValueError("variable must be a non-empty name")


@dataclass
class TileResponse:
    """One served request — the single response shape of the serve tier.

    Both :meth:`QueryEngine.query` and
    :meth:`repro.serve.router.RequestRouter.query` return this dataclass:
    the tiles, per-tile provenance fingerprints, cache accounting
    (``n_cached``/``n_computed``), and the ``shard`` the router fills in.
    ``stale`` marks a response served from the previous product revision
    while a live ingest rebuild is in flight (stale-while-revalidate).
    ``tiles`` may share arrays with the engine's tile cache, so treat it
    as read-only.
    """

    request: TileRequest
    product: str
    zoom: int
    tiles: dict[tuple[int, int], np.ndarray]
    n_cached: int
    n_computed: int
    seconds: float
    #: Per-tile provenance: ``(row, col) -> tile-region fingerprint``.
    fingerprints: dict[tuple[int, int], str] = field(default_factory=dict)
    #: Served from the previous revision while a rebuild is in flight.
    stale: bool = False
    #: The shard that served the request (``None`` when the response came
    #: straight from an engine, not through the router).
    shard: int | None = None

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def from_cache(self) -> bool:
        """True when every tile came from the LRU (no decode, no filesystem)."""
        return self.n_computed == 0

    def mosaic_array(self) -> np.ndarray:
        """The response's tiles stitched into one array (row-major window)."""
        if not self.tiles:
            return np.empty((0, 0))
        rows = sorted({row for row, _ in self.tiles})
        cols = sorted({col for _, col in self.tiles})
        sample = next(iter(self.tiles.values()))
        ts = sample.shape[0]
        out = np.full((len(rows) * ts, len(cols) * ts), np.nan)
        for (row, col), tile in self.tiles.items():
            i, j = rows.index(row), cols.index(col)
            out[i * ts : (i + 1) * ts, j * ts : (j + 1) * ts] = tile
        return out


@dataclass
class QueryStats:
    """Cumulative engine counters (across every batch served).

    A plain *snapshot* dataclass: :attr:`QueryEngine.stats` assembles one
    from the registry-backed ``serve_*`` counters on every access, so the
    numbers survive engine/loader reconstruction (the counters live in the
    obs registry, keyed by name and labels, not on the engine).
    """

    requests: int = 0
    batches: int = 0
    tile_hits: int = 0
    tile_misses: int = 0
    loads: int = 0
    seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.tile_hits + self.tile_misses
        return self.tile_hits / total if total else 0.0


class ProductLoader:
    """Instrumented product decoder: npz -> :class:`TilePyramid`.

    ``n_loads`` / ``loaded`` record every decode, so tests can assert that
    the LRU actually prevented filesystem reads.  The counters are guarded
    by a lock: a serve handle may be driven from several threads at once,
    and an unsynchronized ``+=`` would undercount.
    Subclass and override :meth:`decode` to serve from other storage.
    """

    def __init__(self, serve: ServeConfig = DEFAULT_SERVE, obs: Obs | None = None) -> None:
        self.serve = serve
        self.n_loads = 0
        self.loaded: list[str] = []
        self._lock = threading.Lock()
        self._obs = obs

    @property
    def obs(self) -> Obs:
        """The telemetry handle (the owning engine wires its own in)."""
        return self._obs if self._obs is not None else default_obs()

    def decode(self, entry: CatalogEntry) -> TilePyramid:
        product = read_level3(entry.base_path)
        return build_pyramid(product, serve=self.serve)

    def load(self, entry: CatalogEntry) -> TilePyramid:
        with self._lock:
            self.n_loads += 1
            self.loaded.append(entry.key)
        return self.decode(entry)

    def fetch(
        self,
        entry: CatalogEntry,
        needed: Sequence[TileKey],
        decoded: dict[str, TilePyramid] | None = None,
    ) -> dict[TileKey, np.ndarray]:
        """The requested tiles of one product, decoding only what's required.

        Counts as exactly one load either way.  Base-resolution requests
        against raw-format products take the **windowed read** fast path:
        the blob is memory-mapped and each tile is a read-only view of its
        own window, so the decode touches one tile's worth of pages — no
        archive inflation, no pyramid build.  Everything else (npz
        products, overview zooms, live in-memory products) decodes the full
        pyramid as before, and adds it to ``decoded`` when one is given.
        """
        with self.obs.span(
            "loader.fetch", product=entry.key, n_tiles=len(needed)
        ) as span:
            tiles = self._window_tiles(entry, needed)
            if tiles is not None:
                with self._lock:
                    self.n_loads += 1
                    self.loaded.append(entry.key)
                span.set(windowed=True)
                return tiles
            pyramid = self.load(entry)
            span.set(windowed=False)
            if decoded is not None:
                decoded[entry.key] = pyramid
            return _cut_tiles(pyramid, needed)

    def _window_tiles(
        self, entry: CatalogEntry, needed: Sequence[TileKey]
    ) -> dict[TileKey, np.ndarray] | None:
        """Zoom-0 window reads for raw products; ``None`` -> full decode.

        Bit-identical to ``pyramid.tile`` at zoom 0: the base level's value
        layers are ``asarray(variable, dtype=float)`` windows, and tiles go
        through the same :func:`~repro.serve.pyramid.cut_tile` NaN-padding.
        Only applies when every needed tile is base resolution — overview
        tiles need the reduction kernels, hence the full pyramid.
        """
        if entry.storage != "raw" or any(key[2] != 0 for key in needed):
            return None
        product = read_level3(entry.base_path)
        ts = self.serve.tile_size
        tiles: dict[TileKey, np.ndarray] = {}
        for key in needed:
            _, variable, _, row, col = key
            layer = product.variables[variable]
            window = np.asarray(
                layer[row * ts : (row + 1) * ts, col * ts : (col + 1) * ts],
                dtype=float,
            )
            tiles[key] = cut_tile(window, ts)
        return tiles

    def tile_fingerprint(self, key: TileKey) -> str:
        """Provenance fingerprint of one tile region.

        For immutable (batch-written) products the product key *is* the
        content fingerprint, so the tile region is fully identified by
        appending its address.  Live loaders
        (:class:`repro.serve.live.LivePyramidLoader`) refine this with a
        per-region revision that advances only when an ingest actually
        rebuilt that tile.
        """
        product, variable, zoom, row, col = key
        return f"{product}/{variable}@z{zoom}/{row},{col}"

    def is_stale(self, product_key: str) -> bool:
        """Whether a product is mid-rebuild (stale-while-revalidate flag).

        Batch products are immutable, hence never stale; the live loader
        overrides this during an in-flight ingest.
        """
        return False


def _cut_tiles(pyramid: TilePyramid, keys: Iterable[TileKey]) -> dict[TileKey, np.ndarray]:
    """The tiles at ``keys`` of one decoded product's pyramid."""
    return {key: pyramid.tile(key[1], key[2], key[3], key[4]) for key in keys}


class _LRUCache:
    """A size-bounded LRU mapping (the tile cache)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Any | None:
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def pop(self, key: Hashable) -> bool:
        """Drop one entry; True when it was resident (targeted invalidation)."""
        return self._data.pop(key, None) is not None


@dataclass
class RequestPlan:
    """One request resolved to a product and concrete tile addresses.

    Made once per request (:func:`plan_request`) and handed to
    :meth:`QueryEngine.serve_plans`; the router plans against the global
    catalog and passes the plan on to the owning shard's engine.
    """

    request: TileRequest
    entry: CatalogEntry
    zoom: int
    tile_keys: tuple[TileKey, ...]


def select_entry(candidates: Sequence[CatalogEntry], request: TileRequest) -> CatalogEntry:
    """The resolution policy: which of the matching products serves a request.

    Shared by :class:`QueryEngine` and the sharded router, so a sharded
    deployment resolves every request to exactly the product the unsharded
    engine would pick.  Mosaics win over per-granule grids (they composite
    the whole fleet); ties break towards the most recently registered
    product.  Raises ``LookupError`` when nothing matches — and *before*
    any decode when the variable exists in products but is not a servable
    pyramid layer (count layers are reduction weights).
    """
    if not candidates:
        raise LookupError(
            f"no catalogued product with variable {request.variable!r} "
            f"intersects bbox {request.bbox}"
        )
    servable = [e for e in candidates if request.variable in e.servable]
    if not servable:
        raise LookupError(
            f"variable {request.variable!r} exists in matching products but "
            "is not a servable pyramid layer (count/coverage layers are "
            f"reduction weights); servable here: {sorted(candidates[-1].servable)}"
        )
    mosaics = [entry for entry in servable if entry.kind == "mosaic"]
    pool = mosaics if mosaics else servable
    return pool[-1]


#: Bound of :func:`_tile_geometry`'s memo: distinct (product geometry,
#: request bbox, zoom) combinations kept; the least recently used go first.
TILE_GEOMETRY_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=TILE_GEOMETRY_MEMO_SIZE)
def _tile_geometry(
    origin: tuple[float, float],
    cell_size_m: float,
    shape: tuple[int, int],
    bbox: tuple[float, float, float, float],
    zoom: int,
    tile_size: int,
    max_levels: int | None,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The clamped zoom and the ``(row, col)`` tile addresses of one request.

    A pure function of a product's grid and the request, so it is memoized:
    a hot bbox pays for :func:`~repro.serve.pyramid.n_levels_for` and
    :func:`~repro.serve.pyramid.tiles_for_bbox` once.  Errors (say a
    non-finite bbox) are raised, never memoized.
    """
    levels = n_levels_for(shape, tile_size, max_levels)
    zoom = max(0, min(zoom, levels - 1))
    addresses = tiles_for_bbox(bbox, origin, cell_size_m, shape, zoom, tile_size)
    return zoom, tuple(addresses)


def plan_request(entry: CatalogEntry, request: TileRequest, serve: ServeConfig) -> RequestPlan:
    """Resolve one request against one product to concrete tile addresses.

    Pure geometry from catalog metadata — no decode.  The zoom is clamped
    to the product's pyramid depth; the resulting ``tile_keys`` are the
    fingerprint-based cache keys, so two requests whose bboxes cover the
    same tiles of the same product share cache entries even if the bboxes
    differ.  The geometry is memoized (:data:`TILE_GEOMETRY_MEMO_SIZE`
    combinations), so only the keys are built per request.
    """
    zoom, addresses = _tile_geometry(
        (entry.x_min_m, entry.y_min_m),
        entry.cell_size_m,
        entry.shape,
        request.bbox,
        request.zoom,
        serve.tile_size,
        serve.max_levels,
    )
    key, variable = entry.key, request.variable
    keys = tuple([(key, variable, zoom, row, col) for row, col in addresses])
    return RequestPlan(request=request, entry=entry, zoom=zoom, tile_keys=keys)


class QueryEngine:
    """Serve tile requests over a :class:`~repro.serve.catalog.ProductCatalog`.

    Telemetry: a direct :meth:`query_batch` call runs inside an
    ``engine.query_batch`` span, while :meth:`serve_plans` records onto
    a span the caller already holds (the router's ``router.request``).
    Either way the batch feeds the registry-backed ``serve_*`` counters
    (labelled with ``obs_labels``, e.g. the owning router shard).  Because
    the counters live in the obs registry rather than on the engine,
    :attr:`stats` survives engine reconstruction — a quarantine re-route
    that rebuilds a shard's engine keeps accumulating into the same
    counters.
    """

    def __init__(
        self,
        catalog: ProductCatalog,
        loader: ProductLoader | None = None,
        serve: ServeConfig = DEFAULT_SERVE,
        obs: Obs | None = None,
        obs_labels: Mapping[str, str] | None = None,
    ) -> None:
        self.catalog = catalog
        self.serve = serve
        self.loader = loader if loader is not None else ProductLoader(serve)
        # The engine plans tile addresses from ITS serve config before any
        # decode; a loader building pyramids with different tile geometry
        # would serve mis-georeferenced tiles (or IndexError) silently.
        loader_serve = getattr(self.loader, "serve", None)
        if loader_serve is not None:
            for field_name in ("tile_size", "max_levels", "weight_variable"):
                if getattr(loader_serve, field_name) != getattr(serve, field_name):
                    raise ValueError(
                        f"loader/engine ServeConfig mismatch on {field_name!r}: "
                        f"{getattr(loader_serve, field_name)!r} vs "
                        f"{getattr(serve, field_name)!r} — the loader must build "
                        "pyramids with the engine's tile geometry"
                    )
        self.tile_cache = _LRUCache(serve.tile_cache_size)
        self.obs = obs if obs is not None else default_obs()
        if isinstance(self.loader, ProductLoader) and self.loader._obs is None:
            self.loader._obs = self.obs
        # Explicit obs_labels name a *shared* counter series (the router
        # passes its shard index, so a rebuilt engine re-attaches to the
        # same counters and stats survive quarantine re-routes).  Without
        # them each engine gets a private series, so two engines on one
        # process-default registry never double-count each other.
        if obs_labels is None:
            labels: dict[str, Any] = {"engine": f"e{next(_ENGINE_IDS)}"}
        else:
            labels = dict(obs_labels)
        registry = self.obs.registry
        self._c_requests = registry.counter("serve_requests_total", **labels)
        self._c_batches = registry.counter("serve_batches_total", **labels)
        self._c_tile_hits = registry.counter("serve_tile_hits_total", **labels)
        self._c_tile_misses = registry.counter("serve_tile_misses_total", **labels)
        self._c_loads = registry.counter("serve_loads_total", **labels)
        self._c_seconds = registry.counter("serve_batch_seconds_total", **labels)
        self._h_batch = registry.histogram("serve_batch_seconds", **labels)

    @property
    def stats(self) -> QueryStats:
        """Snapshot of the registry-backed counters as a :class:`QueryStats`."""
        return QueryStats(
            requests=int(self._c_requests.value),
            batches=int(self._c_batches.value),
            tile_hits=int(self._c_tile_hits.value),
            tile_misses=int(self._c_tile_misses.value),
            loads=int(self._c_loads.value),
            seconds=self._c_seconds.value,
        )

    # -- resolution --------------------------------------------------------

    def resolve(self, request: TileRequest) -> CatalogEntry:
        """The product that serves one request (:func:`select_entry` policy)."""
        candidates = self.catalog.query(bbox=request.bbox, variable=request.variable)
        return select_entry(candidates, request)

    def _plan(self, request: TileRequest) -> RequestPlan:
        return plan_request(self.resolve(request), request, self.serve)

    # -- serving -----------------------------------------------------------

    def query(self, request: TileRequest) -> TileResponse:
        """Serve one request (a batch of one)."""
        return self.query_batch([request])[0]

    def invalidate_tiles(self, keys: Iterable[TileKey]) -> int:
        """Drop exactly the given tiles from the LRU; return how many were
        resident.  The live-ingest tier calls this with the dirty tiles of
        one merge, so every *untouched* cached tile stays warm across an
        ingest — the point of dirty-tile accounting."""
        return sum(1 for key in keys if self.tile_cache.pop(key))

    def query_batch(self, requests: Sequence[TileRequest]) -> list[TileResponse]:
        """Serve many concurrent requests with per-product decode batching.

        Tiles already in the LRU are copied out without touching any file;
        the remaining tiles are grouped by product — one decode per product
        per batch, however many requests need it.
        """
        with self.obs.span(
            "engine.query_batch", n_requests=len(requests)
        ) as span:
            return self.serve_plans([self._plan(request) for request in requests], span)

    def serve_plans(
        self,
        plans: Sequence[RequestPlan],
        span: Any,
        decoded: dict[str, TilePyramid] | None = None,
    ) -> list[TileResponse]:
        """Serve already planned requests as one batch, recording onto the
        caller's open ``span`` instead of opening one.

        The router plans each request once against the global catalog and
        serves it through here, so a routed request costs one span
        (``router.request``) rather than a nested pair; the batch's
        ``n_cached``/``n_computed`` land on the caller's span.  ``decoded``
        maps product keys to pyramids the caller's wider batch has already
        decoded: their missing tiles are cut from them, with no load, and
        every pyramid decoded here is added to it.
        """
        start = time.perf_counter()

        # 1. Probe the tile cache; collect the missing tiles per product.
        served: dict[TileKey, np.ndarray] = {}
        needed: dict[str, set[TileKey]] = {}
        entries: dict[str, CatalogEntry] = {}
        for plan in plans:
            for key in plan.tile_keys:
                if key in served:
                    continue
                cached = self.tile_cache.get(key)
                if cached is not None:
                    served[key] = cached
                else:
                    entries[plan.entry.key] = plan.entry
                    needed.setdefault(plan.entry.key, set()).add(key)

        # 2. One decode per product with cache-missing tiles, unless the
        #    caller's batch has decoded the product already.
        for product_key, keys in sorted(needed.items()):
            pyramid = decoded.get(product_key) if decoded is not None else None
            if pyramid is not None:
                tiles = _cut_tiles(pyramid, sorted(keys))
            else:
                tiles = self.loader.fetch(entries[product_key], tuple(sorted(keys)), decoded)
                self._c_loads.inc()
            for key, tile in tiles.items():
                # The LRU shares each tile with every response that reads
                # it; freeze it so no consumer can write into the cache.
                tile.flags.writeable = False
                served[key] = tile
                self.tile_cache.put(key, tile)

        # 3. Assemble responses.  Cache accounting is per request against the
        #    LRU state at batch start: a tile decoded in this batch counts as
        #    *computed* for every request of the batch that needed it (two
        #    identical requests in one batch share the decode — that is the
        #    batching, not the cache); only tiles already resident count as
        #    cached.
        seconds = time.perf_counter() - start
        responses: list[TileResponse] = []
        computed_keys = {key for keys in needed.values() for key in keys}
        n_cached = n_computed_total = 0
        for plan in plans:
            n_computed = sum(1 for key in plan.tile_keys if key in computed_keys)
            responses.append(
                TileResponse(
                    request=plan.request,
                    product=plan.entry.key,
                    zoom=plan.zoom,
                    # Read-only views, shared with the LRU — never copies.
                    # Consumers that need scratch space copy at the mutation
                    # site (mosaic_array() already writes into its own array).
                    tiles={
                        (key[3], key[4]): served[key] for key in plan.tile_keys
                    },
                    n_cached=len(plan.tile_keys) - n_computed,
                    n_computed=n_computed,
                    seconds=seconds,
                    fingerprints={
                        (key[3], key[4]): self.loader.tile_fingerprint(key)
                        for key in plan.tile_keys
                    },
                    stale=self.loader.is_stale(plan.entry.key),
                )
            )
            n_cached += len(plan.tile_keys) - n_computed
            n_computed_total += n_computed
        if n_cached:
            self._c_tile_hits.inc(n_cached)
        if n_computed_total:
            self._c_tile_misses.inc(n_computed_total)
        self._c_requests.inc(len(plans))
        self._c_batches.inc()
        self._c_seconds.inc(seconds)
        self._h_batch.observe(seconds)
        span.set(n_cached=n_cached, n_computed=n_computed_total)
        return responses
