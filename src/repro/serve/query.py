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
   its pyramid built exactly once per batch.
3. **Fan-out** — independent products of one batch fan across the existing
   :class:`~repro.distributed.mapreduce.MapReduceEngine` executors
   (serial/thread/process), the same substrate the campaign fleet uses.

The loader is pluggable and instrumented (``n_loads``, ``loaded``): tests
and the traffic simulator can assert exactly which requests caused a
decode, which is the whole point of the cache.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.config import DEFAULT_SERVE, ServeConfig
from repro.distributed.mapreduce import EXECUTORS, MapReduceEngine
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
    (``n_cached``/``n_computed``), and the service-tier flags the router
    fills in (``coalesced``, ``queue_wait_s``, ``shard``).  ``stale`` marks
    a response served from the previous product revision while a live
    ingest rebuild is in flight (stale-while-revalidate).
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
    #: Router flags: joined an identical in-flight execution / time spent
    #: waiting on it / the shard that served the request (``None`` when the
    #: response came straight from an engine, not through the router).
    coalesced: bool = False
    queue_wait_s: float = 0.0
    shard: int | None = None

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def from_cache(self) -> bool:
        """True when every tile came from the LRU (no decode, no filesystem)."""
        return self.n_computed == 0

    @property
    def service_s(self) -> float:
        """Execution time of the underlying engine work."""
        return self.seconds

    @property
    def latency_s(self) -> float:
        """End-to-end request latency: queue wait plus service time."""
        return self.queue_wait_s + self.seconds

    @property
    def response(self) -> "TileResponse":
        """Self — compatibility with the pre-unification ``RoutedResponse``
        wrapper, whose consumers reached the engine payload via
        ``routed.response``.  New code should use the fields directly."""
        return self

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
    by a lock: the engine's thread executor calls :meth:`load` from
    concurrent workers, and an unsynchronized ``+=`` would undercount.
    Subclass and override :meth:`decode` to serve from other storage.
    """

    def __init__(
        self,
        serve: ServeConfig = DEFAULT_SERVE,
        backend: str | None = None,
        obs: Obs | None = None,
    ) -> None:
        self.serve = serve
        self.backend = backend
        self.n_loads = 0
        self.loaded: list[str] = []
        self._lock = threading.Lock()
        self._obs = obs

    @property
    def obs(self) -> Obs:
        """The telemetry handle (the owning engine wires its own in)."""
        return self._obs if self._obs is not None else default_obs()

    def __getstate__(self) -> dict[str, Any]:
        # Locks cannot cross process boundaries; worker-side copies get a
        # fresh one (their counters live and die in the worker anyway).
        # The obs handle stays behind too — its tracer holds a contextvar —
        # so worker-side fetches fall back to the worker's default obs.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_obs"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def decode(self, entry: CatalogEntry) -> TilePyramid:
        product = read_level3(entry.base_path)
        return build_pyramid(product, serve=self.serve, backend=self.backend)

    def load(self, entry: CatalogEntry) -> TilePyramid:
        with self._lock:
            self.n_loads += 1
            self.loaded.append(entry.key)
        return self.decode(entry)

    def fetch(
        self, entry: CatalogEntry, needed: Sequence[TileKey]
    ) -> dict[TileKey, np.ndarray]:
        """The requested tiles of one product, decoding only what's required.

        Counts as exactly one load either way.  Base-resolution requests
        against raw-format products take the **windowed read** fast path:
        the blob is memory-mapped and each tile is a read-only view of its
        own window, so the decode touches one tile's worth of pages — no
        archive inflation, no pyramid build.  Everything else (npz
        products, overview zooms, live in-memory products) decodes the full
        pyramid as before.
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
            return {
                key: pyramid.tile(key[1], key[2], key[3], key[4]) for key in needed
            }

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


class _ProductFetchTask:
    """Picklable map function: decode one chunk of products, cut their tiles.

    Each item is ``(entry, needed)`` with ``needed`` the sorted tile keys to
    extract.  Returns ``(key, tiles, n_loads)`` triples so the driver can
    fold worker-side loads into its own accounting even under the process
    executor (where loader counters live and die in the worker).  Every
    ``fetch()`` call is exactly one decode, so the count is the constant 1 —
    never a delta of the shared loader's counter, which concurrent thread
    partitions would race on.
    """

    def __init__(self, loader: ProductLoader) -> None:
        self.loader = loader

    def __call__(
        self, items: Sequence[tuple[CatalogEntry, tuple[TileKey, ...]]]
    ) -> list[tuple[str, dict[TileKey, np.ndarray], int]]:
        out: list[tuple[str, dict[TileKey, np.ndarray], int]] = []
        for entry, needed in items:
            out.append((entry.key, self.loader.fetch(entry, needed), 1))
        return out


def _merge_fetches(
    chunks: list[list[tuple[str, dict[TileKey, np.ndarray], int]]],
) -> list[tuple[str, dict[TileKey, np.ndarray], int]]:
    return [item for chunk in chunks for item in chunk]


@dataclass
class _RequestPlan:
    """One request resolved to a product and concrete tile addresses."""

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


def plan_request(entry: CatalogEntry, request: TileRequest, serve: ServeConfig) -> _RequestPlan:
    """Resolve one request against one product to concrete tile addresses.

    Pure geometry from catalog metadata — no decode.  The zoom is clamped
    to the product's pyramid depth; the resulting ``tile_keys`` are the
    fingerprint-based cache keys, which double as the router's
    single-flight identity (two requests whose bboxes cover the same tiles
    of the same product coalesce even if the bboxes differ).
    """
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
    keys = tuple(
        (entry.key, request.variable, zoom, row, col) for row, col in addresses
    )
    return _RequestPlan(request=request, entry=entry, zoom=zoom, tile_keys=keys)


class QueryEngine:
    """Serve tile requests over a :class:`~repro.serve.catalog.ProductCatalog`.

    Telemetry: a direct :meth:`query_batch` call runs inside an
    ``engine.query_batch`` span, while :meth:`query_batch_in` records onto
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
        n_workers: int = 1,
        executor: str = "serial",
        obs: Obs | None = None,
        obs_labels: Mapping[str, str] | None = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
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
        self.n_workers = n_workers
        self.executor = executor
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
        # One persistent fan-out engine for the engine's lifetime: the worker
        # pool spawns once, not once per batch.  Width adapts per batch via
        # the n_partitions override; single-product batches run inline.
        self._engine = MapReduceEngine(
            n_partitions=n_workers,
            executor=executor if n_workers > 1 else "serial",
            max_workers=n_workers,
            obs=self.obs,
        )

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

    def close(self) -> None:
        """Release the fan-out worker pool (idempotent; respawns on reuse)."""
        self._engine.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- resolution --------------------------------------------------------

    def resolve(self, request: TileRequest) -> CatalogEntry:
        """The product that serves one request (:func:`select_entry` policy)."""
        candidates = self.catalog.query(bbox=request.bbox, variable=request.variable)
        return select_entry(candidates, request)

    def _plan(self, request: TileRequest) -> _RequestPlan:
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
        per batch, however many requests need it — and independent products
        fan across the map-reduce engine.
        """
        with self.obs.span(
            "engine.query_batch", n_requests=len(requests)
        ) as span:
            return self.query_batch_in(requests, span)

    def query_batch_in(
        self, requests: Sequence[TileRequest], span: Any
    ) -> list[TileResponse]:
        """Serve a batch exactly as :meth:`query_batch` does, recording onto
        the caller's open ``span`` instead of opening one.

        The router serves each routed request through here, so a request
        costs one span (``router.request``) rather than a nested pair; the
        batch's ``n_cached``/``n_computed`` land on the caller's span.
        """
        start = time.perf_counter()
        plans = [self._plan(request) for request in requests]

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

        # 2. One decode per product with cache-missing tiles; independent
        #    products fan across the executors.
        if needed:
            work = [
                (entries[product_key], tuple(sorted(keys)))
                for product_key, keys in sorted(needed.items())
            ]
            fetched = self._engine.run(
                lambda: work,
                _ProductFetchTask(self.loader),
                _merge_fetches,
                n_partitions=max(min(self.n_workers, len(work)), 1),
            )
            for _, tiles, n_loads in fetched.value:
                self._c_loads.inc(n_loads)
                for key, tile in tiles.items():
                    # Tiles that crossed a process boundary unpickled as
                    # fresh writeable arrays; freeze so every cached/served
                    # tile is immutable whatever the executor.
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
        self._c_requests.inc(len(requests))
        self._c_batches.inc()
        self._c_seconds.inc(seconds)
        self._h_batch.observe(seconds)
        span.set(n_cached=n_cached, n_computed=n_computed_total)
        return responses
