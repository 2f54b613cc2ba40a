"""The async service tier: sharding, single-flight, admission control, prefetch.

:class:`RequestRouter` is the layer that turns the synchronous in-process
:class:`~repro.serve.query.QueryEngine` into a service able to face heavy
traffic.  Request path, in order:

1. **Global resolution** — the request is resolved against the whole
   :class:`~repro.serve.shard.ShardedCatalog` with the *same* policy as
   the unsharded engine (:func:`~repro.serve.query.select_entry`, with
   quarantined shards excluded), so sharding never changes which product
   serves a request; the winning product names its owning shard.
2. **Single-flight coalescing** — the request's planned tile keys (the
   tile fingerprints) are its flight identity: if an identical query is
   already executing, the new request parks on the same future and shares
   the one underlying tile build.  K identical concurrent queries cost
   exactly one decode, however large K is.
3. **Admission control** — distinct (non-coalescable) executions are
   bounded by a queue-depth watermark; beyond it requests are shed
   *immediately* with :class:`RouterOverloadedError` carrying a
   ``Retry-After`` hint, instead of queueing into latency collapse.
   Coalesced joiners never count against the watermark — they add no work.
4. **Sharded execution** — the owning shard's engine serves the request
   from its private LRU tile cache / product loader.  A shard whose loader
   keeps raising :class:`~repro.l3.writer.Level3ProductError` is
   **quarantined**: resolution routes around it (another product serves
   the region when one exists) and :meth:`RequestRouter.health` reports it.

A background **prefetcher** watches the observed popularity distribution
(the Zipf head the traffic simulator models) and periodically re-executes
the hottest flight keys, keeping their tiles warm in the shard caches;
client requests arriving mid-refresh coalesce onto the refresh.

Everything time-dependent goes through the pluggable clock
(:mod:`repro.clock`), and the underlying execution is an injectable
async hook — which is how the deterministic concurrency tests drive
thousands of concurrent requests through a real event loop with zero real
sleeps.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Hashable, Sequence

from repro.clock import MonotonicClock, VirtualClock, run_sync
from repro.config import DEFAULT_SERVE, RouterConfig, ServeConfig
from repro.l3.writer import Level3ProductError
from repro.obs.core import Obs, default_obs
from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.query import (
    ProductLoader,
    QueryEngine,
    TileKey,
    TileRequest,
    TileResponse,
    plan_request,
    select_entry,
)
from repro.serve.shard import ShardedCatalog

__all__ = [
    "ExecuteHook",
    "RequestRouter",
    "RoutedResponse",
    "RouterOverloadedError",
    "RouterStats",
    "Shard",
]

#: Async execution hook: ``(shard, request) -> TileResponse``.  Without one
#: the router calls the shard engine synchronously on the event loop; tests
#: inject virtual-clock implementations to model service time
#: deterministically.
ExecuteHook = Callable[["Shard", TileRequest], Awaitable[TileResponse]]

#: Auto-assigned ``router=rN`` metric labels keeping independent routers'
#: counter series separate on a shared (process-default) registry.
_ROUTER_IDS = itertools.count(1)


class RouterOverloadedError(RuntimeError):
    """Fast 503-style rejection: the router is past its queue watermark.

    Carries the ``Retry-After`` hint a fronting HTTP layer would serialize;
    shedding is *immediate* (no queue time is spent before rejection).
    """

    def __init__(self, depth: int, max_queue_depth: int, retry_after_s: float) -> None:
        super().__init__(
            f"router overloaded: {depth} executions in flight "
            f"(watermark {max_queue_depth}); Retry-After: {retry_after_s:.3f}s"
        )
        self.depth = depth
        self.max_queue_depth = max_queue_depth
        self.retry_after_s = retry_after_s


@dataclass
class Shard:
    """One serving shard: a sub-catalog, its engine, and health state."""

    index: int
    catalog: ProductCatalog
    engine: QueryEngine
    errors: int = 0
    quarantined: bool = False

    def health_row(self) -> dict[str, object]:
        return {
            "shard": self.index,
            "products": len(self.catalog),
            "errors": self.errors,
            "quarantined": self.quarantined,
            "cached_tiles": len(self.engine.tile_cache),
            "loads": self.engine.loader.n_loads,
        }


@dataclass
class RouterStats:
    """Cumulative router counters (the service-tier view, not the engine's).

    A *snapshot* dataclass: :attr:`RequestRouter.stats` assembles one from
    the registry-backed ``router_*_total`` counters on every access.
    """

    requests: int = 0
    shed: int = 0
    coalesced: int = 0
    executions: int = 0
    prefetch_refreshes: int = 0
    errors: int = 0

    @property
    def admitted(self) -> int:
        return self.requests - self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def coalescing_ratio(self) -> float:
        """Fraction of admitted requests that shared another request's work."""
        return self.coalesced / self.admitted if self.admitted else 0.0

    def snapshot(self) -> "RouterStats":
        return replace(self)


#: The router returns the same unified :class:`TileResponse` the engine
#: does, with the service-tier fields (``shard``, ``coalesced``,
#: ``queue_wait_s``) filled in.  ``RoutedResponse`` survives as an alias of
#: the pre-unification wrapper name; its old attribute surface
#: (``.response``, ``.service_s``, ``.latency_s``) lives on as properties
#: of :class:`TileResponse`.  Coalesced joiners get their own response
#: object but *share* the executing request's tiles dict — treat it
#: read-only.
RoutedResponse = TileResponse


@dataclass
class _Flight:
    """One in-flight execution; identical requests park on the future."""

    future: asyncio.Future
    shard: int
    prefetch: bool = False
    started: float = 0.0


@dataclass
class _PrefetchState:
    """Popularity accounting feeding the hot-tile prefetcher."""

    popularity: Counter = field(default_factory=Counter)
    requests: dict[Hashable, TileRequest] = field(default_factory=dict)


class RequestRouter:
    """Route tile requests across shards with coalescing and admission control."""

    def __init__(
        self,
        catalog: ShardedCatalog | ProductCatalog,
        serve: ServeConfig = DEFAULT_SERVE,
        config: RouterConfig | None = None,
        loader_factory: Callable[[int], ProductLoader] | None = None,
        n_workers: int = 1,
        executor: str = "serial",
        clock: MonotonicClock | VirtualClock | None = None,
        execute: ExecuteHook | None = None,
        obs: Obs | None = None,
    ) -> None:
        self.config = config if config is not None else serve.router
        if isinstance(catalog, ProductCatalog):
            catalog = ShardedCatalog.from_catalog(catalog, self.config.n_shards)
        elif catalog.n_shards != self.config.n_shards:
            # The physical partition wins: a config written for a different
            # shard count must not silently mis-route.
            self.config = replace(self.config, n_shards=catalog.n_shards)
        self.catalog = catalog
        self.serve_config = serve
        self.clock = clock if clock is not None else MonotonicClock()
        self._execute: ExecuteHook | None = execute
        self.obs = obs if obs is not None else default_obs()
        self._labels = {"router": f"r{next(_ROUTER_IDS)}"}
        self._loader_factory = loader_factory
        self._n_workers = n_workers
        self._executor = executor
        self.shards = tuple(
            Shard(index=index, catalog=sub, engine=self._build_engine(index, sub))
            for index, sub in enumerate(catalog.shards)
        )
        registry = self.obs.registry
        self._c_requests = registry.counter("router_requests_total", **self._labels)
        self._c_shed = registry.counter("router_shed_total", **self._labels)
        self._c_coalesced = registry.counter("router_coalesced_total", **self._labels)
        self._c_executions = registry.counter("router_executions_total", **self._labels)
        self._c_prefetch = registry.counter(
            "router_prefetch_refreshes_total", **self._labels
        )
        self._c_errors = registry.counter("router_errors_total", **self._labels)
        self._h_latency = registry.histogram(
            "router_request_latency_seconds", **self._labels
        )
        self._h_queue_wait = registry.histogram(
            "router_queue_wait_seconds", **self._labels
        )
        self._g_depth = registry.gauge("router_depth", **self._labels)
        self._tracer = self.obs.tracer
        self._flights: dict[Hashable, _Flight] = {}
        self._depth = 0
        self._prefetch = _PrefetchState()
        self._prefetch_task: asyncio.Task | None = None

    def _build_engine(self, index: int, sub: ProductCatalog) -> QueryEngine:
        """One shard engine, its metrics labelled ``{router, shard}``.

        The labels are the stats-survival contract: a rebuilt engine
        (:meth:`rebuild_shard`) re-requests the same counters from the
        registry and keeps accumulating where its predecessor stopped.
        """
        return QueryEngine(
            sub,
            loader=(
                self._loader_factory(index)
                if self._loader_factory is not None
                else ProductLoader(self.serve_config)
            ),
            serve=self.serve_config,
            n_workers=self._n_workers,
            executor=self._executor,
            obs=self.obs,
            obs_labels={**self._labels, "shard": str(index)},
        )

    def rebuild_shard(self, index: int) -> Shard:
        """Replace one shard's engine and loader in place (quarantine repair).

        Closes the old engine's worker pool, builds a fresh engine (and, via
        ``loader_factory``, a fresh loader), and clears the shard's error /
        quarantine state so resolution routes to it again.  The shard's
        ``serve_*`` metric series carries over unchanged — the counters live
        in the obs registry keyed by ``{router, shard}``, not on the engine —
        so :attr:`Shard.engine`'s ``stats`` survives the swap.
        """
        shard = self.shards[index]
        shard.engine.close()
        shard.engine = self._build_engine(index, shard.catalog)
        shard.errors = 0
        shard.quarantined = False
        self.obs.log.info("router.shard_rebuilt", shard=index, **self._labels)
        return shard

    @property
    def stats(self) -> RouterStats:
        """Snapshot of the registry-backed counters as a :class:`RouterStats`."""
        return RouterStats(
            requests=int(self._c_requests.value),
            shed=int(self._c_shed.value),
            coalesced=int(self._c_coalesced.value),
            executions=int(self._c_executions.value),
            prefetch_refreshes=int(self._c_prefetch.value),
            errors=int(self._c_errors.value),
        )

    # -- resolution --------------------------------------------------------

    @property
    def quarantined_shards(self) -> tuple[int, ...]:
        return tuple(shard.index for shard in self.shards if shard.quarantined)

    def resolve(self, request: TileRequest) -> tuple[int, CatalogEntry]:
        """The (shard, product) serving one request, skipping quarantine.

        Identical policy to the unsharded engine
        (:func:`~repro.serve.query.select_entry` over global registration
        order) — except that products on quarantined shards are invisible,
        so a region covered by more than one product keeps being served
        when one shard degrades.
        """
        excluded = frozenset(self.quarantined_shards)
        candidates = self.catalog.query(
            bbox=request.bbox, variable=request.variable, exclude_shards=excluded
        )
        try:
            entry = select_entry(candidates, request)
        except LookupError:
            if excluded:
                raise LookupError(
                    f"no healthy product serves variable {request.variable!r} over "
                    f"bbox {request.bbox}: shards {sorted(excluded)} are quarantined"
                ) from None
            raise
        return self.catalog.shard_of(entry.key), entry

    def flight_key(self, request: TileRequest) -> tuple[int, Hashable]:
        """The (shard, single-flight identity) of one request.

        The identity is the planned tile-fingerprint set — two requests
        whose bboxes cover the same tiles of the same product at the same
        zoom coalesce even when the bboxes differ.
        """
        shard, entry = self.resolve(request)
        plan = plan_request(entry, request, self.serve_config)
        if plan.tile_keys:
            return shard, plan.tile_keys
        return shard, (entry.key, request.variable, plan.zoom, request.bbox)

    # -- serving -----------------------------------------------------------

    async def query(self, request: TileRequest) -> TileResponse:
        """Serve one request through the service tier.

        Returns the unified :class:`TileResponse` with the service-tier
        fields (``shard``, ``coalesced``, ``queue_wait_s``) filled in.
        Raises :class:`RouterOverloadedError` when shed, ``LookupError``
        when no healthy product matches, and propagates the underlying
        engine error (to every coalesced waiter) when execution fails.

        Every request opens exactly one span, ``router.request`` (attributes:
        variable, zoom, shard, coalesced, outcome
        ``served``/``shed``/``unroutable``).  The shard engine serves an
        executing request onto that same span
        (:meth:`~repro.serve.query.QueryEngine.query_batch_in`), adding its
        ``n_cached``/``n_computed``; only real work opens children — a
        decode's ``mapreduce.run`` and ``loader.fetch`` below it.
        """
        with self._tracer.span(
            "router.request", variable=request.variable, zoom=request.zoom
        ) as span:
            return await self._query(request, span)

    async def _query(self, request: TileRequest, span) -> TileResponse:
        arrived = self.clock.now()
        self._c_requests.inc()
        try:
            shard_id, key = self.flight_key(request)
        except LookupError:
            self._c_errors.inc()
            span.set(outcome="unroutable")
            raise
        self._prefetch.popularity[key] += 1
        self._prefetch.requests[key] = request

        flight = self._flights.get(key)
        if flight is not None:
            self._c_coalesced.inc()
            span.set(shard=flight.shard, coalesced=True, outcome="served")
            response = await asyncio.shield(flight.future)
            return self._routed(request, response, flight.shard, arrived, coalesced=True)

        if self._depth >= self.config.max_queue_depth:
            self._c_shed.inc()
            span.set(outcome="shed", depth=self._depth)
            # Dedup keeps an overload burst to one ring slot per window.
            self.obs.log.warning(
                "router.shed",
                depth=self._depth,
                max_queue_depth=self.config.max_queue_depth,
                **self._labels,
            )
            raise RouterOverloadedError(
                depth=self._depth,
                max_queue_depth=self.config.max_queue_depth,
                retry_after_s=self.config.retry_after_s,
            )

        span.set(shard=shard_id, coalesced=False, outcome="served")
        response = await self._fly(key, shard_id, request, prefetch=False, span=span)
        return self._routed(request, response, shard_id, arrived, coalesced=False)

    async def _fly(
        self,
        key: Hashable,
        shard_id: int,
        request: TileRequest,
        prefetch: bool,
        span: Any = None,
    ) -> TileResponse:
        """Run one underlying execution with the flight registered under ``key``.

        Without an execute hook the shard engine serves the request inline,
        onto the request's ``span``; a prefetch refresh has no request span,
        so the engine opens its own ``engine.query_batch``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # Retrieve the exception even when nobody coalesced onto the flight,
        # so a failed execution never logs "exception was never retrieved".
        future.add_done_callback(
            lambda fut: fut.exception() if not fut.cancelled() else None
        )
        shard = self.shards[shard_id]
        self._flights[key] = _Flight(
            future=future, shard=shard_id, prefetch=prefetch, started=self.clock.now()
        )
        self._depth += 1
        self._g_depth.set(self._depth)
        try:
            if self._execute is not None:
                response = await self._execute(shard, request)
            elif span is not None:
                response = shard.engine.query_batch_in([request], span)[0]
            else:
                response = shard.engine.query(request)
        except BaseException as exc:
            self._note_failure(shard, exc)
            if not future.done():
                future.set_exception(exc)
            raise
        else:
            self._c_executions.inc()
            if prefetch:
                self._c_prefetch.inc()
            if not future.done():
                future.set_result(response)
            return response
        finally:
            del self._flights[key]
            self._depth -= 1
            self._g_depth.set(self._depth)

    def _note_failure(self, shard: Shard, exc: BaseException) -> None:
        self._c_errors.inc()
        if isinstance(exc, Level3ProductError):
            shard.errors += 1
            if shard.errors >= self.config.quarantine_errors and not shard.quarantined:
                shard.quarantined = True
                self.obs.log.error(
                    "router.shard_quarantined",
                    shard=shard.index,
                    errors=shard.errors,
                    cause=type(exc).__name__,
                    **self._labels,
                )

    def _routed(
        self,
        request: TileRequest,
        response: TileResponse,
        shard: int,
        arrived: float,
        coalesced: bool,
    ) -> TileResponse:
        elapsed = self.clock.now() - arrived
        service = response.seconds
        queue_wait = max(elapsed - service, 0.0)
        self._h_latency.observe(elapsed)
        self._h_queue_wait.observe(queue_wait)
        # Each caller (including every coalesced joiner) gets its own
        # response object with its own timing, sharing the executing
        # request's tiles/fingerprints dicts.
        return replace(
            response,
            request=request,
            shard=shard,
            coalesced=coalesced,
            queue_wait_s=queue_wait,
        )

    def serve(self, requests: Sequence[TileRequest]) -> list[TileResponse]:
        """Synchronous convenience: serve a batch concurrently on a fresh loop.

        Shed requests propagate their :class:`RouterOverloadedError`; use
        :meth:`query` directly (with ``asyncio.gather(...,
        return_exceptions=True)``) to collect partial results under load.
        """

        async def _run() -> list[TileResponse]:
            return list(await asyncio.gather(*(self.query(req) for req in requests)))

        return run_sync(_run())

    # -- live invalidation ---------------------------------------------------

    def invalidate_tiles(self, keys: Sequence[TileKey]) -> int:
        """Drop exactly the given tiles from the owning shards' LRU caches.

        Keys are grouped by product and routed to the shard that owns each
        product (unknown products are ignored — the tile cannot be cached
        anywhere).  Returns how many tiles were actually resident.  This is
        the router half of the ingest tier's dirty-tile invalidation:
        untouched tiles on every shard stay warm.
        """
        dropped = 0
        by_shard: dict[int, list[TileKey]] = {}
        for key in keys:
            try:
                shard_id = self.catalog.shard_of(key[0])
            except KeyError:
                continue
            by_shard.setdefault(shard_id, []).append(key)
        for shard_id, shard_keys in by_shard.items():
            dropped += self.shards[shard_id].engine.invalidate_tiles(shard_keys)
        return dropped

    # -- prefetch ----------------------------------------------------------

    async def prefetch_once(self) -> int:
        """Refresh the hottest flight keys; returns how many were refreshed.

        Skips keys already in flight (clients coalesce onto those anyway)
        and keys whose resolution changed since they were recorded (the
        popularity entry is stale).  Prefetch executions bypass admission —
        they are background work and never steal a client's slot — and do
        not count as requests, but clients arriving mid-refresh coalesce
        onto the refresh future like onto any other flight.
        """
        if self.config.prefetch_top_k < 1:
            return 0
        refreshed = 0
        for key, _ in self._prefetch.popularity.most_common(self.config.prefetch_top_k):
            if key in self._flights:
                continue
            request = self._prefetch.requests.get(key)
            if request is None:
                continue
            try:
                shard_id, current_key = self.flight_key(request)
            except LookupError:
                continue
            if current_key != key:
                self._prefetch.popularity.pop(key, None)
                self._prefetch.requests.pop(key, None)
                continue
            try:
                await self._fly(key, shard_id, request, prefetch=True)
            except Exception:
                continue  # failure already recorded by _note_failure
            refreshed += 1
        return refreshed

    def start_prefetcher(self) -> asyncio.Task:
        """Start the background refresh loop (requires a running loop)."""
        if self._prefetch_task is not None and not self._prefetch_task.done():
            return self._prefetch_task

        async def _loop() -> None:
            while True:
                await self.clock.sleep(self.config.prefetch_interval_s)
                await self.prefetch_once()

        self._prefetch_task = asyncio.get_running_loop().create_task(_loop())
        return self._prefetch_task

    async def stop_prefetcher(self) -> None:
        task, self._prefetch_task = self._prefetch_task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "RequestRouter":
        self.start_prefetcher()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop_prefetcher()

    # -- health ------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Distinct executions currently in flight (prefetch included)."""
        return self._depth

    def health(self) -> dict[str, object]:
        """The router health summary: per-shard state plus tier counters."""
        stats = self.stats
        return {
            "shards": [shard.health_row() for shard in self.shards],
            "quarantined": list(self.quarantined_shards),
            "healthy_shards": sum(1 for shard in self.shards if not shard.quarantined),
            "depth": self._depth,
            "requests": stats.requests,
            "shed": stats.shed,
            "shed_rate": round(stats.shed_rate, 4),
            "coalesced": stats.coalesced,
            "coalescing_ratio": round(stats.coalescing_ratio, 4),
            "executions": stats.executions,
            "prefetch_refreshes": stats.prefetch_refreshes,
            "errors": stats.errors,
        }
