"""The service tier: sharding, global resolution, quarantine.

:class:`RequestRouter` is the layer that turns the per-shard
:class:`~repro.serve.query.QueryEngine` into one service over a sharded
archive.  Request path, in order:

1. **Global resolution** — the request is resolved against the whole
   :class:`~repro.serve.shard.ShardedCatalog` with the *same* policy as
   the unsharded engine (:func:`~repro.serve.query.select_entry`, with
   quarantined shards excluded), so sharding never changes which product
   serves a request; the winning product names its owning shard.  The
   request is planned to tile addresses once, here, and the plan travels
   on to the shard engine.
2. **Sharded execution** — the owning shard's engine serves the request
   from its private LRU tile cache / product loader.  A shard whose loader
   keeps raising :class:`~repro.l3.writer.Level3ProductError` is
   **quarantined**: resolution routes around it (another product serves
   the region when one exists) and :meth:`RequestRouter.health` reports it.

The router serves each request to completion on the calling thread, in
order (:meth:`RequestRouter.serve`, and :meth:`RequestRouter.query` for
one request): no event loop, no executor, nothing in flight between
requests.  Request latency is read from a pluggable clock
(:mod:`repro.clock`), so tests time it exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.clock import MonotonicClock, VirtualClock
from repro.config import DEFAULT_SERVE, RouterConfig, ServeConfig
from repro.l3.writer import Level3ProductError
from repro.obs.core import Obs, default_obs
from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.pyramid import TilePyramid
from repro.serve.query import (
    ProductLoader,
    QueryEngine,
    RequestPlan,
    TileKey,
    TileRequest,
    TileResponse,
    plan_request,
    select_entry,
)
from repro.serve.shard import ShardedCatalog

__all__ = [
    "RequestRouter",
    "RouterStats",
    "Shard",
]

#: Auto-assigned ``router=rN`` metric labels keeping independent routers'
#: counter series separate on a shared (process-default) registry.
_ROUTER_IDS = itertools.count(1)


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
            # Registry-backed, so the count survives ``rebuild_shard``.
            "loads": self.engine.stats.loads,
        }


@dataclass
class RouterStats:
    """Cumulative router counters (the service-tier view, not the engine's).

    A *snapshot* dataclass: :attr:`RequestRouter.stats` assembles one from
    the registry-backed ``router_*_total`` counters on every access.
    ``shed`` and ``coalesced`` always read 0: a router serving on the
    calling thread never sheds or coalesces a request.  They stay as
    fields for readers that sum them.
    """

    requests: int = 0
    shed: int = 0
    coalesced: int = 0
    executions: int = 0
    errors: int = 0


class RequestRouter:
    """Route tile requests across shards, resolving each one globally."""

    def __init__(
        self,
        catalog: ShardedCatalog | ProductCatalog,
        serve: ServeConfig = DEFAULT_SERVE,
        config: RouterConfig | None = None,
        loader_factory: Callable[[int], ProductLoader] | None = None,
        clock: MonotonicClock | VirtualClock | None = None,
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
        self.obs = obs if obs is not None else default_obs()
        self._labels = {"router": f"r{next(_ROUTER_IDS)}"}
        self._loader_factory = loader_factory
        self.shards = tuple(
            Shard(index=index, catalog=sub, engine=self._build_engine(index, sub))
            for index, sub in enumerate(catalog.shards)
        )
        registry = self.obs.registry
        self._c_requests = registry.counter("router_requests_total", **self._labels)
        self._c_executions = registry.counter("router_executions_total", **self._labels)
        self._c_errors = registry.counter("router_errors_total", **self._labels)
        self._h_latency = registry.histogram(
            "router_request_latency_seconds", **self._labels
        )
        self._tracer = self.obs.tracer
        self._closed = False

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
            obs=self.obs,
            obs_labels={**self._labels, "shard": str(index)},
        )

    def rebuild_shard(self, index: int) -> Shard:
        """Replace one shard's engine and loader in place (quarantine repair).

        Builds a fresh engine (and, via ``loader_factory``, a fresh loader)
        and clears the shard's error /
        quarantine state so resolution routes to it again.  The shard's
        ``serve_*`` metric series carries over unchanged — the counters live
        in the obs registry keyed by ``{router, shard}``, not on the engine —
        so :attr:`Shard.engine`'s ``stats`` survives the swap.
        """
        if self._closed:
            raise RuntimeError(f"router {self._labels['router']} is closed: cannot rebuild")
        shard = self.shards[index]
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
            executions=int(self._c_executions.value),
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
        excluded = (
            frozenset(self.quarantined_shards)
            if any([shard.quarantined for shard in self.shards])
            else frozenset()
        )
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

    # -- serving -----------------------------------------------------------
    #
    # Every request opens exactly one span, ``router.request`` (attributes:
    # variable, zoom, shard, outcome ``served``/``unroutable``/``failed``).
    # The shard engine serves the request onto that same span
    # (:meth:`~repro.serve.query.QueryEngine.serve_plans`), adding its
    # ``n_cached``/``n_computed``; only real work opens children — one
    # ``loader.fetch`` per decoded product.

    def _route(self, request: TileRequest, span: Any) -> tuple[int, RequestPlan]:
        """Count one arriving request; resolve and plan it."""
        self._c_requests.inc()
        try:
            shard_id, entry = self.resolve(request)
        except LookupError:
            self._c_errors.inc()
            span.set(outcome="unroutable")
            raise
        return shard_id, plan_request(entry, request, self.serve_config)

    def _failed(self, shard: Shard, exc: BaseException) -> None:
        """Count a failed execution; quarantine a shard whose products fail."""
        self._c_errors.inc()
        if not isinstance(exc, Level3ProductError):
            return
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

    def _serve_now(
        self, request: TileRequest, decoded: dict[str, TilePyramid] | None = None
    ) -> TileResponse:
        """Serve one request to completion on the calling thread.

        ``decoded`` holds the pyramids the caller's batch has decoded so
        far, so a product is decoded once per batch however many of its
        requests miss the cache.
        """
        if self._closed:
            raise RuntimeError(f"router {self._labels['router']} is closed: cannot serve")
        with self._tracer.span(
            "router.request", variable=request.variable, zoom=request.zoom
        ) as span:
            arrived = self.clock.now()
            shard_id, plan = self._route(request, span)
            span.set(shard=shard_id)
            shard = self.shards[shard_id]
            try:
                response = shard.engine.serve_plans([plan], span, decoded)[0]
            except BaseException as exc:
                span.set(outcome="failed")
                self._failed(shard, exc)
                raise
            span.set(outcome="served")
            self._c_executions.inc()
            self._h_latency.observe(self.clock.now() - arrived)
            # The engine built this response for this request alone.
            response.shard = shard_id
            return response

    def query(self, request: TileRequest) -> TileResponse:
        """Serve one request through the service tier.

        Returns the unified :class:`TileResponse` with ``shard`` filled in.
        Raises ``LookupError`` when no healthy product matches, and
        propagates the shard engine's error when the execution fails.
        """
        return self._serve_now(request)

    def serve(self, requests: Sequence[TileRequest]) -> list[TileResponse]:
        """Serve a batch; responses come back in request order.

        Each request is served to completion on the calling thread, one
        after another, and a product is decoded at most once per batch:
        later requests cut their missing tiles from the pyramid an earlier
        one decoded.  Every request is served, then the first failure (say
        an unroutable request's ``LookupError``) propagates; use
        :meth:`query` per request to collect partial results.
        """
        responses: list[TileResponse] = []
        decoded: dict[str, TilePyramid] = {}
        first_error: Exception | None = None
        for request in requests:
            try:
                responses.append(self._serve_now(request, decoded))
            except Exception as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return responses

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

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this router's metric series from the registry; serve no more.

        Every series the router and its shard engines registered carries
        this router's ``router=`` label; they all go, so building and
        closing routers on one long-lived ``Obs`` leaves its registry the
        size it was.  A closed router raises ``RuntimeError`` on
        :meth:`query`, :meth:`serve` and :meth:`rebuild_shard`: work it
        did would count into series the registry no longer holds, and a
        rebuilt engine's ``stats`` would restart from 0.  :attr:`stats`,
        :meth:`health` and the engines' ``stats`` still read the final
        counts (the router keeps its counter objects).  An
        :class:`~repro.obs.slo.SloEvaluator` reading these series keeps
        the counts they reached: the drop is not read as a fall.  Closing
        twice is a no-op.
        """
        self._closed = True
        self.obs.registry.drop(**self._labels)

    # -- health ------------------------------------------------------------

    def health(self) -> dict[str, object]:
        """The router health summary: per-shard state plus tier counters."""
        stats = self.stats
        return {
            "shards": [shard.health_row() for shard in self.shards],
            "quarantined": list(self.quarantined_shards),
            "healthy_shards": sum(1 for shard in self.shards if not shard.quarantined),
            "requests": stats.requests,
            "executions": stats.executions,
            "errors": stats.errors,
        }
