"""ServeHandle: one builder owning the serving stack's lifecycle.

``CampaignRunner.serve(products_dir)`` returns a :class:`ServeHandle` — the
single construction surface of the serve tier.  The handle owns the
catalog and builds the rest on demand:

* bare: a lazily constructed :class:`~repro.serve.query.QueryEngine` over
  the flat catalog (``handle.query(...)`` / ``handle.engine``);
* ``.with_router(...)``: hash-partition the catalog and front it with a
  :class:`~repro.serve.router.RequestRouter` (single-flight coalescing,
  admission control, quarantine);
* ``.with_ingest(...)``: attach a :class:`~repro.ingest.IngestService`
  that keeps the served mosaic live as new granules arrive, with
  dirty-tile pyramid rebuilds and targeted cache invalidation.

Builder steps return the handle, so construction chains:
``runner.serve(dir).with_router().with_ingest()``.  Every engine the
handle creates uses a :class:`~repro.serve.live.LivePyramidLoader`, so
attaching ingest later never requires rebuilding engines.  Query results
are the unified :class:`~repro.serve.query.TileResponse` whichever front
serves them.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.config import DEFAULT_SERVE, IngestConfig, RouterConfig, ServeConfig
from repro.obs.core import Obs, default_obs
from repro.serve.catalog import ProductCatalog
from repro.serve.live import LivePyramidLoader
from repro.serve.query import QueryEngine, TileKey, TileRequest, TileResponse
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

if TYPE_CHECKING:  # circular at runtime: repro.ingest builds on this module
    from repro.ingest.service import IngestReport, IngestService

__all__ = ["ServeHandle"]


class ServeHandle:
    """The serving stack behind one products directory.

    Parameters
    ----------
    catalog:
        The flat product catalog (sharded internally by ``with_router``).
    serve:
        The campaign's ``base.serve`` slice — tile geometry, cache sizes,
        nested router/ingest configs.
    products_dir:
        Where products live; required by ``with_ingest`` (the live mosaic
        is rewritten there on every merge).
    gridder:
        Optional ``spec -> Level3Grid`` hook the ingest tier uses to grid
        newly arrived granule *specs* through the cached pipeline stages
        (``CampaignRunner.serve`` wires :meth:`CampaignRunner.grid_new_granule`).
    seed_l3:
        The campaign's :class:`~repro.campaign.runner.CampaignL3Result`;
        required by ``with_ingest`` (it seeds the online accumulator).
    """

    def __init__(
        self,
        catalog: ProductCatalog,
        serve: ServeConfig = DEFAULT_SERVE,
        products_dir: str | Path | None = None,
        gridder: Callable[[Any], Any] | None = None,
        seed_l3: Any | None = None,
        obs: Obs | None = None,
    ) -> None:
        self.serve = serve
        self.products_dir = Path(products_dir) if products_dir is not None else None
        #: One telemetry handle for the whole stack the builder constructs —
        #: engine, router shards, and ingest all share it.
        self.obs = obs if obs is not None else default_obs()
        self._catalog = catalog
        self._gridder = gridder
        self._seed_l3 = seed_l3
        self._engine: QueryEngine | None = None
        self._router: RequestRouter | None = None
        self._ingest: "IngestService | None" = None

    # -- builder steps -------------------------------------------------------

    def with_router(
        self, config: RouterConfig | None = None, **router_kwargs: Any
    ) -> "ServeHandle":
        """Front the stack with a sharded single-flight router.

        Must run before the bare engine is first used and before
        ``with_ingest`` — the router owns its per-shard engines, and ingest
        installs live products into whichever front exists.  Extra keyword
        arguments (``clock``, ``execute``, ...) pass through to
        :class:`~repro.serve.router.RequestRouter`.
        """
        if self._router is not None:
            raise RuntimeError("a router is already attached to this handle")
        if self._engine is not None:
            raise RuntimeError(
                "with_router() must be called before the bare engine is used "
                "(the router owns its own per-shard engines)"
            )
        if self._ingest is not None:
            raise RuntimeError("with_router() must be called before with_ingest()")
        router_cfg = config if config is not None else self.serve.router
        serve = self.serve
        self._router = RequestRouter(
            ShardedCatalog.from_catalog(self._catalog, router_cfg.n_shards),
            serve=serve,
            config=config,
            loader_factory=lambda index: LivePyramidLoader(serve),
            **{"obs": self.obs, **router_kwargs},
        )
        return self

    def with_ingest(
        self, config: IngestConfig | None = None, **ingest_kwargs: Any
    ) -> "ServeHandle":
        """Attach the live-ingest tier: granules in, fresh tiles out.

        Requires ``products_dir`` and the campaign's L3 result (both wired
        by :meth:`CampaignRunner.serve`).  Extra keyword arguments pass
        through to :class:`~repro.ingest.IngestService` (e.g. the
        ``on_rebuild`` test hook).
        """
        from repro.ingest.service import IngestService

        if self._ingest is not None:
            raise RuntimeError("an ingest service is already attached to this handle")
        if self.products_dir is None or self._seed_l3 is None:
            raise RuntimeError(
                "with_ingest() needs the products directory and the campaign's "
                "L3 result; construct the handle via CampaignRunner.serve(...)"
            )
        self._ingest = IngestService(
            handle=self,
            seed_l3=self._seed_l3,
            config=config if config is not None else self.serve.ingest,
            gridder=self._gridder,
            **{"obs": self.obs, **ingest_kwargs},
        )
        return self

    # -- the fronts ----------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        """The bare query engine (built lazily; unavailable behind a router)."""
        if self._router is not None:
            raise RuntimeError(
                "this handle fronts a router; use handle.router (per-shard "
                "engines live at router.shards[i].engine)"
            )
        if self._engine is None:
            self._engine = QueryEngine(
                self._catalog,
                loader=LivePyramidLoader(self.serve),
                serve=self.serve,
                obs=self.obs,
            )
        return self._engine

    @property
    def router(self) -> RequestRouter:
        if self._router is None:
            raise RuntimeError("no router attached: build with handle.with_router(...)")
        return self._router

    @property
    def has_router(self) -> bool:
        return self._router is not None

    @property
    def ingest_service(self) -> "IngestService":
        if self._ingest is None:
            raise RuntimeError("no ingest attached: build with handle.with_ingest(...)")
        return self._ingest

    @property
    def front(self) -> RequestRouter | QueryEngine:
        """Whatever serves queries: the router when attached, else the engine."""
        return self._router if self._router is not None else self.engine

    # -- unified query surface ----------------------------------------------

    @property
    def catalog(self) -> ProductCatalog | ShardedCatalog:
        return self._router.catalog if self._router is not None else self._catalog

    @property
    def loader(self) -> LivePyramidLoader:
        """The bare engine's loader (per-shard loaders live on the router)."""
        loader = self.engine.loader
        assert isinstance(loader, LivePyramidLoader)
        return loader

    @property
    def stats(self) -> Any:
        return self.front.stats

    def query(self, request: TileRequest) -> TileResponse:
        """Serve one request through the current front."""
        if self._router is not None:
            return self._router.serve([request])[0]
        return self.engine.query(request)

    def query_batch(self, requests: Sequence[TileRequest]) -> list[TileResponse]:
        """Serve a batch through the current front."""
        if self._router is not None:
            return self._router.serve(list(requests))
        return self.engine.query_batch(list(requests))

    def invalidate_tiles(self, keys: Sequence[TileKey]) -> int:
        """Targeted LRU invalidation on whichever front serves queries."""
        return self.front.invalidate_tiles(keys)

    def ingest(self, granule: Any) -> "IngestReport":
        """Fold one granule (a ``Level3Grid`` or a ``GranuleSpec``) into the
        served campaign; shorthand for ``handle.ingest_service.ingest``."""
        return self.ingest_service.ingest(granule)

    def health(self) -> dict[str, object]:
        """The router health summary (requires a router front)."""
        return self.router.health()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release nothing: the serve stack holds no worker pool.

        Every engine decodes on the calling thread.  ``close()`` and the
        context-manager form let callers scope a handle
        (``with runner.serve(dir) as handle:``); it stays usable after.
        """

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
