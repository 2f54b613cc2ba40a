"""ServeHandle: one builder owning the serving stack's lifecycle.

``CampaignRunner.serve(products_dir)`` returns a :class:`ServeHandle` — the
single construction surface of the serve tier.  Every query goes through
one :class:`~repro.serve.router.RequestRouter`, which the handle builds on
first use from the campaign's ``serve.router`` config: the first query,
the first ``catalog``/``stats``/``health()``/``router``/
``invalidate_tiles`` access, or ``with_ingest``.  Left unconfigured that is
``RouterConfig()``'s 4 shards, each with its own engine and its own LRU of
``serve.tile_cache_size`` tiles; ``RouterConfig(n_shards=1)`` is the
unsharded case.  Builder steps:

* ``.with_router(config)``: set the config of the router built on first
  use (a second call before then replaces the first);
* ``.with_ingest(...)``: attach a :class:`~repro.ingest.IngestService`
  that keeps the served mosaic live as new granules arrive, with
  dirty-tile pyramid rebuilds and targeted cache invalidation.

Builder steps return the handle, so construction chains:
``runner.serve(dir).with_router().with_ingest()``.  Every shard engine the
router builds uses a :class:`~repro.serve.live.LivePyramidLoader`, so
attaching ingest never requires rebuilding engines.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.config import DEFAULT_SERVE, IngestConfig, RouterConfig, ServeConfig
from repro.obs.core import Obs, default_obs
from repro.serve.catalog import ProductCatalog
from repro.serve.live import LivePyramidLoader
from repro.serve.query import TileKey, TileRequest, TileResponse
from repro.serve.router import RequestRouter, RouterStats
from repro.serve.shard import ShardedCatalog

if TYPE_CHECKING:  # circular at runtime: repro.ingest builds on this module
    from repro.ingest.service import IngestReport, IngestService

__all__ = ["ServeHandle"]


class ServeHandle:
    """The serving stack behind one products directory.

    Parameters
    ----------
    catalog:
        The flat product catalog (hash-partitioned by the router).
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
        #: router, shard engines, and ingest all share it.
        self.obs = obs if obs is not None else default_obs()
        self._catalog = catalog
        self._gridder = gridder
        self._seed_l3 = seed_l3
        self._router_config: RouterConfig | None = None
        self._router: RequestRouter | None = None
        self._ingest: "IngestService | None" = None
        self._closed = False

    # -- builder steps -------------------------------------------------------

    def with_router(self, config: RouterConfig | None = None) -> "ServeHandle":
        """Configure the router the handle builds on first use.

        ``config`` replaces the ``serve.router`` slice.  The router is built on
        first use (any query, ``catalog``/``stats``/``health()``/``router``/
        ``invalidate_tiles`` access, or ``with_ingest``), so this must come
        before that; a later call before then replaces an earlier one.
        """
        if self._router is not None:
            raise RuntimeError(
                "a router is already attached to this handle: with_router() must "
                "come before the router is first used: before the first query, "
                "catalog/stats/health/router/invalidate_tiles access, and with_ingest()"
            )
        self._router_config = config
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

    # -- the stack -----------------------------------------------------------

    @property
    def router(self) -> RequestRouter:
        """The router every query goes through (built on first use)."""
        if self._router is None:
            if self._closed:
                raise RuntimeError("this serve handle is closed: build a new one to serve")
            serve = self.serve
            self._router = RequestRouter(
                self._catalog,
                serve=serve,
                config=self._router_config,
                loader_factory=lambda index: LivePyramidLoader(serve),
                obs=self.obs,
            )
        return self._router

    @property
    def ingest_service(self) -> "IngestService":
        if self._ingest is None:
            raise RuntimeError("no ingest attached: build with handle.with_ingest(...)")
        return self._ingest

    @property
    def catalog(self) -> ShardedCatalog:
        return self.router.catalog

    @property
    def stats(self) -> RouterStats:
        return self.router.stats

    def query(self, request: TileRequest) -> TileResponse:
        """Serve one request through the router."""
        return self.router.serve([request])[0]

    def query_batch(self, requests: Sequence[TileRequest]) -> list[TileResponse]:
        """Serve a batch through the router, responses in request order."""
        return self.router.serve(requests)

    def invalidate_tiles(self, keys: Sequence[TileKey]) -> int:
        """Targeted LRU invalidation on the owning shards."""
        return self.router.invalidate_tiles(keys)

    def ingest(self, granule: Any) -> "IngestReport":
        """Fold one granule (a ``Level3Grid`` or a ``GranuleSpec``) into the
        served campaign; shorthand for ``handle.ingest_service.ingest``."""
        return self.ingest_service.ingest(granule)

    def health(self) -> dict[str, object]:
        """The router health summary."""
        return self.router.health()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the router's metric series, if a router was built.

        The serve stack holds no worker pool: every engine decodes on the
        calling thread, so the only state to release is telemetry
        (:meth:`RequestRouter.close`).  ``close()`` and the context-manager
        form let callers scope a handle (``with runner.serve(dir) as
        handle:``).  A closed handle serves nothing: queries raise
        ``RuntimeError``, while ``stats`` and ``health()`` of a router
        built before the close still read its final counts.
        """
        self._closed = True
        if self._router is not None:
            self._router.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
