"""The ingest service: one granule in, fresh tiles out, nothing else touched.

Lifecycle of one :meth:`IngestService.ingest` call:

1. **Grid** — a :class:`~repro.campaign.runner.GranuleSpec` is gridded via
   the handle's ``gridder`` hook (:meth:`CampaignRunner.grid_new_granule`,
   which runs the curation → inference → retrieval → gridding graph with
   every stage content-cached); a ready :class:`~repro.l3.product.Level3Grid`
   is accepted as-is.
2. **Merge** — :meth:`MosaicAccumulator.add <repro.l3.merge.MosaicAccumulator.add>`
   folds the granule into the online mosaic and reports the dirty flat cell
   indices.  The merged mosaic is byte-identical to a batch
   :meth:`~repro.l3.processor.Level3Processor.mosaic` over the same fleet
   (``IngestConfig.verify_merge`` cross-checks this on every ingest).
3. **Rebuild** — the product is marked stale (responses served meanwhile
   carry ``stale=True`` — stale-while-revalidate), then
   :class:`~repro.serve.live.IncrementalPyramidBuilder` rebuilds exactly
   the tiles overlapping the dirty cells, at every zoom level.
4. **Publish** — the refreshed mosaic (and optionally the granule product)
   is written to the products directory and appended to the catalog with
   :meth:`~repro.serve.catalog.ProductCatalog.append` (no directory
   re-scan); only the rebuilt tiles' cache entries are invalidated, so
   untouched tiles keep serving from the LRU; the stale flag clears.

The served mosaic keeps one **stable key** (``live:<campaign fingerprint>``)
across ingests, so cached tiles of untouched regions stay addressable —
freshness is tracked per tile region by the revision-suffixed fingerprints
of :class:`~repro.serve.live.LivePyramidLoader`, not by key churn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.config import DEFAULT_INGEST, IngestConfig
from repro.obs.core import Obs, default_obs
from repro.l3.merge import MosaicAccumulator
from repro.l3.processor import Level3Processor
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.serve.live import IncrementalPyramidBuilder, LivePyramidLoader, TileAddress
from repro.serve.pyramid import build_pyramid
from repro.serve.query import TileKey

if TYPE_CHECKING:  # circular at runtime: the handle constructs this service
    from repro.serve.handle import ServeHandle

__all__ = ["IngestReport", "IngestService"]


@dataclass(frozen=True)
class IngestReport:
    """What one ingest did: the receipt the caller can assert against."""

    #: Id of the merged granule.
    granule_id: str
    #: How many base-grid cells the granule observed (the dirty footprint).
    n_dirty_cells: int
    #: Every pyramid tile rebuilt, as (zoom, tile_row, tile_col) — nothing
    #: outside this set was recomputed.
    rebuilt_tiles: tuple[TileAddress, ...]
    #: Cached tiles dropped from the serving LRU (≤ rebuilt tiles × variables).
    n_invalidated: int
    #: Fleet size after the merge.
    n_granules: int
    #: Product base paths (re)written under the products directory.
    products: tuple[str, ...]
    #: Wall-clock seconds for the whole ingest (gridding included).
    seconds: float


class IngestService:
    """Keep one served campaign mosaic live as granules arrive.

    Constructed by :meth:`ServeHandle.with_ingest`, which wires the serving
    stack, the campaign's seed L3 result, and the gridder hook.  On
    construction the service replays the seed fleet through the online
    accumulator, republishes the mosaic under its stable live key, and
    installs the in-memory pyramid into the owning shard's
    :class:`~repro.serve.live.LivePyramidLoader` — from then on every
    :meth:`ingest` is incremental.

    Parameters
    ----------
    handle:
        The owning :class:`~repro.serve.handle.ServeHandle`.
    seed_l3:
        The campaign's :class:`~repro.campaign.runner.CampaignL3Result`.
    config:
        The :class:`~repro.config.IngestConfig` slice.
    gridder:
        ``spec -> Level3Grid`` hook for ingesting granule *specs*; ``None``
        restricts :meth:`ingest` to ready :class:`~repro.l3.product.Level3Grid`
        inputs.
    on_rebuild:
        Test hook called between the stale mark and the tile rebuild —
        queries issued inside it observe the stale-while-revalidate window
        deterministically (single-threaded, no sleeps).
    """

    def __init__(
        self,
        handle: "ServeHandle",
        seed_l3: Any,
        config: IngestConfig = DEFAULT_INGEST,
        gridder: Callable[[Any], Level3Grid] | None = None,
        on_rebuild: Callable[["IngestService"], None] | None = None,
        obs: Obs | None = None,
    ) -> None:
        if handle.products_dir is None:
            raise ValueError("the serve handle has no products directory")
        self.handle = handle
        self.config = config
        self.on_rebuild = on_rebuild
        self._gridder = gridder
        self.obs = obs if obs is not None else getattr(handle, "obs", None) or default_obs()

        #: Stable catalog key of the live mosaic (constant across ingests, so
        #: untouched cached tiles stay addressable).
        self.key = f"live:{seed_l3.fingerprint or 'mosaic'}"

        self.accumulator = MosaicAccumulator(seed_l3.mosaic.grid)
        self._verify_grids: dict[str, Level3Grid] | None = (
            {} if config.verify_merge else None
        )
        for granule_id, product in seed_l3.granules.items():
            self.accumulator.add(product)
            if self._verify_grids is not None:
                self._verify_grids[granule_id] = product

        snapshot = self.accumulator.snapshot()
        if config.verify_merge:
            self._verify(snapshot, against=seed_l3.mosaic)
        snapshot.metadata["fingerprint"] = self.key
        self._publish_mosaic(snapshot, replace_batch_entry=True)

        pyramid = build_pyramid(snapshot, serve=handle.serve)
        self.builder = IncrementalPyramidBuilder(pyramid, serve=handle.serve)
        self._live_loader().install(self.key, pyramid, self.builder.revisions)
        self.n_ingested = 0
        #: The most recent :class:`IngestReport` (``None`` before any ingest);
        #: the health dashboard exporter reads it.
        self.last_report: IngestReport | None = None
        self.obs.gauge("ingest_fleet_size").set(self.accumulator.n_granules)

    # -- the live serving seam ----------------------------------------------

    def _live_loader(self) -> LivePyramidLoader:
        """The loader of the shard owning the live key."""
        router = self.handle.router
        loader = router.shards[router.catalog.shard_of(self.key)].engine.loader
        if not isinstance(loader, LivePyramidLoader):
            raise TypeError(
                "the router was not built with LivePyramidLoaders; "
                "construct the stack through ServeHandle"
            )
        return loader

    def _publish_mosaic(self, snapshot: Level3Grid, replace_batch_entry: bool = False) -> Path:
        """Write the live mosaic and append it to the catalog (no re-scan)."""
        base = self.handle.products_dir / self.config.mosaic_name
        catalog = self.handle.catalog
        if replace_batch_entry:
            # The batch mosaic entry points at the same base path we are
            # about to overwrite; drop it so the live key is the only mosaic.
            for entry in list(catalog.entries):
                if (
                    entry.kind == "mosaic"
                    and Path(entry.base_path) == base
                    and entry.key != self.key
                ):
                    catalog.remove(entry.key)
        _, json_path = write_level3(
            snapshot, base, format=self.handle.serve.product_format
        )
        catalog.append(json_path)
        return base

    # -- ingest --------------------------------------------------------------

    def ingest(self, granule: Any) -> IngestReport:
        """Fold one granule into the served campaign; return the receipt.

        ``granule`` is either a ready :class:`~repro.l3.product.Level3Grid`
        (metadata must carry ``granule_id``) or a granule spec for the
        ``gridder`` hook.  Serving continues throughout: during the rebuild
        window responses carry ``stale=True``; afterwards only the rebuilt
        tiles re-decode, everything else stays cached.

        Telemetry: the whole call runs inside an ``ingest.ingest`` span with
        ``ingest.grid`` / ``ingest.merge`` / ``ingest.rebuild`` children,
        and feeds the ``ingest_*_total`` counters plus the fleet-size gauge.
        """
        with self.obs.span("ingest.ingest") as span:
            report = self._ingest(granule, span)
        self.last_report = report
        self.obs.counter("ingest_granules_total").inc()
        self.obs.counter("ingest_dirty_cells_total").inc(report.n_dirty_cells)
        self.obs.counter("ingest_rebuilt_tiles_total").inc(len(report.rebuilt_tiles))
        self.obs.counter("ingest_invalidated_tiles_total").inc(report.n_invalidated)
        self.obs.gauge("ingest_fleet_size").set(report.n_granules)
        self.obs.gauge("ingest_last_ingest_ts").set(self.obs.clock.now())
        return report

    def _ingest(self, granule: Any, span: Any) -> IngestReport:
        start = time.perf_counter()
        if not isinstance(granule, Level3Grid):
            if self._gridder is None:
                raise RuntimeError(
                    "this ingest service has no gridder: pass a Level3Grid, or "
                    "attach ingest via CampaignRunner.serve so specs can be "
                    "gridded through the cached pipeline stages"
                )
            with self.obs.span("ingest.grid"):
                granule = self._gridder(granule)

        granule_id = str(granule.metadata.get("granule_id", "")).strip()
        span.set(granule_id=granule_id)
        self.obs.log.info("ingest.granule_accepted", granule_id=granule_id)
        with self.obs.span("ingest.merge", granule_id=granule_id) as merge_span:
            dirty = self.accumulator.add(granule)
            merge_span.set(n_dirty_cells=int(dirty.size))
        self.obs.log.info(
            "ingest.granule_merged", granule_id=granule_id, n_dirty_cells=int(dirty.size)
        )
        if self._verify_grids is not None:
            self._verify_grids[granule_id] = granule

        loader = self._live_loader()
        loader.mark_stale(self.key)
        try:
            if self.on_rebuild is not None:
                self.on_rebuild(self)
            snapshot = self.accumulator.snapshot()
            if self.config.verify_merge:
                self._verify(snapshot)
            snapshot.metadata["fingerprint"] = self.key
            with self.obs.span("ingest.rebuild", granule_id=granule_id) as rb_span:
                rebuilt = self.builder.update(snapshot, dirty)
                rb_span.set(n_rebuilt_tiles=len(rebuilt))
            self.obs.log.info(
                "ingest.tiles_rebuilt", granule_id=granule_id, n_rebuilt_tiles=len(rebuilt)
            )

            written = [str(self._publish_mosaic(snapshot))]
            if self.config.write_granule_products and granule_id:
                base = self.handle.products_dir / granule_id
                _, json_path = write_level3(
                    granule, base, format=self.handle.serve.product_format
                )
                self.handle.catalog.append(json_path)
                written.append(str(base))

            servable = self.handle.catalog.get(self.key).servable
            keys: list[TileKey] = [
                (self.key, variable, zoom, row, col)
                for (zoom, row, col) in rebuilt
                for variable in servable
            ]
            n_invalidated = self.handle.invalidate_tiles(keys)
        finally:
            loader.clear_stale(self.key)
        self.n_ingested += 1

        return IngestReport(
            granule_id=granule_id,
            n_dirty_cells=int(dirty.size),
            rebuilt_tiles=tuple(rebuilt),
            n_invalidated=n_invalidated,
            n_granules=self.accumulator.n_granules,
            products=tuple(written),
            seconds=time.perf_counter() - start,
        )

    # -- verification ---------------------------------------------------------

    def _verify(self, snapshot: Level3Grid, against: Level3Grid | None = None) -> None:
        """Assert the online mosaic is byte-identical to the batch mosaic."""
        if against is None:
            assert self._verify_grids is not None
            processor = Level3Processor(self.accumulator.grid)
            against = processor.mosaic(
                [self._verify_grids[gid] for gid in self.accumulator.granule_ids]
            )
        for name, expected in against.variables.items():
            live = snapshot.variables[name]
            if expected.dtype != live.dtype or expected.tobytes() != live.tobytes():
                raise RuntimeError(
                    f"online merge diverged from the batch mosaic in {name!r} "
                    f"after {self.accumulator.n_granules} granules"
                )
