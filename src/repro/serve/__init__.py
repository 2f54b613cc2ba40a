"""Product serving: catalog, tile pyramids, and a high-throughput query engine.

Level-3 products (:mod:`repro.l3`) end the paper's data path at files on
disk; this package is the layer that *serves* them — the step from an
archive of mosaics to a system answering region queries under load, the
ROADMAP's "heavy traffic" regime:

* :mod:`repro.serve.catalog` — :class:`ProductCatalog` indexes written
  products from their JSON sidecars alone (campaign, granules, variables,
  bounding box, fingerprint) and answers region + variable queries without
  opening a single npz;
* :mod:`repro.serve.pyramid` — :class:`TilePyramid` /
  :func:`build_pyramid`: power-of-two overview levels built by the
  :mod:`repro.kernels.pyramid` kernels (NaN-aware count-weighted means,
  coverage fractions) with fixed-size, NaN-padded tile addressing; also a
  registered ``build_pyramid`` pipeline stage, so pyramids are
  content-addressed and cached like every other artifact;
* :mod:`repro.serve.query` — :class:`QueryEngine` resolves
  ``(bbox, variable, zoom)`` requests to tiles through a fingerprint-keyed
  LRU tile cache and decodes each product at most once per batch however
  many requests hit it, on the calling thread (the serve tier has no
  fan-out level of its own);
* :mod:`repro.serve.shard` — :class:`ShardedCatalog` hash-partitions the
  archive by product footprint (:func:`shard_index`, bit-stable across
  rebuilds) into shards that share nothing, while queries answer in
  global registration order so resolution is identical to the unsharded
  catalog;
* :mod:`repro.serve.router` — :class:`RequestRouter`, the service tier
  over the shards: each request resolved and planned once against the
  whole archive and served on the calling thread by its shard's engine;
  per-shard quarantine on repeated product errors;
* :mod:`repro.serve.handle` — :class:`ServeHandle`, the single
  construction surface: ``runner.serve(dir)`` returns a handle owning the
  catalog/router/ingest lifecycle — every query goes through one router,
  ``RouterConfig(n_shards=1)`` being the unsharded case — with chainable
  builder steps (``.with_router(...)``, ``.with_ingest(...)``) and the
  unified :class:`TileResponse` query surface;
* :mod:`repro.serve.live` — the live-product seam under
  :mod:`repro.ingest`: :class:`IncrementalPyramidBuilder` rebuilds only
  the pyramid tiles whose footprint a new granule touched (byte-identical
  to a full rebuild), and :class:`LivePyramidLoader` serves installed
  in-memory pyramids with per-tile-region revision fingerprints and the
  stale-while-revalidate flag.

The router reads request latency through :mod:`repro.clock`
(:class:`~repro.clock.MonotonicClock` by default,
:class:`~repro.clock.VirtualClock` for exact timings in tests).

Quick start (serving a campaign)::

    from repro.campaign import CampaignConfig, CampaignRunner
    from repro.serve import TileRequest

    runner = CampaignRunner(CampaignConfig(grid={"cloud_fraction": (0.1, 0.4)}))
    handle = runner.serve("products/")          # write products + catalog them
    response = handle.query(TileRequest(bbox=(0, 0, 10_000, 10_000), zoom=1))

    live = runner.serve("products/").with_ingest()
    live.ingest(new_granule_spec)               # merged + served, no restart
    routed = live.query_batch([TileRequest(bbox=(0, 0, 10_000, 10_000), zoom=1)])
"""

from repro.serve.catalog import CatalogEntry, ProductCatalog
from repro.serve.handle import ServeHandle
from repro.serve.live import IncrementalPyramidBuilder, LivePyramidLoader
from repro.serve.pyramid import (
    PyramidLevel,
    TilePyramid,
    build_pyramid,
    default_pyramid_variables,
    n_levels_for,
    tiles_for_bbox,
    tiles_for_cells,
)
from repro.serve.query import (
    ProductLoader,
    QueryEngine,
    QueryStats,
    TileRequest,
    TileResponse,
    plan_request,
    select_entry,
)
from repro.serve.router import RequestRouter, RouterStats, Shard
from repro.serve.shard import ShardedCatalog, shard_index

__all__ = [
    "CatalogEntry",
    "IncrementalPyramidBuilder",
    "LivePyramidLoader",
    "ProductCatalog",
    "ProductLoader",
    "PyramidLevel",
    "QueryEngine",
    "QueryStats",
    "RequestRouter",
    "RouterStats",
    "ServeHandle",
    "Shard",
    "ShardedCatalog",
    "TilePyramid",
    "TileRequest",
    "TileResponse",
    "build_pyramid",
    "default_pyramid_variables",
    "n_levels_for",
    "plan_request",
    "select_entry",
    "shard_index",
    "tiles_for_bbox",
    "tiles_for_cells",
]
