#!/usr/bin/env python
"""Serving layer: campaign -> product catalog -> router -> Zipf map views.

Demonstrates the `repro.serve` subsystem end to end through its one
front, `ServeHandle`:

1. run a small two-granule campaign and write its Level-3 products
   (mosaic + per-granule grids) with `CampaignRunner.serve`, which scans
   them into a catalog — region/variable queries are answered from the
   JSON sidecars alone, no npz is opened — and returns the handle whose
   router serves every query;
2. serve one map view (a batch of region queries) through
   `ServeHandle.query_batch`: the router resolves each
   `(bbox, variable, zoom)` to tiles of the mosaic's pyramid, decoding
   the product once;
3. repeat the view — it is served entirely from the fingerprint-keyed
   LRU tile caches (asserted via the shard engines' decode counters:
   **no** second decode);
4. send Zipf-popular map views (hot regions dominate, the way real map
   traffic behaves) through the same handle and print the measured view
   latency and cache behaviour.

Run:  python examples/serve_traffic.py

This example is also the CI smoke test for the serving layer, so it uses
a small scene and the fast MLP classifier.
"""

import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig, ServeConfig
from repro.evaluation import format_table
from repro.serve import ServeHandle, TileRequest
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

BASE = ExperimentConfig(
    scene=SceneConfig(
        width_m=6_000.0,
        height_m=6_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=8,
    ),
    epochs=2,
    model_kind="mlp",
    drift_m=(120.0, 180.0),
    l3=L3GridConfig(cell_size_m=250.0),
    serve=ServeConfig(tile_size=8),
)

#: Candidate regions carved out of the catalog extent, and their size as a
#: fraction of it.
N_REGIONS = 8
REGION_FRACTION = 0.35
VARIABLES = ("freeboard_mean", "thickness_mean")
ZOOMS = (0, 1, 2)
#: Zipf exponent of the popularity ranking (larger = hotter head).
ZIPF_EXPONENT = 1.2
N_VIEWS = 20
REQUESTS_PER_VIEW = 6


def engine_counts(handle: ServeHandle) -> tuple[int, int, int]:
    """``(tile hits, tile misses, product decodes)`` over every shard engine."""
    stats = [shard.engine.stats for shard in handle.router.shards]
    return (
        sum(s.tile_hits for s in stats),
        sum(s.tile_misses for s in stats),
        sum(s.loads for s in stats),
    )


def zipf_views(handle: ServeHandle, rng: np.random.Generator) -> list[list[TileRequest]]:
    """``N_VIEWS`` map views drawn Zipf-popular over region/variable/zoom."""
    x_min, y_min, x_max, y_max = handle.catalog.extent()
    width = (x_max - x_min) * REGION_FRACTION
    height = (y_max - y_min) * REGION_FRACTION
    templates = []
    for _ in range(N_REGIONS):
        x0 = float(rng.uniform(x_min, x_max - width))
        y0 = float(rng.uniform(y_min, y_max - height))
        for variable in VARIABLES:
            for zoom in ZOOMS:
                bbox = (x0, y0, x0 + width, y0 + height)
                templates.append(TileRequest(bbox=bbox, variable=variable, zoom=zoom))
    ranks = rng.permutation(len(templates)) + 1
    popularity = 1.0 / ranks.astype(float) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    picks = rng.choice(len(templates), size=(N_VIEWS, REQUESTS_PER_VIEW), p=popularity)
    return [[templates[int(i)] for i in view] for view in picks]


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    try:
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=str(workdir / "cache"),
        )

        # 1. Campaign -> written products -> catalog -> routed handle.
        runner = CampaignRunner(config)
        with runner.serve(str(workdir / "products")) as handle:
            catalog = handle.catalog
            kinds = sorted(entry.kind for entry in catalog)
            print(f"\ncatalog: {len(catalog)} products ({', '.join(kinds)}),")
            print(f"  extent: {tuple(round(v) for v in catalog.extent())}")

            # 2. One map view: a region in two variables, served by the router.
            x0, y0, _, _ = catalog.extent()
            bbox = (x0, y0, x0 + 3_000.0, y0 + 3_000.0)
            view = [TileRequest(bbox=bbox, variable=v, zoom=1) for v in VARIABLES]
            first = handle.query_batch(view)
            served_by = catalog.get(first[0].product)
            print(
                f"\nview of 3x3 km @ zoom {first[0].zoom} -> "
                f"{sum(r.n_tiles for r in first)} tiles from the {served_by.kind} "
                f"(fingerprint {first[0].product[:12]}...), "
                f"{engine_counts(handle)[2]} product decode(s)"
            )

            # 3. The repeated view is pure tile cache: no decode.
            decodes_before = engine_counts(handle)[2]
            repeat = handle.query_batch(view)
            assert all(r.from_cache for r in repeat), "a repeated view must hit the LRU"
            assert engine_counts(handle)[2] == decodes_before, "a repeated view decoded"
            print(
                f"repeated view: {sum(r.n_tiles for r in repeat)} tiles from the LRU "
                f"tile caches, still {decodes_before} decode(s)"
            )

            # 4. Zipf-popular views: hot regions hit the cache, the tail decodes.
            views = zipf_views(handle, np.random.default_rng(7))
            hits0, misses0, decodes0 = engine_counts(handle)
            view_s = []
            for requests in views:
                start = time.perf_counter()
                handle.query_batch(requests)
                view_s.append(time.perf_counter() - start)
            hits, misses, decodes = engine_counts(handle)
            hits, misses, decodes = hits - hits0, misses - misses0, decodes - decodes0
            latency_ms = np.asarray(view_s) * 1e3
            row = {
                "Views": len(views),
                "Requests": len(views) * REQUESTS_PER_VIEW,
                "Mean View (ms)": round(float(latency_ms.mean()), 2),
                "P95 View (ms)": round(float(np.percentile(latency_ms, 95)), 2),
                "Tile Hit Rate": round(hits / max(hits + misses, 1), 3),
                "Product Decodes": decodes,
            }
            print()
            print(format_table([row], title="Zipf map views through the router"))
            counts = Counter(request for requests in views for request in requests)
            print(
                f"  Zipf mix: {len(counts)} distinct requests, hottest asked "
                f"{max(counts.values())} times, coldest {min(counts.values())}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
