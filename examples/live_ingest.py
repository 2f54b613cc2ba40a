#!/usr/bin/env python
"""Live ingest: incremental L3 merge + dirty-tile rebuild, no restart.

Demonstrates the `repro.ingest` tier on top of the serve builder API:

1. run a small two-granule campaign and mount it live with
   `CampaignRunner.serve(...).with_router().with_ingest()` — the mosaic is
   published under a stable `live:` key and served through the sharded
   router;
2. warm the tile caches with a region query and show the cache-hot repeat;
3. ingest a granule the fleet never saw (one more scenario point of the
   same campaign): the service grids it through the cached pipeline
   stages, folds it into the online mosaic (`verify_merge=True`
   cross-checks the merge byte-for-byte against the batch mosaic), and
   rebuilds **only** the pyramid tiles overlapping its footprint;
4. query again through the same router — no restart: only the rebuilt
   tiles recompute, untouched tiles come straight from the LRU caches,
   and per-tile fingerprint revisions advance exactly where the payload
   changed.

Run:  python examples/live_ingest.py

This example is also the CI smoke test for the live-ingest tier, so it
uses a small scene and the fast MLP classifier.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import IngestConfig, L3GridConfig, RouterConfig, ServeConfig
from repro.serve import TileRequest
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
    serve=ServeConfig(tile_size=8, router=RouterConfig(n_shards=2)),
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-ingest-"))
    try:
        cache_dir = str(workdir / "cache")
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=cache_dir,
        )

        # 1. Campaign -> live serving stack: router + ingest, one builder
        #    chain.  The mosaic is catalogued under a stable `live:` key so
        #    later ingests update it in place.
        runner = CampaignRunner(config)
        handle = (
            runner.serve(str(workdir / "products"))
            .with_router()
            .with_ingest(config=IngestConfig(verify_merge=True))
        )
        service = handle.ingest_service
        print(
            f"\nserving {len(handle.catalog)} products over "
            f"{handle.catalog.n_shards} shards, live mosaic key "
            f"{service.key!r} ({service.accumulator.granule_ids})"
        )

        # 2. Warm the caches with a full-extent query.
        request = TileRequest(
            bbox=handle.catalog.extent(), variable="freeboard_mean", zoom=0
        )
        before = handle.query(request)
        repeat = handle.query(request)
        assert repeat.from_cache, "repeat must hit the shard LRU"
        print(
            f"warmed {before.n_tiles} tiles via shard {before.shard}; "
            f"repeat served entirely from cache"
        )

        # 3. A granule the fleet never saw arrives: one more scenario point
        #    of the same campaign.  Its *spec* is ingested — gridding runs
        #    through the cached pipeline stages, then the online merge.
        wider = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35, 0.5)},
            seed=33,
            cache_dir=cache_dir,
        )
        new_spec = wider.expand()[2]
        report = handle.ingest(new_spec)
        assert report.n_granules == 3  # verify_merge passed: bytes == batch
        per_zoom = {
            zoom: sum(1 for z, _, _ in report.rebuilt_tiles if z == zoom)
            for zoom in sorted({z for z, _, _ in report.rebuilt_tiles})
        }
        print(
            f"\ningested {report.granule_id!r} in {report.seconds * 1e3:.0f}ms: "
            f"{report.n_dirty_cells} dirty cells, "
            f"{len(report.rebuilt_tiles)} tiles rebuilt {per_zoom}, "
            f"{report.n_invalidated} cache entries invalidated"
        )

        # 4. Same router, no restart: only the rebuilt tiles recompute,
        #    and only their fingerprint revisions advance.
        after = handle.query(request)
        rebuilt_zoom0 = {(r, c) for z, r, c in report.rebuilt_tiles if z == 0}
        assert after.n_computed == len(rebuilt_zoom0 & set(after.tiles))
        changed = {
            rc
            for rc in after.tiles
            if not np.array_equal(after.tiles[rc], before.tiles[rc], equal_nan=True)
        }
        assert changed <= rebuilt_zoom0
        advanced = {
            rc for rc in after.tiles if after.fingerprints[rc] != before.fingerprints[rc]
        }
        assert advanced == rebuilt_zoom0 & set(after.tiles)
        print(
            f"post-ingest query: {after.n_computed} tiles recomputed, "
            f"{after.n_cached} still cache-warm; payload changed on {sorted(changed)}, "
            f"revisions advanced on {sorted(advanced)}"
        )

        health = handle.health()
        print(
            f"\nhealth: {health['healthy_shards']}/{len(handle.router.shards)} "
            f"shards healthy after {service.n_ingested} live ingest(s)"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
