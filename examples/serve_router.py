#!/usr/bin/env python
"""Service tier: sharded catalog -> global resolution -> quarantine.

Demonstrates the `repro.serve` router on top of the per-shard query
engines, all on the calling thread:

1. run a small two-granule campaign and mount its products behind a
   `RequestRouter` (`CampaignRunner.serve(...).with_router()`): the
   catalog is hash-partitioned by bbox into shards, each with its own
   engine and LRU tile cache;
2. serve a batch of region queries through the router: each request is
   resolved against the whole archive, planned once and served by the
   shard that owns its product, and each product is decoded at most once
   per batch however many requests miss the cache; the repeat batch is
   all cache hits;
3. break the storage under one shard: after `quarantine_errors` failed
   decodes the shard is quarantined and resolution routes around it;
   `rebuild_shard` brings it back once the storage is readable again;
4. print the router health summary (per-shard state and the request /
   execution / error counters) a fronting HTTP layer would expose.

Run:  python examples/serve_router.py

This example is also the CI smoke test for the service tier, so it uses a
small scene and the fast MLP classifier.
"""

import shutil
import tempfile
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig, RouterConfig, ServeConfig
from repro.l3.writer import Level3ProductError
from repro.serve import ProductLoader, RequestRouter, TileRequest
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

#: Shards whose storage currently fails every product read.
UNREADABLE: set[int] = set()


class ShardStorage(ProductLoader):
    """Reads products from disk, unless its shard's storage is unreadable."""

    def __init__(self, serve: ServeConfig, shard: int) -> None:
        super().__init__(serve)
        self.shard = shard

    def decode(self, entry):
        if self.shard in UNREADABLE:
            raise Level3ProductError(f"shard {self.shard}: cannot read {entry.key}")
        return super().decode(entry)


def print_health(router: RequestRouter) -> None:
    health = router.health()
    print(
        f"health: {health['healthy_shards']}/{len(router.shards)} shards healthy, "
        f"{health['requests']} requests, {health['executions']} executions, "
        f"{health['errors']} errors"
    )
    for row in health["shards"]:
        print(
            f"  shard {row['shard']}: {row['products']} products, "
            f"{row['cached_tiles']} cached tiles, {row['loads']} loads, "
            f"{row['errors']} errors, quarantined={row['quarantined']}"
        )


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
    serve=ServeConfig(
        tile_size=8,
        router=RouterConfig(n_shards=2, quarantine_errors=2),
    ),
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-router-"))
    try:
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=str(workdir / "cache"),
        )

        # 1. Campaign -> written products -> sharded catalog -> router.
        runner = CampaignRunner(config)
        handle = runner.serve(str(workdir / "products")).with_router()
        router = handle.router
        counts = router.catalog.counts()
        print(
            f"\nsharded catalog: {len(router.catalog)} products over "
            f"{router.catalog.n_shards} shards (per-shard {counts})"
        )

        # 2. A batch of region queries, served shard by shard; each product
        #    is decoded at most once for the whole batch.
        x0, y0, _, _ = router.catalog.extent()
        requests = [
            TileRequest(
                bbox=(x0 + dx, y0 + dy, x0 + dx + 2_500.0, y0 + dy + 2_500.0),
                variable="freeboard_mean",
                zoom=zoom,
            )
            for dx, dy, zoom in (
                (0.0, 0.0, 0),
                (3_000.0, 0.0, 0),
                (0.0, 3_000.0, 1),
                (3_000.0, 3_000.0, 1),
            )
        ]

        def decodes() -> int:
            return sum(shard.engine.stats.loads for shard in router.shards)

        served = router.serve(requests)
        products = {routed.product for routed in served}
        print(
            f"served {len(served)} queries via shards "
            f"{sorted({routed.shard for routed in served})}, "
            f"{sum(r.n_tiles for r in served)} tiles from {len(products)} product(s) "
            f"in {decodes()} decode(s)"
        )
        assert decodes() == len(products), "one decode per product per batch"
        repeat = router.serve(requests)
        assert all(r.from_cache for r in repeat), "repeat must hit the LRUs"
        assert decodes() == len(products)
        print("repeat batch: all tiles from the per-shard LRU caches, no decode")

        # 3. Quarantine: the storage under one shard becomes unreadable.
        #    A router over the same sharded catalog, reading through
        #    ShardStorage, shows the shard being routed around and repaired.
        flaky = RequestRouter(
            router.catalog,
            serve=BASE.serve,
            loader_factory=lambda index: ShardStorage(BASE.serve, index),
        )
        request = requests[0]
        bad_shard, entry = flaky.resolve(request)
        UNREADABLE.add(bad_shard)
        for _ in range(BASE.serve.router.quarantine_errors):
            try:
                flaky.query(request)
            except Level3ProductError as exc:
                print(f"\ndecode failed: {exc}")
        assert flaky.quarantined_shards == (bad_shard,)
        print(f"shard {bad_shard} quarantined after {flaky.shards[bad_shard].errors} errors")
        try:
            rerouted = flaky.query(request)
            print(f"  rerouted: {rerouted.product} on shard {rerouted.shard} serves the region")
        except LookupError as exc:
            print(f"  no healthy product left for the region: {exc}")
        print_health(flaky)

        UNREADABLE.clear()
        flaky.rebuild_shard(bad_shard)
        repaired = flaky.query(request)
        assert repaired.shard == bad_shard and repaired.product == entry.key
        print(f"\nstorage back, shard {bad_shard} rebuilt: {repaired.n_tiles} tiles served again")

        # 4. The health summary a fronting HTTP layer would expose.
        print()
        print_health(flaky)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
