#!/usr/bin/env python
"""Service tier: sharded catalog -> single-flight router -> open-loop load.

Demonstrates the `repro.serve` router on top of the query engine:

1. run a small two-granule campaign and mount its products behind a
   `RequestRouter` (`CampaignRunner.serve(...).with_router()`): the
   catalog is hash-partitioned by bbox into shards, each with its own
   engine and LRU tile cache;
2. serve a batch of region queries through the router and show the shard
   fan-out plus the cache-hot repeat;
3. drive the router open loop on a `VirtualClock` — Poisson arrivals at
   2x the admission capacity, with a modelled per-request service time —
   and print the measured latency table: admission control sheds the
   excess immediately (503 + Retry-After) while single-flight coalescing
   absorbs the Zipf head, so admitted p99 stays bounded;
4. extrapolate saturation throughput across shard counts with the
   calibrated cost model (the Table II/V scaling-table convention);
5. print the router health summary (per-shard state, shed/coalescing
   counters) a fronting HTTP layer would expose.

Run:  python examples/serve_router.py

This example is also the CI smoke test for the service tier, so it uses a
small scene and the fast MLP classifier.
"""

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.clock import VirtualClock
from repro.config import L3GridConfig, RouterConfig, ServeConfig
from repro.evaluation import format_table, router_latency_table, router_scaling_table
from repro.serve import RequestRouter, TileRequest, TrafficConfig, TrafficSimulator
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

#: Modelled per-request service time for the open-loop run (virtual seconds).
SERVICE_S = 0.005

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
        router=RouterConfig(n_shards=2, max_queue_depth=8, retry_after_s=0.05),
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

        # 2. A batch of region queries fans out across the shards.
        x0, y0, _, _ = router.catalog.extent()
        requests = [
            TileRequest(
                bbox=(x0 + dx, y0 + dy, x0 + dx + 2_500.0, y0 + dy + 2_500.0),
                variable="freeboard_mean",
                zoom=zoom,
            )
            for dx, dy, zoom in ((0.0, 0.0, 0), (3_000.0, 0.0, 1), (0.0, 3_000.0, 1))
        ]
        served = router.serve(requests)
        shards_used = sorted({routed.shard for routed in served})
        print(
            f"served {len(served)} queries via shards {shards_used}, "
            f"{sum(r.n_tiles for r in served)} tiles total"
        )
        repeat = router.serve(requests)
        assert all(r.from_cache for r in repeat), "repeat must hit the LRUs"
        print("repeat batch: all tiles from the per-shard LRU caches")

        # 3. Open loop on a virtual clock: Poisson arrivals at 2x capacity.
        #    The execute hook charges a fixed virtual service time per
        #    execution, so admission and coalescing behaviour is exact and
        #    deterministic — no wall-clock sleeps anywhere.
        clock = VirtualClock()

        async def modelled(shard, request):
            await clock.sleep(SERVICE_S)
            return replace(shard.engine.query(request), seconds=SERVICE_S)

        serve_cfg = BASE.serve
        loaded = RequestRouter(
            router.catalog, serve=serve_cfg, clock=clock, execute=modelled
        )
        capacity_rps = serve_cfg.router.max_queue_depth / SERVICE_S
        simulator = TrafficSimulator(
            catalog=router.catalog,
            config=TrafficConfig(
                n_requests=3_000,
                n_regions=12,
                zipf_exponent=1.1,
                region_fraction=0.25,
                zoom_levels=(0, 1),
                seed=17,
            ),
        )
        result = simulator.run_open_loop(loaded, arrival_rate_rps=2.0 * capacity_rps)
        print(
            f"\nopen loop: offered {result.n_offered} requests at "
            f"{result.arrival_rate_rps:.0f} req/s (2x the {capacity_rps:.0f} req/s "
            f"admission capacity) in {result.seconds:.2f} virtual seconds"
        )
        print(format_table(router_latency_table(result), title="Open-loop traffic run"))
        assert result.shed_rate > 0.0, "2x overload must shed"
        print(
            f"  shed {result.n_shed} immediately (Retry-After "
            f"{serve_cfg.router.retry_after_s * 1e3:.0f}ms), coalesced "
            f"{result.stats.coalesced} onto in-flight work"
        )

        # 4. Saturation throughput across shard counts (Table II/V style).
        print()
        print(
            format_table(
                router_scaling_table(result, shard_counts=(1, 2, 4)),
                title="Simulated shard scalability (calibrated cost model)",
            )
        )

        # 5. The health summary a fronting HTTP layer would expose.
        health = loaded.health()
        print(
            f"\nhealth: {health['healthy_shards']}/{len(loaded.shards)} shards healthy, "
            f"depth {health['depth']}, shed rate {health['shed_rate']}, "
            f"coalescing ratio {health['coalescing_ratio']}"
        )
        for row in health["shards"]:
            print(
                f"  shard {row['shard']}: {row['products']} products, "
                f"{row['cached_tiles']} cached tiles, {row['loads']} loads, "
                f"quarantined={row['quarantined']}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
