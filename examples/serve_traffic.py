#!/usr/bin/env python
"""Serving layer: campaign -> product catalog -> tile pyramid -> query engine.

Demonstrates the `repro.serve` subsystem end to end:

1. run a small two-granule campaign and write its Level-3 products
   (mosaic + per-granule grids) with `CampaignRunner.serve`, which scans
   them into a `ProductCatalog` — region/variable queries are answered from
   the JSON sidecars alone, no npz is opened;
2. serve a region query: the engine resolves `(bbox, variable, zoom)` to
   tiles of the mosaic's pyramid, decoding the product once;
3. repeat the query — it is served entirely from the fingerprint-keyed
   LRU tile cache (asserted via the instrumented loader: **no** second
   decode);
4. drive the engine with Zipf-distributed traffic (hot regions dominate,
   the way real map traffic behaves) and print the measured
   throughput/latency table;
5. extrapolate the measured serving time across executor counts with the
   calibrated cost model — the Table II/V scaling-table convention.

Run:  python examples/serve_traffic.py

This example is also the CI smoke test for the serving layer, so it uses
a small scene and the fast MLP classifier.
"""

import shutil
import tempfile
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig, ServeConfig
from repro.evaluation import format_table, serve_latency_table, serve_scaling_table
from repro.serve import TileRequest, TrafficConfig, TrafficSimulator
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


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    try:
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=str(workdir / "cache"),
        )

        # 1. Campaign -> written products -> catalog -> engine.
        runner = CampaignRunner(config)
        engine = runner.serve(str(workdir / "products"))
        kinds = sorted(entry.kind for entry in engine.catalog)
        print(f"\ncatalog: {len(engine.catalog)} products ({', '.join(kinds)}),")
        print(f"  extent: {tuple(round(v) for v in engine.catalog.extent())}")

        # 2. One region query against the mosaic pyramid.
        x0, y0, _, _ = engine.catalog.extent()
        request = TileRequest(
            bbox=(x0, y0, x0 + 3_000.0, y0 + 3_000.0),
            variable="freeboard_mean",
            zoom=1,
        )
        first = engine.query(request)
        served_by = engine.catalog.get(first.product)
        print(
            f"\nquery bbox 3x3 km @ zoom {first.zoom} -> {first.n_tiles} tiles "
            f"from the {served_by.kind} (fingerprint {first.product[:12]}...), "
            f"{engine.loader.n_loads} product decode(s)"
        )

        # 3. The repeat is pure tile cache: no second decode.
        loads_before = engine.loader.n_loads
        repeat = engine.query(request)
        assert repeat.from_cache, "repeat query must be served from the LRU"
        assert engine.loader.n_loads == loads_before, "repeat must not re-read the npz"
        print(
            f"repeat query: {repeat.n_tiles} tiles from the LRU tile cache, "
            f"still {engine.loader.n_loads} decode(s)"
        )

        # 4. Zipf traffic: hot regions hit the cache, the tail decodes.
        simulator = TrafficSimulator(
            engine,
            TrafficConfig(
                n_requests=120,
                batch_size=12,
                n_regions=8,
                zipf_exponent=1.2,
                region_fraction=0.35,
                variables=("freeboard_mean", "thickness_mean"),
                zoom_levels=(0, 1, 2),
                seed=7,
            ),
        )
        result = simulator.run()
        print()
        print(format_table(serve_latency_table(result), title="Measured traffic run"))
        hot = max(result.region_counts.values())
        cold = min(result.region_counts.values())
        print(f"  Zipf mix: hottest region {hot} requests, coldest {cold}")

        # 5. Cost-model scaling across executor counts (Table II/V style).
        print()
        print(
            format_table(
                serve_scaling_table(result, executor_counts=(1, 2, 4)),
                title="Simulated serving scalability (calibrated cost model)",
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
