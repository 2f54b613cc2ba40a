#!/usr/bin/env python
"""Level-3 products: campaign -> gridded composite -> saved product -> reload.

Demonstrates the `repro.l3` subsystem end to end:

1. run a small two-granule campaign (cloud-fraction scenario grid);
2. grid every granule and mosaic the fleet with `CampaignRunner.to_l3` —
   per-cell freeboard/thickness statistics, class fractions, granule counts
   and coverage on the shared polar stereographic metre grid;
3. write the mosaic as a self-describing product (npz arrays + JSON
   metadata with the grid definition and content fingerprint), reload it,
   and verify the round trip is **byte-identical**;
4. regenerate the grid-map figure data from the *reloaded* product;
5. change only the grid resolution and re-run warm — the campaign itself is
   pure cache; only the `grid_granule`/`mosaic_campaign` stages re-execute.

Run:  python examples/l3_mosaic.py

This example is also the CI smoke test for the Level-3 layer, so it uses
a small scene and the fast MLP classifier.
"""

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig
from repro.evaluation import figure_l3_grid_map, format_table, l3_coverage_table
from repro.l3 import read_level3, write_level3
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
    l3=L3GridConfig(cell_size_m=1_000.0),
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-l3-"))
    try:
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=str(workdir / "cache"),
        )

        # 1-2. Campaign and Level-3 products.
        runner = CampaignRunner(config)
        l3 = runner.to_l3(runner.run())
        print(f"\n{l3.summary()}")

        # 3. Self-describing product file, reloaded bit-identically.
        npz_path, json_path = write_level3(l3.mosaic, workdir / "ross_sea_mosaic")
        reloaded = read_level3(workdir / "ross_sea_mosaic")
        for name, array in l3.mosaic.variables.items():
            assert reloaded.variables[name].tobytes() == array.tobytes(), name
        assert reloaded.grid == l3.mosaic.grid
        print(f"\nwrote {npz_path.name} + {json_path.name}; reload is byte-identical")
        print(f"  fingerprint    : {reloaded.metadata['fingerprint']}")

        # 4. Grid-map figure data from the reloaded product.
        series = figure_l3_grid_map(reloaded)
        print(
            f"  grid map       : {series['shape'][0]}x{series['shape'][1]} cells at "
            f"{series['cell_size_m']:.0f} m, coverage {series['coverage_percent']:.1f}%"
        )

        # 5. Grid-resolution-only change: the campaign is pure cache; only
        #    the Level-3 stages re-run.
        finer = CampaignConfig(
            base=replace(BASE, l3=L3GridConfig(cell_size_m=500.0)),
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=33,
            cache_dir=str(workdir / "cache"),
        )
        finer_runner = CampaignRunner(finer)
        result = finer_runner.run()
        assert result.stage_misses == (), result.stage_misses
        finer_l3 = finer_runner.to_l3(result)
        missed = sorted({key.rsplit("-", 1)[0] for key in finer_l3.stage_misses})
        assert missed == ["grid_granule", "mosaic_campaign"], missed
        print(
            f"\nafter a 1000 m -> 500 m resolution change, only {missed} re-ran "
            f"({finer_l3.mosaic.grid.shape[0]}x{finer_l3.mosaic.grid.shape[1]} cells now)"
        )
        print(
            format_table(
                l3_coverage_table([finer_l3.mosaic]), title="Finer mosaic coverage"
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
