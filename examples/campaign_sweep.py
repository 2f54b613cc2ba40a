#!/usr/bin/env python
"""Campaign sweep: many granules, one shared classifier, resumable cache.

Expands a 2x3 scenario grid (season x cloud fraction) into six simulated
granules, curates them in parallel over two worker processes, trains a single
classifier on the pooled labelled segments of the whole fleet, fans
inference/freeboard/ATL07/ATL10 retrieval back out, and prints per-granule
and campaign-level metrics plus the simulated cluster scaling table.

The campaign is then run a second time with the same configuration to
demonstrate the content-addressed on-disk stage cache: the re-run reads one
finished result per granule plus the shared classifier, computes nothing,
and completes in a fraction of the original time.  The script exits non-zero
if the resumed run misses the cache anywhere.

Run:  python examples/campaign_sweep.py [--quick]

``--quick`` shrinks the sweep to a 1x2 grid with smaller scenes and fewer
epochs — the CI smoke configuration.
"""

import argparse
import shutil
import sys
import tempfile
import time

from repro.campaign import CampaignConfig, CampaignRunner
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small 2-granule sweep (used by the CI smoke step)",
    )
    args = parser.parse_args()

    scene_m = 5_000.0 if args.quick else 8_000.0
    base = ExperimentConfig(
        scene=SceneConfig(
            width_m=scene_m,
            height_m=scene_m,
            open_water_fraction=0.12,
            thin_ice_fraction=0.18,
            thick_ice_fraction=0.70,
            n_leads=8,
        ),
        epochs=2 if args.quick else 4,
        model_kind="mlp",  # the MLP keeps this demo fast; use "lstm" for the paper's model
    )
    grid = (
        {"cloud_fraction": (0.1, 0.4)}
        if args.quick
        else {
            "season": ("winter", "freeze_up"),
            "cloud_fraction": (0.1, 0.3, 0.5),
        }
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-campaign-")
    config = CampaignConfig(
        base=base,
        grid=grid,
        seed=0,
        n_workers=2,
        cache_dir=cache_dir,
    )
    print(
        f"Campaign {config.fingerprint()}: {config.n_granules} granules "
        f"({' x '.join(name for name in config.axis_names)}), "
        f"{config.n_workers} workers"
    )

    start = time.perf_counter()
    result = CampaignRunner(config).run()
    first_s = time.perf_counter() - start
    print(f"\nFirst run: {first_s:.1f} s "
          f"({len(result.stage_misses)} stage-cache entries computed and stored)\n")
    print(result.summary())

    start = time.perf_counter()
    resumed = CampaignRunner(config).run()
    second_s = time.perf_counter() - start
    print(
        f"\nSecond run resumed from cache in {second_s:.2f} s "
        f"({len(resumed.stage_hits)} stage hits, {len(resumed.stage_misses)} "
        "stage misses)"
    )
    shutil.rmtree(cache_dir, ignore_errors=True)
    if resumed.stage_misses:
        sys.exit(f"resumed run recomputed {len(resumed.stage_misses)} entries")


if __name__ == "__main__":
    main()
