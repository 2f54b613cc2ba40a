#!/usr/bin/env python
"""Zero-copy hot paths: shared-memory fan-out + memory-mapped products.

Demonstrates the two zero-copy tiers of this PR end to end:

1. the same small campaign fleet runs through the process executor twice —
   once with the shared-memory task transport (``use_shm=True``, the
   default: arrays are published once into ``/dev/shm`` segments and
   workers attach read-only views) and once with the legacy pickled
   payloads — and the science is **bit-for-bit identical** either way,
   only the wall time moves;
2. the campaign's Level-3 products are served twice — from the classic
   ``npz`` archives and from the ``raw`` flat-blob layout, where the query
   engine memory-maps the blob and a cold zoom-0 tile touches only its own
   window of pages instead of inflating the whole archive — and every
   served tile is byte-identical between the two layouts;
3. after both stacks shut down, no ``repro_shm_*`` segment survives in
   ``/dev/shm`` (the store's unlink-on-close contract).

Run:  python examples/zero_copy_campaign.py

This example is also the CI smoke test for the zero-copy tier, so it
uses a small scene and the fast MLP classifier.
"""

import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig, ServeConfig
from repro.distributed.shm import SHM_PREFIX
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
    serve=ServeConfig(tile_size=8),
)

GRID = {"cloud_fraction": (0.1, 0.35)}


def _shm_segments() -> set[str]:
    dev_shm = Path("/dev/shm")
    if not dev_shm.is_dir():
        return set()
    return {p.name for p in dev_shm.glob(f"{SHM_PREFIX}*")}


def _campaign(use_shm: bool) -> CampaignConfig:
    return CampaignConfig(
        base=BASE,
        grid=GRID,
        seed=41,
        n_workers=2,
        executor="process",
        use_shm=use_shm,
    )


def main() -> None:
    segments_before = _shm_segments()
    workdir = Path(tempfile.mkdtemp(prefix="repro-zero-copy-"))
    try:
        # 1. The same fleet, two transports.  use_shm is an execution knob:
        #    it is excluded from the campaign fingerprint, and the results
        #    must be bit-for-bit identical.
        results, walls = {}, {}
        for label, use_shm in (("shm", True), ("pickled", False)):
            start = time.perf_counter()
            with CampaignRunner(_campaign(use_shm)) as runner:
                results[label] = runner.run()
            walls[label] = time.perf_counter() - start
        shm_run, pickled_run = results["shm"], results["pickled"]
        assert shm_run.fingerprint == pickled_run.fingerprint
        for a, b in zip(shm_run.granules, pickled_run.granules):
            for beam in a.products.freeboard:
                np.testing.assert_array_equal(
                    a.products.freeboard[beam].freeboard_m,
                    b.products.freeboard[beam].freeboard_m,
                )
        np.testing.assert_array_equal(
            shm_run.metrics.confusion, pickled_run.metrics.confusion
        )
        print(
            f"\n{shm_run.n_granules}-granule fleet, 2 process workers: "
            f"shm fan-out {walls['shm']:.2f}s vs pickled {walls['pickled']:.2f}s "
            f"— products bit-identical"
        )

        # 2. Serve the same products from both on-disk layouts.  The raw
        #    layout answers cold zoom-0 tiles from a memory-mapped window;
        #    npz inflates the archive and builds the pyramid.  Same bytes.
        responses = {}
        for layout in ("npz", "raw"):
            serve = replace(BASE.serve, product_format=layout)
            config = replace(_campaign(True), base=replace(BASE, serve=serve))
            with CampaignRunner(config) as runner:
                with runner.serve(str(workdir / f"products-{layout}")) as handle:
                    request = TileRequest(
                        bbox=handle.catalog.extent(),
                        variable="freeboard_mean",
                        zoom=0,
                    )
                    responses[layout] = handle.query(request)
        from_npz, from_raw = responses["npz"], responses["raw"]
        assert set(from_raw.tiles) == set(from_npz.tiles)
        for key in from_npz.tiles:
            assert from_raw.tiles[key].tobytes() == from_npz.tiles[key].tobytes()
            assert not from_raw.tiles[key].flags.writeable  # served read-only
        print(
            f"served {from_raw.n_tiles} tiles from the raw mmap layout, "
            f"byte-identical to the npz decode path"
        )

        # 3. Nothing leaked: every shared segment was unlinked on close.
        leaked = _shm_segments() - segments_before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
        print("no shared-memory segments leaked")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
