"""Pinned Level-3 mosaic of a 4-granule fleet, per kernel backend.

The fleet is the end-to-end benchmark's: 8 km granules, the MLP classifier,
100 m Level-3 cells, season {winter, freeze_up} x cloud {0.15, 0.4}, run
serially at campaign seed 1.  Its mosaic digest covers every stage from
scene synthesis to gridding, so a change anywhere in that chain that moves
a byte shows up here.

The two backends pin different digests.  The sea-surface kernels agree to
1e-10, not to the byte (``tests/test_kernels_equivalence.py``), and the
last bits of the reference heights reach the mosaic's freeboards.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import kernels
from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

BASE = ExperimentConfig(
    scene=SceneConfig(
        width_m=8_000.0,
        height_m=8_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=8,
    ),
    epochs=2,
    model_kind="mlp",
    l3=L3GridConfig(cell_size_m=100.0),
)
GRID = {"season": ("winter", "freeze_up"), "cloud_fraction": (0.15, 0.4)}

#: First 12 hex digits of the mosaic digest at campaign seed 1.
PINS = {"vectorized": "6e2ba69a4c0d", "reference": "d57ef7f71e2f"}


def grid_digest(grid) -> str:
    """Hash of every variable's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name in sorted(grid.variables):
        array = np.ascontiguousarray(grid.variables[name])
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("backend", sorted(PINS))
def test_fleet_mosaic_matches_its_pin(tmp_path, backend):
    config = CampaignConfig(base=BASE, grid=GRID, seed=1, n_workers=1, cache_dir=str(tmp_path))
    with kernels.use_backend(backend), CampaignRunner(config) as runner:
        mosaic = runner.to_l3(runner.run()).mosaic
    assert grid_digest(mosaic)[:12] == PINS[backend]
