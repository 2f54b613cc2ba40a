"""Shared fixtures: a small Ross Sea scene, a simulated beam and labelled segments.

The fixtures are session-scoped because scene generation and photon
simulation are the slowest steps; all tests treat them as read-only inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the test suite from a source checkout without installing.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.atl03.simulator import ATL03SimulatorConfig, simulate_beam, simulate_granule
from repro.resampling.window import resample_fixed_window
from repro.sentinel2.scene import S2SceneConfig, render_scene
from repro.sentinel2.segmentation import segment_image
from repro.surface.scene import SceneConfig, generate_scene
from repro.surface.track import generate_track


@pytest.fixture(scope="session")
def scene():
    """A 8 km x 8 km synthetic Ross Sea scene with leads and ridges."""
    return generate_scene(SceneConfig(width_m=8_000.0, height_m=8_000.0, seed=3))


@pytest.fixture(scope="session")
def track(scene):
    """A ~6 km track through the session scene."""
    return generate_track(scene, length_m=6_000.0, rng=5)


@pytest.fixture(scope="session")
def beam(scene, track):
    """One simulated strong beam along the session track."""
    return simulate_beam(scene, track, config=ATL03SimulatorConfig(), rng=11)


@pytest.fixture(scope="session")
def granule(scene):
    """A simulated single-beam granule (kept small for speed)."""
    return simulate_granule(scene, n_beams=1, track_length_m=6_000.0, rng=13)


@pytest.fixture(scope="session")
def segments(beam):
    """2 m resampled segments of the session beam."""
    return resample_fixed_window(beam)


@pytest.fixture(scope="session")
def s2_image(scene):
    """A simulated Sentinel-2 acquisition of the session scene (no drift)."""
    return render_scene(scene, config=S2SceneConfig(seed=21), drift_offset_m=(0.0, 0.0), rng=21)


@pytest.fixture(scope="session")
def s2_segmentation(s2_image):
    """Color-based segmentation of the session S2 image."""
    return segment_image(s2_image)


@pytest.fixture(scope="session")
def labeled_segments(segments):
    """(segments, labels) where labels are the simulator ground truth.

    Using the truth labels keeps the classifier tests independent of the
    auto-labeling quality.
    """
    return segments, segments.truth_class.copy()


@pytest.fixture(scope="session")
def science_gate_measurement():
    """The science gate's statistics on its seeds, measured once for every test that checks them."""
    from tests.test_science_gate import measure

    return measure()


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
