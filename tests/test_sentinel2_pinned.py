"""Pinned bytes of the Sentinel-2 renderer and segmentation.

Two kinds of check keep ``render_scene`` and ``segment_image`` byte-stable:

* sha256 pins of every output array on the shared 8 km test scene, over
  thin-cloud fractions {0, 0.15, 0.4} x shadow fractions {0, 0.04};
* byte-equality against whole-image references kept here (one pass over
  the full ``(4, ny, nx)`` stack per step), on image heights around the
  row block that both functions process the image in.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE, CLASS_THIN_ICE
from repro.sentinel2.cloud import CloudConfig, synthesize_cloud_fields
from repro.sentinel2.scene import (
    _BLOCK_ROWS,
    CLASS_REFLECTANCE,
    S2Image,
    S2SceneConfig,
    render_scene,
)
from repro.sentinel2.segmentation import (
    SegmentationConfig,
    compensate,
    detect_shadows,
    detect_thin_clouds,
    segment_image,
)
from repro.surface.scene import IceScene, SceneConfig

#: Image heights around the row block that both functions work in.
HEIGHTS = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3)


def digest(array: np.ndarray) -> str:
    """First 12 hex digits of the sha256 of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}:{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()[:12]


#: ``(thin_cloud_fraction, shadow_fraction)`` -> digest of each output array
#: of ``render_scene`` (seed 21) and ``segment_image`` on the 8 km scene.
PINS = {
    (0.0, 0.0): {
        "bands": "6db1b2d83c00",
        "cloud_optical_depth": "14fa4e6df83a",
        "image_shadow_mask": "e2dbb0145df0",
        "class_map": "0454b0f1f67a",
        "cloud_mask": "5b590ce4abee",
        "shadow_mask": "5bf2792f1015",
    },
    (0.0, 0.04): {
        "bands": "6db1b2d83c00",
        "cloud_optical_depth": "14fa4e6df83a",
        "image_shadow_mask": "e2dbb0145df0",
        "class_map": "0454b0f1f67a",
        "cloud_mask": "5b590ce4abee",
        "shadow_mask": "5bf2792f1015",
    },
    (0.15, 0.0): {
        "bands": "08f9b8cc7ad7",
        "cloud_optical_depth": "e461ec2ce955",
        "image_shadow_mask": "e2dbb0145df0",
        "class_map": "f5e0f6e8ea0b",
        "cloud_mask": "d7836ae84f31",
        "shadow_mask": "1355ab3030bc",
    },
    (0.15, 0.04): {
        "bands": "415d9db3f4cf",
        "cloud_optical_depth": "e461ec2ce955",
        "image_shadow_mask": "810ab0ce39c6",
        "class_map": "c05c629c8d96",
        "cloud_mask": "06878cc5ff2a",
        "shadow_mask": "ea7677926dc1",
    },
    (0.4, 0.0): {
        "bands": "0d305a9f7523",
        "cloud_optical_depth": "a7de7bd4bf56",
        "image_shadow_mask": "e2dbb0145df0",
        "class_map": "12fc30d0f468",
        "cloud_mask": "20168c3174b6",
        "shadow_mask": "305b72b685d4",
    },
    (0.4, 0.04): {
        "bands": "bdf9fa715a33",
        "cloud_optical_depth": "a7de7bd4bf56",
        "image_shadow_mask": "810ab0ce39c6",
        "class_map": "9d22c7f1df9b",
        "cloud_mask": "3675cf3995c5",
        "shadow_mask": "305b72b685d4",
    },
}


@pytest.mark.parametrize("fractions", sorted(PINS))
def test_outputs_match_their_pins(scene, fractions):
    thin_cloud_fraction, shadow_fraction = fractions
    cloud = CloudConfig(thin_cloud_fraction=thin_cloud_fraction, shadow_fraction=shadow_fraction)
    image = render_scene(scene, config=S2SceneConfig(seed=21, cloud=cloud), rng=21)
    result = segment_image(image)
    arrays = {
        "bands": image.bands,
        "cloud_optical_depth": image.cloud_optical_depth,
        "image_shadow_mask": image.shadow_mask,
        "class_map": result.class_map,
        "cloud_mask": result.cloud_mask,
        "shadow_mask": result.shadow_mask,
    }
    assert {name: digest(a) for name, a in arrays.items()} == PINS[fractions]


def render_whole_image(scene, config, rng):
    """``render_scene``'s pixels computed over the whole image at once."""
    rng = np.random.default_rng(rng)
    class_map = scene.class_map
    ny, nx = class_map.shape
    reflect = np.take(CLASS_REFLECTANCE.T, class_map, axis=1)
    reflect += config.texture_noise * rng.standard_normal((1, ny, nx))
    if config.ridge_brightening > 0:
        ridge_boost = np.clip(scene.freeboard_map - 0.6, 0.0, None)
        reflect += config.ridge_brightening * ridge_boost[None, :, :]
    optical_depth, shadow_mask = synthesize_cloud_fields((ny, nx), config.cloud, rng)
    transmittance = np.exp(-optical_depth)
    out = transmittance * reflect
    out += (1.0 - transmittance) * config.cloud.cloud_reflectance
    out[:, shadow_mask] *= 1.0 - config.cloud.shadow_darkening
    np.clip(out, 0.0, 1.0, out=out)
    return out, optical_depth, shadow_mask


def random_scene(ny: int, nx: int, seed: int) -> IceScene:
    """A scene of random classes and freeboards, ridges included."""
    rng = np.random.default_rng(seed)
    config = SceneConfig(width_m=10.0 * nx, height_m=10.0 * ny)
    class_map = rng.integers(0, 3, size=(ny, nx)).astype(np.int8)
    freeboard_map = rng.uniform(0.0, 1.5, size=(ny, nx))
    return IceScene(config, class_map, freeboard_map, (0.0, 0.0, 1.0, 0.0))


@pytest.mark.parametrize("ny", HEIGHTS)
@pytest.mark.parametrize("cloud", [(0.0, 0.0), (0.3, 0.0), (0.4, 0.1)])
def test_render_matches_the_whole_image_reference(ny, cloud):
    scene = random_scene(ny, 23, seed=ny)
    config = S2SceneConfig(
        cloud=CloudConfig(
            thin_cloud_fraction=cloud[0], shadow_fraction=cloud[1], shadow_offset_px=(3, 2)
        )
    )
    image = render_scene(scene, config=config, rng=5)
    bands, optical_depth, shadow_mask = render_whole_image(scene, config, 5)
    assert image.bands.tobytes() == bands.tobytes()
    assert image.cloud_optical_depth.tobytes() == optical_depth.tobytes()
    assert image.shadow_mask.tobytes() == shadow_mask.tobytes()


def segment_whole_image(bands, config):
    """``segment_image``'s outputs computed over the whole image at once."""
    cloud_mask = detect_thin_clouds(bands, config)
    shadow_mask = detect_shadows(bands, config) & ~cloud_mask
    compensated = compensate(bands, cloud_mask, shadow_mask, config)

    brightness = compensated[:3].mean(axis=0)
    green = compensated[1]
    nir = compensated[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        ndwi = np.where(green + nir > 1e-6, (green - nir) / np.maximum(green + nir, 1e-6), 0.0)

    class_map = np.full(brightness.shape, CLASS_THIN_ICE, dtype=np.int8)
    class_map[brightness >= config.thick_ice_brightness] = CLASS_THICK_ICE
    water = (brightness < config.thin_ice_brightness) | (
        (brightness < config.thick_ice_brightness * 0.6) & (ndwi > config.water_ndwi)
    )
    class_map[water] = CLASS_OPEN_WATER
    return class_map, cloud_mask, shadow_mask, brightness


@st.composite
def band_stacks(draw):
    """Bands of one of the heights around the block, mixing flat (cloud-like),
    dark NIR-bright (shadow-like) and arbitrary spectra, with NaNs and values
    outside [0, 1]."""
    ny = draw(st.sampled_from(HEIGHTS))
    nx = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = rng.uniform(-0.2, 1.3, size=(1, ny, nx))
    spread = draw(st.sampled_from([0.0, 0.02, 0.3]))
    bands = level + spread * rng.standard_normal((4, ny, nx))
    bands[3] *= rng.uniform(0.0, 1.5, size=(ny, nx))
    nan_fraction = draw(st.sampled_from([0.0, 0.05, 0.5]))
    bands[rng.random((4, ny, nx)) < nan_fraction] = np.nan
    return bands


def s2_image(bands: np.ndarray) -> S2Image:
    _, ny, nx = bands.shape
    return S2Image(
        bands=bands,
        origin_x_m=0.0,
        origin_y_m=0.0,
        pixel_size_m=10.0,
        acquisition_time=datetime(2019, 11, 4, tzinfo=timezone.utc),
        cloud_optical_depth=np.zeros((ny, nx)),
        shadow_mask=np.zeros((ny, nx), dtype=bool),
        truth_class_map=np.zeros((ny, nx), dtype=np.int8),
    )


@given(band_stacks())
@settings(max_examples=150, deadline=None)
def test_segmentation_matches_the_whole_image_reference(bands):
    config = SegmentationConfig()
    before = bands.tobytes()
    result = segment_image(s2_image(bands), config)
    expected = segment_whole_image(bands, config)
    got = (result.class_map, result.cloud_mask, result.shadow_mask)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert g.tobytes() == e.tobytes()
    assert bands.tobytes() == before
