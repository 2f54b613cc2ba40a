"""Tests for the Sentinel-2 scene renderer."""

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE, CLASS_THIN_ICE
from repro.sentinel2.cloud import CloudConfig
from repro.sentinel2.scene import BAND_NAMES, S2Image, S2SceneConfig, render_scene


class TestRenderScene:
    def test_band_stack_shape_and_range(self, s2_image, scene):
        assert s2_image.bands.shape == (4, scene.config.ny, scene.config.nx)
        assert s2_image.bands.min() >= 0.0
        assert s2_image.bands.max() <= 1.0

    def test_band_stack_is_c_ordered_float64(self, s2_image):
        assert s2_image.bands.dtype == np.float64
        assert s2_image.bands.flags.c_contiguous

    def test_thick_ice_brighter_than_water(self, s2_image, scene):
        brightness = s2_image.bands[:3].mean(axis=0)
        thick = scene.class_map == CLASS_THICK_ICE
        water = scene.class_map == CLASS_OPEN_WATER
        assert brightness[thick].mean() > brightness[water].mean() + 0.3

    def test_thin_ice_intermediate(self, s2_image, scene):
        brightness = s2_image.bands[:3].mean(axis=0)
        thick = brightness[scene.class_map == CLASS_THICK_ICE].mean()
        thin = brightness[scene.class_map == CLASS_THIN_ICE].mean()
        water = brightness[scene.class_map == CLASS_OPEN_WATER].mean()
        assert water < thin < thick

    def test_deterministic_in_seed(self, scene):
        a = render_scene(scene, config=S2SceneConfig(seed=4), rng=4)
        b = render_scene(scene, config=S2SceneConfig(seed=4), rng=4)
        np.testing.assert_array_equal(a.bands, b.bands)

    def test_drift_offsets_georeferencing_only(self, scene):
        plain = render_scene(scene, drift_offset_m=(0.0, 0.0), rng=9)
        drifted = render_scene(scene, drift_offset_m=(200.0, -100.0), rng=9)
        np.testing.assert_array_equal(plain.bands, drifted.bands)
        assert drifted.origin_x_m - plain.origin_x_m == pytest.approx(200.0)
        assert drifted.origin_y_m - plain.origin_y_m == pytest.approx(-100.0)

    def test_cloud_free_configuration(self, scene):
        cfg = S2SceneConfig(cloud=CloudConfig(thin_cloud_fraction=0.0, shadow_fraction=0.0))
        image = render_scene(scene, config=cfg, rng=2)
        assert image.cloud_optical_depth.max() == 0.0
        assert not image.shadow_mask.any()


class TestS2Image:
    def test_band_lookup_by_name(self, s2_image):
        for i, name in enumerate(BAND_NAMES):
            np.testing.assert_array_equal(s2_image.band(name), s2_image.bands[i])

    def test_unknown_band_rejected(self, s2_image):
        with pytest.raises(KeyError):
            s2_image.band("B12")

    def test_pixel_index_round_trip(self, s2_image):
        # The centre of pixel (row=3, col=8) maps back to (3, 8).
        x = s2_image.origin_x_m + (8 + 0.5) * s2_image.pixel_size_m
        y = s2_image.origin_y_m + (3 + 0.5) * s2_image.pixel_size_m
        row, col = s2_image.pixel_index(np.array([x]), np.array([y]))
        assert row[0] == 3 and col[0] == 8

    def test_contains(self, s2_image):
        ny, nx = s2_image.shape
        x_inside = s2_image.origin_x_m + 0.5 * nx * s2_image.pixel_size_m
        y_inside = s2_image.origin_y_m + 0.5 * ny * s2_image.pixel_size_m
        assert bool(s2_image.contains(np.array([x_inside]), np.array([y_inside]))[0])
        assert not bool(s2_image.contains(np.array([s2_image.origin_x_m - 1.0]), np.array([y_inside]))[0])

    def test_shifted_preserves_pixels(self, s2_image):
        moved = s2_image.shifted(55.0, -20.0)
        assert moved.origin_x_m == pytest.approx(s2_image.origin_x_m + 55.0)
        assert moved.origin_y_m == pytest.approx(s2_image.origin_y_m - 20.0)
        np.testing.assert_array_equal(moved.bands, s2_image.bands)

    def test_invalid_band_stack_rejected(self):
        with pytest.raises(ValueError):
            S2Image(
                bands=np.zeros((3, 4, 4)),
                origin_x_m=0.0,
                origin_y_m=0.0,
                pixel_size_m=10.0,
                acquisition_time=datetime(2019, 11, 4, tzinfo=timezone.utc),
                cloud_optical_depth=np.zeros((4, 4)),
                shadow_mask=np.zeros((4, 4), dtype=bool),
                truth_class_map=np.zeros((4, 4), dtype=np.int8),
            )
