"""Tests for the color-based segmentation with cloud/shadow filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE, CLASS_THIN_ICE
from repro.sentinel2.cloud import CloudConfig
from repro.sentinel2.scene import S2SceneConfig, render_scene
from repro.sentinel2.segmentation import (
    SegmentationConfig,
    compensate,
    detect_shadows,
    detect_thin_clouds,
    segment_image,
)


class TestSegmentationConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            SegmentationConfig(thick_ice_brightness=0.2, thin_ice_brightness=0.5)

    def test_shadow_recovery_range(self):
        with pytest.raises(ValueError):
            SegmentationConfig(shadow_recovery=1.0)


class TestSegmentImage:
    def test_overall_accuracy_against_truth(self, s2_image, s2_segmentation):
        truth = s2_image.truth_class_map
        acc = (s2_segmentation.class_map == truth).mean()
        assert acc > 0.80

    def test_clear_sky_accuracy_is_higher(self, scene):
        clear = render_scene(
            scene,
            config=S2SceneConfig(cloud=CloudConfig(thin_cloud_fraction=0.0, shadow_fraction=0.0)),
            rng=6,
        )
        result = segment_image(clear)
        acc = (result.class_map == clear.truth_class_map).mean()
        assert acc > 0.9

    def test_per_class_recall(self, s2_image, s2_segmentation):
        truth = s2_image.truth_class_map
        pred = s2_segmentation.class_map
        for cls in (CLASS_THICK_ICE, CLASS_THIN_ICE, CLASS_OPEN_WATER):
            mask = truth == cls
            if mask.any():
                assert (pred[mask] == cls).mean() > 0.4

    def test_class_map_values_valid(self, s2_segmentation):
        assert set(np.unique(s2_segmentation.class_map)).issubset(
            {CLASS_THICK_ICE, CLASS_THIN_ICE, CLASS_OPEN_WATER}
        )

    def test_result_fractions_sum_to_one(self, s2_segmentation):
        fractions = s2_segmentation.class_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_invalid_band_stack_rejected(self, s2_image):
        import dataclasses

        broken = dataclasses.replace(s2_image)
        broken.bands = np.zeros((2, 4, 4))
        with pytest.raises(ValueError):
            segment_image(broken)


class TestCloudShadowDetection:
    def test_cloud_detection_overlaps_true_clouds(self, scene):
        cloudy = render_scene(
            scene,
            config=S2SceneConfig(cloud=CloudConfig(thin_cloud_fraction=0.35, max_optical_depth=0.7)),
            rng=8,
        )
        result = segment_image(cloudy)
        true_cloud = cloudy.cloud_optical_depth > 0.3
        if true_cloud.any() and result.cloud_mask.any():
            # Detected clouds should be enriched in truly cloudy pixels
            # compared to the overall cloud fraction.
            precision = true_cloud[result.cloud_mask].mean()
            assert precision > true_cloud.mean()

    def test_detect_shadows_flags_dark_high_nir(self):
        cfg = SegmentationConfig()
        bands = np.zeros((4, 4, 4))
        bands[:3, 0, 0] = 0.1   # dark visible
        bands[3, 0, 0] = 0.09   # relatively high NIR -> shadowed ice
        bands[:3, 1, 1] = 0.06  # dark visible
        bands[3, 1, 1] = 0.005  # black NIR -> open water, not shadow
        shadows = detect_shadows(bands, cfg)
        assert bool(shadows[0, 0])
        assert not bool(shadows[1, 1])

    def test_detect_thin_clouds_requires_flat_spectrum(self):
        cfg = SegmentationConfig()
        bands = np.zeros((4, 2, 2))
        # Spectrally flat, moderately bright, NIR-bright: thin cloud.
        bands[:, 0, 0] = [0.45, 0.45, 0.44, 0.40]
        # Equally bright but spectrally tilted: not a cloud.
        bands[:, 1, 1] = [0.60, 0.45, 0.30, 0.28]
        clouds = detect_thin_clouds(bands, cfg)
        assert bool(clouds[0, 0])
        assert not bool(clouds[1, 1])


def compensate_by_full_arrays(bands, cloud_mask, shadow_mask, config):
    """The whole-image formulation of ``compensate``: a transmittance for
    every pixel (1 outside clouds), the inversion applied to the full
    ``(4, ny, nx)`` stack, shadows selected with ``np.where``."""
    out = np.array(bands, copy=True)
    if cloud_mask.any():
        brightness = bands[:3].mean(axis=0)
        t = np.clip(
            (config.cloud_reflectance - brightness)
            / max(config.cloud_reflectance - config.thin_ice_brightness, 1e-6),
            0.2,
            1.0,
        )
        t = np.where(cloud_mask, t, 1.0)
        out = (out - (1.0 - t)[None] * config.cloud_reflectance) / t[None]
    if shadow_mask.any():
        factor = 1.0 / (1.0 - config.shadow_recovery)
        out = np.where(shadow_mask[None], out * factor, out)
    return np.clip(out, 0.0, 1.0)


@st.composite
def compensation_inputs(draw):
    ny = draw(st.integers(1, 6))
    nx = draw(st.integers(1, 6))
    reflectance = st.one_of(
        st.floats(-0.2, 1.3, allow_nan=False, allow_infinity=False),
        st.just(float("nan")),
    )
    bands = np.array(
        draw(st.lists(reflectance, min_size=4 * ny * nx, max_size=4 * ny * nx)),
        dtype=float,
    ).reshape(4, ny, nx)

    def mask():
        kind = draw(st.sampled_from(["empty", "full", "random"]))
        if kind == "empty":
            return np.zeros((ny, nx), dtype=bool)
        if kind == "full":
            return np.ones((ny, nx), dtype=bool)
        flags = draw(st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx))
        return np.array(flags, dtype=bool).reshape(ny, nx)

    # The two masks are drawn independently, so they overlap freely.
    return bands, mask(), mask()


class TestCompensate:
    @given(compensation_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_the_whole_image_formulation(self, inputs):
        bands, cloud_mask, shadow_mask = inputs
        cfg = SegmentationConfig()
        before = bands.tobytes()
        expected = compensate_by_full_arrays(bands, cloud_mask, shadow_mask, cfg)
        got = compensate(bands, cloud_mask, shadow_mask, cfg)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert bands.tobytes() == before  # the caller's bands are untouched

    def test_bytes_match_on_a_rendered_cloudy_scene(self, scene):
        image = render_scene(
            scene,
            config=S2SceneConfig(
                cloud=CloudConfig(thin_cloud_fraction=0.4, shadow_fraction=0.2)
            ),
            rng=9,
        )
        cfg = SegmentationConfig()
        bands = np.asarray(image.bands, dtype=float)
        cloud_mask = detect_thin_clouds(bands, cfg)
        shadow_mask = detect_shadows(bands, cfg) & ~cloud_mask
        assert cloud_mask.any() and shadow_mask.any()
        expected = compensate_by_full_arrays(bands, cloud_mask, shadow_mask, cfg)
        got = compensate(bands, cloud_mask, shadow_mask, cfg)
        assert got.tobytes() == expected.tobytes()
