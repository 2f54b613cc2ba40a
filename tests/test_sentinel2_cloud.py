"""Tests for the thin-cloud and shadow synthesis."""

import numpy as np
import pytest

from repro.sentinel2.cloud import CloudConfig, apply_clouds_and_shadows, synthesize_cloud_fields


class TestCloudConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"thin_cloud_fraction": 1.5},
            {"shadow_fraction": -0.1},
            {"max_optical_depth": -1.0},
            {"shadow_darkening": 2.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CloudConfig(**kwargs)


class TestSynthesizeCloudFields:
    def test_fraction_of_cloudy_pixels(self):
        cfg = CloudConfig(thin_cloud_fraction=0.3)
        tau, shadow = synthesize_cloud_fields((200, 200), cfg, rng=0)
        assert (tau > 0).mean() == pytest.approx(0.3, abs=0.05)
        assert shadow.mean() == pytest.approx(cfg.shadow_fraction, abs=0.02)

    def test_optical_depth_bounded(self):
        cfg = CloudConfig(max_optical_depth=0.6)
        tau, _ = synthesize_cloud_fields((100, 100), cfg, rng=1)
        assert tau.max() <= 0.6 + 1e-12
        assert tau.min() >= 0.0

    def test_zero_cloud_fraction(self):
        cfg = CloudConfig(thin_cloud_fraction=0.0)
        tau, shadow = synthesize_cloud_fields((50, 50), cfg, rng=2)
        assert tau.max() == 0.0
        assert not shadow.any()

    def test_deterministic_in_seed(self):
        cfg = CloudConfig()
        a = synthesize_cloud_fields((64, 64), cfg, rng=5)
        b = synthesize_cloud_fields((64, 64), cfg, rng=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            synthesize_cloud_fields((0, 10), CloudConfig())


class TestApplyCloudsAndShadows:
    def test_clouds_brighten_dark_surfaces(self):
        cfg = CloudConfig(cloud_reflectance=0.85)
        reflect = np.full((4, 10, 10), 0.05)
        tau = np.full((10, 10), 0.8)
        out = apply_clouds_and_shadows(reflect, tau, np.zeros((10, 10), dtype=bool), cfg)
        assert np.all(out > reflect)

    def test_shadows_darken(self):
        cfg = CloudConfig(shadow_darkening=0.5)
        reflect = np.full((4, 10, 10), 0.6)
        shadow = np.zeros((10, 10), dtype=bool)
        shadow[2:5, 2:5] = True
        out = apply_clouds_and_shadows(reflect, np.zeros((10, 10)), shadow, cfg)
        assert np.allclose(out[:, 2:5, 2:5], 0.3)
        assert np.allclose(out[:, 0, 0], 0.6)

    def test_zero_optical_depth_is_identity(self):
        reflect = np.random.default_rng(0).uniform(0, 1, (4, 8, 8))
        out = apply_clouds_and_shadows(
            reflect, np.zeros((8, 8)), np.zeros((8, 8), dtype=bool), CloudConfig()
        )
        np.testing.assert_allclose(out, reflect)

    def test_input_stack_is_left_unchanged(self):
        rng = np.random.default_rng(1)
        reflect = rng.uniform(0, 1, (4, 8, 8))
        before = reflect.copy()
        shadow = rng.random((8, 8)) < 0.3
        out = apply_clouds_and_shadows(reflect, rng.uniform(0, 0.8, (8, 8)), shadow)
        np.testing.assert_array_equal(reflect, before)
        assert not np.array_equal(out, reflect)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_clouds_and_shadows(np.zeros((4, 8, 8)), np.zeros((6, 6)), np.zeros((8, 8), dtype=bool))
        with pytest.raises(ValueError):
            apply_clouds_and_shadows(np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
