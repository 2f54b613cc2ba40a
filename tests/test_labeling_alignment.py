"""Tests for drift estimation and image re-alignment."""

import numpy as np
import pytest

from repro.labeling.alignment import DriftEstimate, apply_shift, estimate_drift
from repro.sentinel2.scene import render_scene
from repro.sentinel2.segmentation import segment_image
from tests.test_science_gate import assert_seed_means_inside_parent_bands


class TestDriftEstimate:
    def test_distance_and_direction(self):
        est = DriftEstimate(dx_m=-300.0, dy_m=300.0, score=0.5, n_candidates=10)
        assert est.distance_m == pytest.approx(np.hypot(300, 300))
        assert est.direction == "NW"

    def test_zero_shift_has_empty_direction(self):
        est = DriftEstimate(0.0, 0.0, 0.1, 5)
        assert est.direction == ""
        assert est.distance_m == 0.0

    @pytest.mark.parametrize(
        "dx,dy,expected",
        [(0, 100, "N"), (100, 0, "E"), (0, -100, "S"), (-100, 0, "W"), (100, 100, "NE")],
    )
    def test_compass_directions(self, dx, dy, expected):
        assert DriftEstimate(dx, dy, 0.0, 1).direction == expected


class TestEstimateDrift:
    def test_recovers_injected_drift(self, science_gate_measurement):
        # One scene can defeat the estimator, so the error of the recovered
        # drift is checked as its mean over the science gate's seeds.
        assert_seed_means_inside_parent_bands(
            science_gate_measurement, ["drift-recovery error (m)"]
        )

    def test_no_drift_gives_small_shift(self, s2_image, s2_segmentation, segments):
        est = estimate_drift(
            s2_image,
            s2_segmentation.class_map,
            segments.x_m,
            segments.y_m,
            segments.height_mean_m,
            max_shift_m=300.0,
        )
        assert est.distance_m <= 150.0

    def test_alignment_improves_label_accuracy(self, scene, segments):
        from repro.labeling.autolabel import auto_label_segments

        true_drift = (250.0, 200.0)
        drifted = render_scene(scene, drift_offset_m=true_drift, rng=33)
        seg_result = segment_image(drifted)
        before = auto_label_segments(segments, drifted, seg_result)
        est = estimate_drift(
            drifted, seg_result.class_map, segments.x_m, segments.y_m, segments.height_mean_m
        )
        after = auto_label_segments(segments, apply_shift(drifted, est), seg_result)
        truth = segments.truth_class
        valid_b = before.labels >= 0
        valid_a = after.labels >= 0
        acc_before = (before.labels[valid_b] == truth[valid_b]).mean()
        acc_after = (after.labels[valid_a] == truth[valid_a]).mean()
        assert acc_after >= acc_before - 0.02

    def test_invalid_arguments_rejected(self, s2_image, s2_segmentation, segments):
        with pytest.raises(ValueError):
            estimate_drift(
                s2_image, s2_segmentation.class_map,
                segments.x_m, segments.y_m, segments.height_mean_m,
                coarse_step_m=0.0,
            )
        with pytest.raises(ValueError):
            estimate_drift(
                s2_image, s2_segmentation.class_map,
                segments.x_m[:-1], segments.y_m, segments.height_mean_m,
            )

    def test_all_nan_heights_rejected(self, s2_image, s2_segmentation, segments):
        nan_heights = np.full(segments.n_segments, np.nan)
        with pytest.raises(ValueError):
            estimate_drift(
                s2_image, s2_segmentation.class_map, segments.x_m, segments.y_m, nan_heights
            )


class TestApplyShift:
    def test_shift_moves_origin(self, s2_image):
        est = DriftEstimate(dx_m=120.0, dy_m=-60.0, score=1.0, n_candidates=1)
        shifted = apply_shift(s2_image, est)
        assert shifted.origin_x_m == pytest.approx(s2_image.origin_x_m + 120.0)
        assert shifted.origin_y_m == pytest.approx(s2_image.origin_y_m - 60.0)
