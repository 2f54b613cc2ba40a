"""Integration tests: the full Fig. 1 workflow on a small scene."""

import numpy as np
import pytest

from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import (
    ExperimentConfig,
    prepare_experiment_data,
    run_end_to_end,
)
from tests.test_science_gate import assert_seed_means_inside_parent_bands


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        scene=SceneConfig(width_m=10_000.0, height_m=10_000.0, open_water_fraction=0.12,
                          thin_ice_fraction=0.18, thick_ice_fraction=0.70, n_leads=8),
        epochs=3,
        seed=7,
        drift_m=(120.0, 180.0),
    )


@pytest.fixture(scope="module")
def outputs(small_config):
    return run_end_to_end(small_config)


class TestPrepareExperimentData:
    def test_stage1_products_consistent(self, small_config):
        data = prepare_experiment_data(small_config)
        assert set(data.segments) == set(data.granule.beam_names)
        for name, seg in data.segments.items():
            assert data.labels[name].shape[0] == seg.n_segments
            assert data.auto_labels[name].n_segments == seg.n_segments

    def test_labels_are_reasonably_accurate(self, outputs):
        data = outputs.data
        for name, seg in data.segments.items():
            labels = data.labels[name]
            truth = seg.truth_class
            valid = (labels >= 0) & (truth >= 0)
            accuracy = (labels[valid] == truth[valid]).mean()
            assert accuracy > 0.75

    def test_combined_segments_concatenate_beams(self, outputs):
        segments, labels = outputs.data.combined_segments_and_labels()
        total = sum(s.n_segments for s in outputs.data.segments.values())
        assert segments.n_segments == total
        assert labels.shape[0] == total


class TestEndToEndOutputs:
    def test_classifier_accuracy(self, outputs):
        # Small scene and 3 epochs: well below the paper's 96.56 % but the
        # model must clearly beat chance (33 %) and the majority class is not
        # enough to reach this bar together with macro-averaged recall.
        assert outputs.classifier.accuracy > 0.80

    def test_classification_matches_simulator_truth(self, science_gate_measurement):
        # One seed's scene can leave training short, so the first track's
        # agreement with the truth is checked as its mean over the science
        # gate's seeds.
        assert_seed_means_inside_parent_bands(
            science_gate_measurement, ["truth agreement, first track"]
        )

    def test_freeboard_products_present_for_every_beam(self, outputs):
        assert set(outputs.freeboard) == set(outputs.classified)
        assert set(outputs.atl07) == set(outputs.classified)
        assert set(outputs.atl10) == set(outputs.classified)

    def test_freeboard_tracks_truth(self, outputs):
        name = sorted(outputs.freeboard)[0]
        fb = outputs.freeboard[name]
        seg = outputs.classified[name].segments
        truth_fb = outputs.data.scene.freeboard(seg.x_m, seg.y_m)
        ice = fb.ice_mask()
        bias = np.nanmean(fb.freeboard_m[ice] - truth_fb[ice])
        assert abs(bias) < 0.35

    def test_higher_resolution_than_baseline(self, outputs):
        """The paper's headline claim: the 2 m product is far denser than ATL07/ATL10."""
        name = sorted(outputs.freeboard)[0]
        fb = outputs.freeboard[name]
        atl07 = outputs.atl07[name]
        atl03_per_km = fb.n_segments / ((fb.along_track_m.max() - fb.along_track_m.min()) / 1000.0)
        assert atl03_per_km > 5.0 * atl07.points_per_km()

    def test_sea_surface_within_physical_range(self, outputs):
        name = sorted(outputs.freeboard)[0]
        fb = outputs.freeboard[name]
        scene = outputs.data.scene
        seg = outputs.classified[name].segments
        truth_sl = scene.sea_level(seg.x_m, seg.y_m)
        assert np.nanmean(np.abs(fb.sea_surface_m - truth_sl)) < 0.35

    def test_drift_estimate_recorded(self, outputs):
        assert outputs.data.drift is not None
        assert outputs.data.drift.distance_m <= 800.0 * np.sqrt(2) + 1e-6

    def test_mlp_variant_runs(self, small_config):
        import dataclasses

        cfg = dataclasses.replace(small_config, model_kind="mlp", epochs=2)
        outputs = run_end_to_end(cfg)
        assert outputs.classifier.kind == "mlp"
        assert outputs.classifier.accuracy > 0.6
