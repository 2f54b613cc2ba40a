"""Unit tests: scenario-grid expansion, axis application and fingerprints."""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign.config import (
    CampaignConfig,
    apply_scenario,
    granule_seed,
)
from repro.config import SEASON_PRESETS
from repro.workflow.end_to_end import ExperimentConfig


class TestApplyScenario:
    def test_alias_axis_reaches_nested_field(self):
        cfg = apply_scenario(ExperimentConfig(), {"cloud_fraction": 0.42})
        assert cfg.s2.cloud.thin_cloud_fraction == 0.42

    def test_dotted_path_axis(self):
        cfg = apply_scenario(ExperimentConfig(), {"atl03.solar_elevation_deg": 5.0})
        assert cfg.atl03.solar_elevation_deg == 5.0

    def test_top_level_axis(self):
        cfg = apply_scenario(ExperimentConfig(), {"n_beams": 3})
        assert cfg.n_beams == 3

    def test_season_sets_all_three_fractions(self):
        for season, preset in SEASON_PRESETS.items():
            cfg = apply_scenario(ExperimentConfig(), {"season": season})
            assert cfg.scene.thick_ice_fraction == preset["thick_ice_fraction"]
            assert cfg.scene.thin_ice_fraction == preset["thin_ice_fraction"]
            assert cfg.scene.open_water_fraction == preset["open_water_fraction"]
            total = (
                cfg.scene.thick_ice_fraction
                + cfg.scene.thin_ice_fraction
                + cfg.scene.open_water_fraction
            )
            assert total == pytest.approx(1.0)

    def test_unknown_season_raises(self):
        with pytest.raises(ValueError, match="unknown season"):
            apply_scenario(ExperimentConfig(), {"season": "monsoon"})

    def test_open_water_fraction_renormalizes_ice_fractions(self):
        base = ExperimentConfig()
        cfg = apply_scenario(base, {"open_water_fraction": 0.3})
        scene = cfg.scene
        assert scene.open_water_fraction == pytest.approx(0.3)
        total = (
            scene.thick_ice_fraction + scene.thin_ice_fraction + scene.open_water_fraction
        )
        assert total == pytest.approx(1.0)
        # Ice classes keep their relative proportions.
        assert scene.thick_ice_fraction / scene.thin_ice_fraction == pytest.approx(
            base.scene.thick_ice_fraction / base.scene.thin_ice_fraction
        )

    def test_open_water_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError, match="open_water_fraction"):
            apply_scenario(ExperimentConfig(), {"open_water_fraction": 1.0})

    def test_open_water_fraction_sweep_expands(self):
        specs = CampaignConfig(grid={"open_water_fraction": (0.05, 0.2)}).expand()
        assert [s.config.scene.open_water_fraction for s in specs] == [0.05, 0.2]

    def test_scalar_drift_becomes_magnitude(self):
        cfg = apply_scenario(ExperimentConfig(), {"drift_m": 500.0})
        assert cfg.drift_m == (300.0, 400.0)
        assert np.hypot(*cfg.drift_m) == pytest.approx(500.0)

    def test_tuple_drift_passes_through(self):
        cfg = apply_scenario(ExperimentConfig(), {"drift_m": (100.0, 200.0)})
        assert cfg.drift_m == (100.0, 200.0)

    def test_list_values_coerced_to_tuple(self):
        cfg = apply_scenario(ExperimentConfig(), {"drift_m": [100.0, 200.0]})
        assert cfg.drift_m == (100.0, 200.0)

    def test_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            apply_scenario(ExperimentConfig(), {"no_such_knob": 1})

    def test_unknown_nested_axis_raises(self):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            apply_scenario(ExperimentConfig(), {"scene.no_such_field": 1})


class TestExpansion:
    def test_grid_size_and_row_major_order(self):
        config = CampaignConfig(
            grid={"n_beams": (1, 2), "cloud_fraction": (0.1, 0.2, 0.3)}, seed=1
        )
        assert config.n_granules == 6
        specs = config.expand()
        assert len(specs) == 6
        # Row-major: the first axis varies slowest.
        beams = [spec.scenario_dict()["n_beams"] for spec in specs]
        clouds = [spec.scenario_dict()["cloud_fraction"] for spec in specs]
        assert beams == [1, 1, 1, 2, 2, 2]
        assert clouds == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]

    def test_granule_ids_unique_and_descriptive(self):
        specs = CampaignConfig(grid={"cloud_fraction": (0.1, 0.25)}).expand()
        ids = [spec.granule_id for spec in specs]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "g000-cloud_fraction=0.1"
        assert ids[1] == "g001-cloud_fraction=0.25"

    def test_granule_ids_sort_in_expansion_order_past_999(self):
        """The mosaic stacks in sorted-id order, so ids must sort like the fleet."""
        ids = [s.granule_id for s in CampaignConfig(replicates=1001).expand()]
        assert ids == sorted(ids)
        assert ids[0] == "g0000-r0"
        assert ids[-1] == "g1000-r1000"
        assert CampaignConfig(replicates=1000).expand()[-1].granule_id == "g999-r999"

    def test_scenario_applied_to_config(self):
        specs = CampaignConfig(grid={"cloud_fraction": (0.1, 0.25)}).expand()
        assert specs[0].config.s2.cloud.thin_cloud_fraction == 0.1
        assert specs[1].config.s2.cloud.thin_cloud_fraction == 0.25

    def test_replicates_multiply_and_get_distinct_seeds(self):
        config = CampaignConfig(grid={"n_beams": (1, 2)}, replicates=3, seed=9)
        specs = config.expand()
        assert len(specs) == 6
        assert all("-r" in spec.granule_id for spec in specs)
        seeds = [spec.config.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_expansion_is_deterministic(self):
        config = CampaignConfig(grid={"cloud_fraction": (0.1, 0.2)}, seed=4)
        first = config.expand()
        second = config.expand()
        assert [s.granule_id for s in first] == [s.granule_id for s in second]
        assert [s.config for s in first] == [s.config for s in second]

    def test_empty_grid_yields_single_granule(self):
        specs = CampaignConfig(seed=2).expand()
        assert len(specs) == 1
        assert specs[0].granule_id == "g000"
        assert specs[0].scenario == ()

    def test_grid_accepts_canonical_tuple_form(self):
        config = CampaignConfig(grid=(("n_beams", (1, 2)),))
        assert config.n_granules == 2


class TestGranuleSeed:
    def test_deterministic(self):
        assert granule_seed(7, 3) == granule_seed(7, 3)

    def test_varies_with_index_and_campaign_seed(self):
        seeds = {granule_seed(7, i) for i in range(16)}
        assert len(seeds) == 16
        assert granule_seed(7, 0) != granule_seed(8, 0)


class TestValidation:
    def test_bad_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            CampaignConfig(replicates=0)

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            CampaignConfig(n_workers=0)

    def test_bad_executor(self):
        with pytest.raises(ValueError, match="executor"):
            CampaignConfig(executor="spark")

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="at least one value"):
            CampaignConfig(grid={"cloud_fraction": ()})

    @pytest.mark.parametrize(
        "axis",
        [
            "model_kind",
            "epochs",
            "window_length_m",
            "seed",
            "training.learning_rate",
            "lstm.lstm_units",
        ],
    )
    def test_campaign_level_training_axes_rejected(self, axis):
        # One classifier is trained for the whole campaign: sweeping a
        # training knob per granule would be silently ignored, so it must
        # fail at construction.
        with pytest.raises(ValueError, match="campaign-wide"):
            CampaignConfig(grid={axis: (1, 2)})


class TestFingerprint:
    def test_invariant_to_execution_knobs(self):
        config = CampaignConfig(grid={"cloud_fraction": (0.1, 0.2)}, seed=3)
        assert config.fingerprint() == replace(config, n_workers=8).fingerprint()
        assert config.fingerprint() == replace(config, executor="thread").fingerprint()
        assert config.fingerprint() == replace(config, cache_dir="/tmp/x").fingerprint()
        assert config.fingerprint() == replace(config, use_shm=False).fingerprint()

    def test_sensitive_to_science_knobs(self):
        config = CampaignConfig(grid={"cloud_fraction": (0.1, 0.2)}, seed=3)
        assert config.fingerprint() != replace(config, seed=4).fingerprint()
        assert config.fingerprint() != replace(config, replicates=2).fingerprint()
        assert (
            config.fingerprint()
            != CampaignConfig(grid={"cloud_fraction": (0.1, 0.3)}, seed=3).fingerprint()
        )
        assert (
            config.fingerprint()
            != replace(
                config, base=replace(ExperimentConfig(), epochs=9)
            ).fingerprint()
        )

    def test_stable_across_calls(self):
        config = CampaignConfig(grid={"cloud_fraction": (0.1,)}, seed=3)
        assert config.fingerprint() == config.fingerprint()


class TestUniqueGranuleIds:
    def test_expansion_ids_are_unique(self):
        config = CampaignConfig(
            grid={"cloud_fraction": (0.1, 0.2), "n_beams": (1, 2)}, replicates=2
        )
        specs = config.expand()
        assert len({spec.granule_id for spec in specs}) == len(specs)

    def test_duplicate_ids_rejected_with_clear_error(self):
        from dataclasses import replace as dc_replace

        from repro.campaign.config import _ensure_unique_granule_ids

        specs = CampaignConfig(grid={"cloud_fraction": (0.1, 0.2)}).expand()
        clashing = [specs[0], dc_replace(specs[1], granule_id=specs[0].granule_id)]
        with pytest.raises(ValueError, match="duplicate granule_id"):
            _ensure_unique_granule_ids(clashing)
