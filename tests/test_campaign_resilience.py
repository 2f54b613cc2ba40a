"""Cache-resilience tests for the campaign engine.

Covers the failure modes a long campaign actually meets:

* a corrupt/truncated ``.pkl`` entry mid-campaign is treated as a miss and
  recomputed to identical products;
* a campaign interrupted between stages (curation done, training/retrieval
  not) resumes from the cached curation stages;
* stage-granular invalidation: changing only ``sea_surface.method`` must
  not invalidate curated or classifier artifacts — only the stages
  downstream of sea surface re-run.
"""

import numpy as np
import pytest

from dataclasses import replace

from repro.campaign import CampaignConfig, CampaignRunner
from repro.campaign.runner import GRANULE_RESULT_STAGE
from repro.config import SeaSurfaceConfig
from repro.pipeline import GraphRunner, StageCache, default_graph
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig
from tests.test_campaign_runner import assert_same_granule, granule_result_key

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
)

GRID = {"cloud_fraction": (0.1, 0.35)}

#: Stage-cache key prefixes that must never miss after a sea-surface change.
UPSTREAM_STAGES = (
    "scene-",
    "atl03-",
    "s2-",
    "segmentation-",
    "resample-",
    "drift-",
    "autolabel-",
    "curate-",
    "training_set-",
    "train-",
    "infer-",
)

#: Curation stages a warm re-curation reads from the stage tier.
CURATION_STAGES = ("atl03-", "resample-", "autolabel-")

#: Curation stages a warm re-curation never reads: the cached segments and
#: labels stand in for everything upstream of them.
UNREAD_STAGES = ("scene-", "s2-", "segmentation-", "drift-")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("resilience-cache"))


@pytest.fixture(scope="module")
def config(cache_dir):
    return CampaignConfig(base=BASE, grid=GRID, seed=21, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def first_run(config):
    return CampaignRunner(config).run()


class TestCorruptEntryMidCampaign:
    def test_truncated_granule_result_recomputed(self, config, first_run):
        target = first_run.granules[0].granule_id
        key = granule_result_key(config, first_run, target)
        # Truncate the finished result, as if the machine died mid-write
        # under a non-atomic layout.
        path = StageCache(config.cache_dir).store.path(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 7])

        second = CampaignRunner(config).run()
        assert second.stage_misses == (key,)
        # The re-curation itself was served from the intact stage tier.
        for prefix in CURATION_STAGES:
            assert any(hit.startswith(prefix) for hit in second.stage_hits), prefix
        read = second.stage_hits + second.stage_misses
        assert not any(key.startswith(UNREAD_STAGES) for key in read), read
        assert_same_granule(first_run.granule(target), second.granule(target))

    def test_corrupt_stage_tier_entry_is_recomputed(self, config, first_run):
        target = first_run.granules[1].granule_id
        stage_cache = StageCache(config.cache_dir)
        stage_cache.store.path(granule_result_key(config, first_run, target)).unlink()
        # Corrupt one stage-tier entry this granule's re-curation needs.
        spec = next(s for s in config.expand() if s.granule_id == target)
        fps = GraphRunner(default_graph()).fingerprints(spec.config)
        stage_cache.store.path(f"autolabel-{fps['labels']}").write_bytes(b"garbage")

        third = CampaignRunner(config).run()
        assert any(key.startswith("autolabel-") for key in third.stage_misses)
        assert_same_granule(first_run.granule(target), third.granule(target))


class TestInterruptedResume:
    def test_resume_after_interruption_between_stages(self, config, first_run):
        """Curation cached, classifier/results wiped: resume trains + retrieves."""
        stage_cache = StageCache(config.cache_dir)
        for key in stage_cache.store.keys():
            if key.startswith(("train-", "infer-", f"{GRANULE_RESULT_STAGE}-")):
                stage_cache.store.path(key).unlink()

        resumed = CampaignRunner(config).run()
        assert any(key.startswith("train-") for key in resumed.stage_misses)
        assert not any(key.startswith(CURATION_STAGES) for key in resumed.stage_misses)
        read = resumed.stage_hits + resumed.stage_misses
        assert not any(key.startswith(UNREAD_STAGES) for key in read), read
        # Retraining on identical curated data reproduces the classifier and
        # products bit-for-bit.
        for a, b in zip(
            first_run.classifier.model.get_weights(),
            resumed.classifier.model.get_weights(),
        ):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            first_run.metrics.confusion, resumed.metrics.confusion
        )


class TestStageGranularInvalidation:
    def test_sea_surface_change_keeps_curation_and_classifier(self, config, first_run):
        """The acceptance criterion: only downstream-of-sea-surface re-runs."""
        changed = CampaignConfig(
            base=replace(BASE, sea_surface=SeaSurfaceConfig(method="average")),
            grid=GRID,
            seed=21,
            cache_dir=config.cache_dir,
        )
        runner = CampaignRunner(changed)
        assert runner.fingerprint != first_run.fingerprint  # a different campaign
        result = runner.run()

        # Nothing upstream of sea surface was recomputed...
        assert not any(
            key.startswith(UPSTREAM_STAGES) for key in result.stage_misses
        ), result.stage_misses
        # ...curation, pooled training and classification all hit...
        for prefix in ("resample-", "autolabel-", "train-", "infer-"):
            assert any(key.startswith(prefix) for key in result.stage_hits), prefix
        # ...and exactly the sea-surface-downstream stages missed.
        missed_kinds = {key.rsplit("-", 1)[0] for key in result.stage_misses}
        assert missed_kinds == {
            "sea_surface", "freeboard", "atl07", "atl10", "metrics", GRANULE_RESULT_STAGE
        }

        # The classifier is the cached one, bit-for-bit.
        for a, b in zip(
            first_run.classifier.model.get_weights(),
            result.classifier.model.get_weights(),
        ):
            np.testing.assert_array_equal(a, b)
        # Classification is unchanged; freeboard legitimately differs.
        for first_granule, changed_granule in zip(first_run.granules, result.granules):
            for beam in first_granule.products.classified:
                np.testing.assert_array_equal(
                    first_granule.products.classified[beam].labels,
                    changed_granule.products.classified[beam].labels,
                )

    def test_changed_campaign_matches_cold_run(self, config, first_run, tmp_path):
        """Warm partial recompute equals a cold run of the changed config."""
        changed_base = replace(BASE, sea_surface=SeaSurfaceConfig(method="average"))
        warm = CampaignRunner(
            CampaignConfig(base=changed_base, grid=GRID, seed=21, cache_dir=config.cache_dir)
        ).run()
        cold = CampaignRunner(
            CampaignConfig(base=changed_base, grid=GRID, seed=21, cache_dir=str(tmp_path))
        ).run()
        for warm_granule, cold_granule in zip(warm.granules, cold.granules):
            for beam in warm_granule.products.freeboard:
                np.testing.assert_array_equal(
                    warm_granule.products.freeboard[beam].freeboard_m,
                    cold_granule.products.freeboard[beam].freeboard_m,
                )
