"""What the stage tier holds of a granule's curation, and what a warm run reads.

The Sentinel-2 image is the largest artifact of a granule, and every stage
that reads its pixels (``segmentation``, ``drift``, ``autolabel``) is cached,
so the ``s2`` stage is uncached: a campaign renders the image in memory and
never writes it.  Pooled training is fed from the cached ``segments`` and
``labels`` alone, so a warm re-run after a sea-surface change reads no
scene, image, segmentation or drift bundle, yet writes the same mosaic
bytes as an uncached run.  The bundles that are written keep only what a
reader can see: a ``segmentation`` bundle the pixels of its corridor tiles,
a ``grid_granule`` or ``mosaic_campaign`` bundle the occupied cells.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig, SeaSurfaceConfig
from repro.pipeline import GraphRunner, StageCache, default_graph, external_artifact
from repro.sentinel2.scene import TILE_PX
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig
from repro.workflow.experiment import training_arrays

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
    # 100 m Level-3 cells, as on the benchmark fleet: the tracks cross ~1 %.
    l3=L3GridConfig(cell_size_m=100.0),
)
GRID = {"cloud_fraction": (0.1, 0.35)}

#: Every stage upstream of pooled training.
CURATION = {s.name for s in default_graph().required_stages(("training_set", "experiment_data"))}

#: The curation stages whose bundles a warm re-run reads.
WARM_READS = {"atl03", "resample", "autolabel"}


def campaign(base: ExperimentConfig, cache_dir: str | None) -> CampaignConfig:
    return CampaignConfig(base=base, grid=GRID, seed=21, n_workers=1, cache_dir=cache_dir)


def mosaic_bytes(config: CampaignConfig) -> dict[str, tuple[str, tuple[int, ...], bytes]]:
    with CampaignRunner(config) as runner:
        mosaic = runner.to_l3(runner.run()).mosaic
    return {
        name: (array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes())
        for name, array in mosaic.variables.items()
    }


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("image-tier"))
    with CampaignRunner(campaign(BASE, path)) as runner:
        runner.to_l3(runner.run())
    return path


def bundles(cache_dir, stage):
    """(file bytes, output) of every cached bundle of a one-output stage."""
    store = StageCache(cache_dir).store
    found = []
    for key in store.keys():
        if key.rsplit("-", 1)[0] == stage:
            (output,) = store.load(key)["outputs"].values()
            found.append((store.path(key).stat().st_size, output))
    assert found, stage
    return found


def test_segmentation_bundle_holds_only_the_corridor(cache_dir):
    for size, segmentation in bundles(cache_dir, "segmentation"):
        tiles = segmentation.tiles
        assert 0 < tiles.sum() < tiles.size
        # One class byte and two mask bits a pixel, plus a fixed overhead.
        assert size <= tiles.sum() * TILE_PX**2 * 1.3 + 2048, (size, tiles.sum())


@pytest.mark.parametrize("stage", ["grid_granule", "mosaic_campaign"])
def test_level3_bundle_holds_only_the_occupied_cells(cache_dir, stage):
    for size, grid in bundles(cache_dir, stage):
        dense = sum(array.nbytes for array in grid.variables.values())
        assert size < 0.05 * dense, (size, dense)


def test_cold_campaign_stores_no_image(cache_dir):
    keys = StageCache(cache_dir).store.keys()
    stored = {key.rsplit("-", 1)[0] for key in keys}
    assert WARM_READS | {"scene", "segmentation", "drift"} <= stored
    assert not any(key.startswith("s2-") for key in keys), keys
    uncached = {s.name for s in default_graph().stages.values() if not s.cacheable}
    assert "s2" in uncached
    assert not stored & uncached


def test_warm_sea_surface_rerun_reads_only_segments_and_labels(cache_dir, monkeypatch):
    loaded: list[str] = []
    load_stage = StageCache.load_stage

    def recording(self, stage, fingerprint):
        loaded.append(stage)
        return load_stage(self, stage, fingerprint)

    monkeypatch.setattr(StageCache, "load_stage", recording)
    base = replace(BASE, sea_surface=SeaSurfaceConfig(method="average"))
    cached = mosaic_bytes(campaign(base, cache_dir))
    assert {"scene", "s2", "segmentation", "drift"} | WARM_READS <= CURATION
    assert set(loaded) & CURATION == WARM_READS, loaded
    assert cached == mosaic_bytes(campaign(base, None))


class TestTrainingSetStage:
    CONFIG = replace(BASE, n_beams=2, seed=13)

    def test_matches_experiment_data_bit_for_bit(self):
        run = GraphRunner(default_graph()).run(
            self.CONFIG, targets=("training_set", "experiment_data")
        )
        training_set, data = run.values("training_set", "experiment_data")
        assert len(data.segments) == 2
        segments, labels, groups = data.combined_training_arrays()
        assert training_set.segments.beam_name == segments.beam_name
        assert training_set.segments.window_length_m == segments.window_length_m
        got = training_set.segments.as_dict()
        want = segments.as_dict()
        assert list(got) == list(want)
        for name, array in want.items():
            assert got[name].dtype == array.dtype, name
            assert got[name].tobytes() == array.tobytes(), name
        for actual, expected in ((training_set.labels, labels), (training_set.groups, groups)):
            assert actual.dtype == expected.dtype
            assert actual.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(np.unique(training_set.groups), [0, 1])

    def test_mismatched_beam_sets_raise(self):
        segments = GraphRunner(default_graph()).run(self.CONFIG, targets=("segments",))
        beams = segments.value("segments")
        first, second = sorted(beams)
        labels = {second: np.zeros(beams[second].n_segments, dtype=np.int8)}
        with pytest.raises(ValueError, match="same beams"):
            training_arrays({first: beams[first]}, labels)
        with pytest.raises(ValueError, match="same beams"):
            GraphRunner(default_graph()).run(
                self.CONFIG,
                targets=("training_set",),
                precomputed={
                    "segments": external_artifact("segments", {first: beams[first]}),
                    "labels": external_artifact("labels", labels),
                },
            )
