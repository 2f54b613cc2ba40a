"""Execution tests for the graph runner: caching, partial recompute, per-beam stages."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.campaign import CampaignConfig
from repro.classification.pipeline import train_classifier
from repro.clock import VirtualClock
from repro.config import SeaSurfaceConfig
from repro.freeboard.freeboard import compute_freeboard
from repro.obs.core import Obs, set_default_obs
from repro.pipeline import (
    MISS,
    ArtifactSpec,
    ArtifactStore,
    GraphRunner,
    Stage,
    StageCache,
    StageGraph,
    default_graph,
    external_artifact,
)
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

CONFIG = ExperimentConfig(
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
    seed=13,
    drift_m=(120.0, 180.0),
)

TARGETS = (
    "experiment_data",
    "classifier",
    "classified",
    "freeboard",
    "atl07",
    "atl10",
    "granule_metrics",
)


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("stage-cache")


@pytest.fixture(scope="module")
def first_run(cache_root):
    runner = GraphRunner(default_graph(), cache=StageCache(cache_root))
    return runner.run(CONFIG, targets=TARGETS)


#: Stages that execute every run by design: the uncached stages, which
#: assemble or render their outputs from cached inputs.
ASSEMBLY_STAGES = {s.name for s in default_graph().stages.values() if not s.cacheable}


class TestCachedExecution:
    def test_cold_run_executes_every_required_stage(self, cache_root, first_run):
        assert set(first_run.executed_stages) == {
            s.name for s in default_graph().required_stages(TARGETS)
        }
        assert first_run.cache_hits == ()
        # Every cacheable stage was a (stored) miss; assembly stages are
        # deliberately uncached and never counted.
        cacheable = [e for e in first_run.executions if e.cacheable]
        assert len(first_run.cache_misses) == len(cacheable)
        assert {e.stage for e in first_run.executions if not e.cacheable} == ASSEMBLY_STAGES
        # ...and none of them left a bundle in the stage cache.
        keys = StageCache(cache_root).store.keys()
        assert not any(key.rsplit("-", 1)[0] in ASSEMBLY_STAGES for key in keys), keys

    def test_warm_rerun_is_pure_cache(self, cache_root, first_run):
        runner = GraphRunner(default_graph(), cache=StageCache(cache_root))
        second = runner.run(CONFIG, targets=TARGETS)
        # Only the uncached assembly stages re-run (cheaply, from cached
        # inputs); every computing stage is served from the cache and the
        # demand-driven runner never even probes undemanded intermediates.
        assert set(second.executed_stages) <= ASSEMBLY_STAGES
        assert second.cache_misses == ()
        assert set(second.cache_hits) <= set(first_run.cache_misses)
        for name in first_run.value("freeboard"):
            np.testing.assert_array_equal(
                first_run.value("freeboard")[name].freeboard_m,
                second.value("freeboard")[name].freeboard_m,
            )
        for a, b in zip(
            first_run.value("classifier").model.get_weights(),
            second.value("classifier").model.get_weights(),
        ):
            np.testing.assert_array_equal(a, b)

    def test_sea_surface_change_recomputes_only_downstream(self, cache_root, first_run):
        runner = GraphRunner(default_graph(), cache=StageCache(cache_root))
        changed = replace(CONFIG, sea_surface=SeaSurfaceConfig(method="average"))
        result = runner.run(changed, targets=TARGETS)
        downstream = {"sea_surface", "freeboard", "atl07", "atl10", "metrics"}
        assert {k.rsplit("-", 1)[0] for k in result.cache_misses} == downstream
        assert downstream <= set(result.executed_stages)
        assert set(result.executed_stages) <= downstream | ASSEMBLY_STAGES
        # Upstream artifacts are cache hits with unchanged fingerprints.
        assert result.artifacts["classifier"].from_cache
        assert (
            result.artifacts["classifier"].fingerprint
            == first_run.artifacts["classifier"].fingerprint
        )
        assert (
            result.artifacts["freeboard"].fingerprint
            != first_run.artifacts["freeboard"].fingerprint
        )

    def test_corrupt_stage_entry_is_recomputed(self, cache_root, first_run):
        # Corrupt a demanded bundle: the stage reads as a miss, demands its
        # (intact) inputs and recomputes the identical values.
        cache = StageCache(cache_root)
        execution = next(e for e in first_run.executions if e.stage == "freeboard")
        cache.store.path(execution.cache_key).write_bytes(b"garbage")
        runner = GraphRunner(default_graph(), cache=cache)
        result = runner.run(CONFIG, targets=TARGETS)
        assert "freeboard" in result.executed_stages
        assert set(result.executed_stages) <= {"freeboard"} | ASSEMBLY_STAGES
        for name in first_run.value("freeboard"):
            np.testing.assert_array_equal(
                first_run.value("freeboard")[name].freeboard_m,
                result.value("freeboard")[name].freeboard_m,
            )

    def test_drift_entry_holds_only_the_estimate(self, cache_root, first_run):
        # The S2 image is never cached (s2 renders it where it is read);
        # the drift bundle holds just the DriftEstimate.
        cache = StageCache(cache_root)
        execution = next(e for e in first_run.executions if e.stage == "drift")
        assert cache.store.path(execution.cache_key).stat().st_size < 64_000
        bundle = cache.load_stage("drift", execution.fingerprint)
        assert set(bundle["outputs"]) == {"drift"}

    def test_warm_run_rebuilds_the_aligned_image(self, cache_root, first_run):
        runner = GraphRunner(default_graph(), cache=StageCache(cache_root))
        result = runner.run(CONFIG, targets=("image", "drift", "aligned_image"))
        assert result.cache_misses == ()
        assert set(result.executed_stages) == {"s2", "align"}
        image, drift, aligned = result.values("image", "drift", "aligned_image")
        assert aligned.origin_x_m == image.origin_x_m + drift.dx_m
        assert aligned.origin_y_m == image.origin_y_m + drift.dy_m
        np.testing.assert_array_equal(aligned.bands, image.bands)
        # The re-rendered bands are the cold run's, byte for byte.
        cold = first_run.value("image").bands
        assert image.bands.dtype == cold.dtype and image.bands.shape == cold.shape
        assert image.bands.tobytes() == cold.tobytes()

    def test_uncached_runner_reports_no_cache_keys(self):
        result = GraphRunner(default_graph()).run(CONFIG, targets=("segments",))
        assert result.cache_hits == ()
        assert result.cache_misses == ()
        assert "resample" in result.executed_stages


class TestPrecomputedArtifacts:
    def test_injected_classifier_skips_training(self, first_run):
        runner = GraphRunner(default_graph())
        precomputed = {
            "granule": external_artifact("granule", first_run.value("experiment_data").granule),
            "segments": external_artifact("segments", first_run.value("experiment_data").segments),
            "classifier": external_artifact("classifier", first_run.value("classifier")),
        }
        result = runner.run(
            CONFIG, targets=("classified", "freeboard"), precomputed=precomputed
        )
        assert "train" not in result.executed_stages
        assert "scene" not in result.executed_stages
        for name in first_run.value("classified"):
            np.testing.assert_array_equal(
                first_run.value("classified")[name].labels,
                result.value("classified")[name].labels,
            )


class TestPerBeamStages:
    """Per-beam stages loop over the beams in the calling process."""

    def test_two_beam_run_matches_compute_freeboard(self):
        config = replace(CONFIG, n_beams=2)
        run = GraphRunner(default_graph()).run(
            config, targets=("segments", "classified", "freeboard")
        )
        segments, classified, freeboard = run.values("segments", "classified", "freeboard")
        assert len(freeboard) == 2
        assert list(freeboard) == list(classified) == list(segments)
        surface = config.sea_surface
        for name, result in freeboard.items():
            expected = compute_freeboard(
                segments[name], classified[name].labels, method=surface.method, config=surface
            )
            assert result.freeboard_m.tobytes() == expected.freeboard_m.tobytes()

    def test_single_granule_run_opens_no_map_reduce_job(self):
        obs = Obs(clock=VirtualClock())
        previous = set_default_obs(obs)
        try:
            GraphRunner(default_graph(), obs=obs).run(CONFIG, targets=("freeboard",))
        finally:
            set_default_obs(previous)
        assert obs.tracer.spans("pipeline.stage")
        assert [s.name for s in obs.tracer.spans() if s.name.startswith("mapreduce.")] == []
        assert obs.registry.total("mapreduce_jobs_total") == 0


@dataclass(frozen=True)
class ToyConfig:
    x: int = 1


def _make_x(ctx):
    return {"x": ctx.config.x}


def _total(ctx, x):
    return {"total": sum(x)}


#: A granule stage feeding one pooled stage.
TOY = StageGraph(
    [
        Stage("make_x", _make_x, (), ("x",), ("x",)),
        Stage("total", _total, ("x",), ("total",), pooled=True),
    ],
    [ArtifactSpec("x", int), ArtifactSpec("total", int)],
)


class TestPooledStage:
    def test_fingerprint_covers_every_member_and_their_order(self, tmp_path):
        runner = GraphRunner(TOY, cache=StageCache(tmp_path))

        def fingerprint(*members):
            run = runner.run_pooled(
                "total",
                ToyConfig(),
                [{"x": fp} for fp in members],
                lambda: [{"x": 1}] * len(members),
            )
            return run.artifacts["total"].fingerprint

        base = fingerprint("a", "b")
        assert fingerprint("a", "b") == base
        assert fingerprint("a", "c") != base
        assert fingerprint("c", "b") != base
        assert fingerprint("b", "a") != base
        assert fingerprint("a") != base

    def test_cache_hit_never_calls_the_supplier(self, tmp_path, monkeypatch):
        runner = GraphRunner(TOY, cache=StageCache(tmp_path))
        members = [{"x": "fa"}, {"x": "fb"}]
        cold = runner.run_pooled("total", ToyConfig(), members, lambda: [{"x": 2}, {"x": 3}])
        assert cold.value("total") == 5
        assert cold.cache_misses and not cold.cache_hits

        loads: list[str] = []
        original_load = ArtifactStore.load

        def counting_load(store, key, default=None):
            loads.append(key)
            return original_load(store, key, default)

        def supplier():
            raise AssertionError("a cache hit must not demand its members")

        monkeypatch.setattr(ArtifactStore, "load", counting_load)
        warm = runner.run_pooled("total", ToyConfig(), members, supplier)
        assert warm.value("total") == 5
        assert warm.cache_hits == cold.cache_misses
        assert loads == list(cold.cache_misses)  # the pooled entry, no member

    def test_single_granule_run_pools_a_list_of_one(self):
        result = GraphRunner(TOY).run(ToyConfig(x=7), targets=("total",))
        assert result.value("total") == 7

    def test_only_pooled_stages_run_pooled(self):
        with pytest.raises(ValueError, match="not a pooled stage"):
            GraphRunner(TOY).run_pooled("make_x", ToyConfig(), [], list)

    def test_train_of_one_equals_direct_training(self, first_run):
        training_set = first_run.value("training_set")
        direct = train_classifier(
            training_set.segments,
            training_set.labels,
            kind=CONFIG.model_kind,
            lstm_config=CONFIG.lstm,
            mlp_config=CONFIG.mlp,
            training=CONFIG.training,
            epochs=CONFIG.epochs,
            rng=CONFIG.seed,
            groups=training_set.groups,
        )
        pooled = first_run.value("classifier")
        for a, b in zip(direct.model.get_weights(), pooled.model.get_weights(), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_fleet_walk_equals_per_granule_fingerprints(self):
        config = CampaignConfig(base=CONFIG, grid={"cloud_fraction": (0.1, 0.3)}, seed=4)
        specs = config.expand()
        runner = GraphRunner(default_graph())
        maps = runner.fleet_fingerprints(specs, replace(CONFIG, seed=config.seed))
        pooled = ("classifier", "l3_mosaic")
        for name in (*pooled, "l3_pyramid"):
            assert maps[0][name] == maps[1][name]
        for spec, fps in zip(specs, maps):
            assert fps == runner.fingerprints(
                spec.config,
                granule_id=spec.granule_id,
                scenario=spec.scenario,
                precomputed={name: fps[name] for name in pooled},
            )
            # The fleet classifier is not the granule's own pooled-of-one.
            alone = runner.fingerprints(
                spec.config, granule_id=spec.granule_id, scenario=spec.scenario
            )
            assert alone["classifier"] != fps["classifier"]
            assert alone["training_set"] == fps["training_set"]


class TestArtifactStoreSentinel:
    def test_cached_none_is_distinguishable_from_miss(self, tmp_path):
        store = ArtifactStore(tmp_path, "ns")
        assert store.load("k", MISS) is MISS
        store.store("k", None)
        assert store.load("k", MISS) is None
        assert store.load("k") is None  # plain default stays None-compatible
