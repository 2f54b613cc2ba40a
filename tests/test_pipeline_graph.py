"""Unit tests for the stage-graph structure and fingerprinting."""

import pytest

from repro.pipeline import (
    ArtifactSpec,
    GraphRunner,
    Stage,
    StageGraph,
    build_default_graph,
    default_graph,
)
from repro.workflow.end_to_end import ExperimentConfig


def _noop(ctx, **inputs):
    return {}


class TestGraphValidation:
    def test_default_graph_builds_and_orders(self):
        graph = build_default_graph()
        order = [stage.name for stage in graph.topological_order()]
        # Producers always precede consumers.
        assert order.index("scene") < order.index("atl03")
        assert order.index("atl03") < order.index("resample")
        assert order.index("train") < order.index("infer")
        assert order.index("infer") < order.index("sea_surface")
        assert order.index("sea_surface") < order.index("freeboard")
        assert order.index("atl07") < order.index("atl10")
        assert order.index("freeboard") < order.index("metrics")

    def test_duplicate_stage_rejected(self):
        spec = ArtifactSpec("a", int)
        stage = Stage("s", _noop, (), ("a",))
        with pytest.raises(ValueError, match="duplicate stage"):
            StageGraph([stage, stage], [spec])

    def test_duplicate_producer_rejected(self):
        spec = ArtifactSpec("a", int)
        with pytest.raises(ValueError, match="produced by both"):
            StageGraph(
                [Stage("s1", _noop, (), ("a",)), Stage("s2", _noop, (), ("a",))],
                [spec],
            )

    def test_undeclared_artifact_rejected(self):
        with pytest.raises(ValueError, match="undeclared artifact"):
            StageGraph([Stage("s", _noop, (), ("mystery",))], [])

    def test_unproduced_input_rejected(self):
        spec = ArtifactSpec("a", int)
        with pytest.raises(ValueError, match="no stage produces"):
            StageGraph([Stage("s", _noop, ("a",), ())], [spec])

    def test_cycle_rejected(self):
        specs = [ArtifactSpec("a", int), ArtifactSpec("b", int)]
        stages = [
            Stage("s1", _noop, ("b",), ("a",)),
            Stage("s2", _noop, ("a",), ("b",)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            StageGraph(stages, specs)


class TestRequiredAndDownstream:
    def test_required_stages_for_curation_targets(self):
        graph = default_graph()
        names = {s.name for s in graph.required_stages(("experiment_data",))}
        assert "train" not in names
        assert "sea_surface" not in names
        assert {"scene", "atl03", "s2", "segmentation", "resample", "drift",
                "autolabel", "curate"} <= names

    def test_precomputed_artifacts_prune_ancestors(self):
        graph = default_graph()
        names = {
            s.name
            for s in graph.required_stages(
                ("freeboard",), precomputed=("classified", "granule", "segments")
            )
        }
        assert names == {"sea_surface", "freeboard"}

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="unknown artifact"):
            default_graph().required_stages(("nope",))

    def test_downstream_of_sea_surface(self):
        graph = default_graph()
        downstream = set(graph.downstream_stages("sea_surface"))
        assert downstream == {
            "freeboard",
            "metrics",
            "grid_granule",
            "mosaic_campaign",
            "build_pyramid",
        }

    def test_downstream_of_infer_covers_retrieval(self):
        graph = default_graph()
        downstream = set(graph.downstream_stages("infer"))
        assert downstream == {
            "sea_surface",
            "freeboard",
            "metrics",
            "grid_granule",
            "mosaic_campaign",
            "build_pyramid",
        }


class TestGraphDerivation:
    def test_replace_swaps_a_stage(self):
        graph = default_graph()
        drift = graph.stages["drift"]
        swapped = Stage(
            "drift", _noop, drift.inputs, drift.outputs, drift.config_paths, version="ablated"
        )
        derived = graph.replace(swapped)
        assert derived.stages["drift"].version == "ablated"
        assert graph.stages["drift"].version == "1"  # original untouched

    def test_replace_unknown_stage_raises(self):
        with pytest.raises(ValueError, match="no stage"):
            default_graph().replace(Stage("nope", _noop, (), ()))

    def test_extend_appends_stage(self):
        graph = default_graph()
        extra_spec = ArtifactSpec("thickness", object)
        extra = Stage("thickness", _noop, ("freeboard",), ("thickness",))
        derived = graph.extend([extra], [extra_spec])
        assert "thickness" in derived.stages
        assert "thickness" not in graph.stages
        assert set(derived.downstream_stages("freeboard")) == {
            "grid_granule",
            "mosaic_campaign",
            "build_pyramid",
            "metrics",
            "thickness",
        }


class TestFingerprints:
    def test_fingerprints_are_stable(self):
        runner = GraphRunner(default_graph())
        cfg = ExperimentConfig(seed=1)
        assert runner.fingerprints(cfg) == runner.fingerprints(cfg)

    def test_seed_changes_every_rng_dependent_stage(self):
        runner = GraphRunner(default_graph())
        a = runner.fingerprints(ExperimentConfig(seed=1))
        b = runner.fingerprints(ExperimentConfig(seed=2))
        assert a["scene"] != b["scene"]
        assert a["classifier"] != b["classifier"]

    def test_sea_surface_change_touches_only_downstream(self):
        from dataclasses import replace

        from repro.config import SeaSurfaceConfig

        runner = GraphRunner(default_graph())
        cfg = ExperimentConfig(seed=1)
        a = runner.fingerprints(cfg)
        b = runner.fingerprints(
            replace(cfg, sea_surface=SeaSurfaceConfig(method="average"))
        )
        unchanged = (
            "scene", "granule", "image", "segmentation", "segments", "drift",
            "experiment_data", "training_set", "classifier", "classified",
        )
        for name in unchanged:
            assert a[name] == b[name], name
        for name in ("sea_surface", "freeboard", "atl07", "atl10", "granule_metrics"):
            assert a[name] != b[name], name

    def test_precomputed_fingerprint_seeds_downstream(self):
        runner = GraphRunner(default_graph())
        cfg = ExperimentConfig(seed=1)
        a = runner.fingerprints(cfg, precomputed={"classifier": "clf-A"})
        b = runner.fingerprints(cfg, precomputed={"classifier": "clf-B"})
        assert a["classified"] != b["classified"]
        assert a["segments"] == b["segments"]

    def test_granule_identity_only_affects_metrics(self):
        runner = GraphRunner(default_graph())
        cfg = ExperimentConfig(seed=1)
        a = runner.fingerprints(cfg, granule_id="g000")
        b = runner.fingerprints(cfg, granule_id="g001")
        assert a["granule_metrics"] != b["granule_metrics"]
        assert a["freeboard"] == b["freeboard"]

    def test_changed_science_invalidates_scene_s2_and_resample(self):
        """Spectral synthesis (scene, s2) and the track-end window fix
        (resample) changed these stages' outputs: their cache entries from
        before the change must miss."""
        graph = default_graph()
        bumped = {"scene", "s2", "resample"}
        assert {s.name for s in graph.stages.values() if s.version != "1"} == bumped
        fps = GraphRunner(graph).fingerprints(ExperimentConfig())
        before = {
            "scene": "e5c41f7a091115c7",
            "image": "6614a8808708aeca",
            "segments": "4bf5325627b0b373",
        }
        for name, old in before.items():
            assert fps[name] != old, name

    def test_version_bump_invalidates_stage(self):
        graph = default_graph()
        scene = graph.stages["scene"]
        bumped = graph.replace(
            Stage(
                "scene", scene.fn, scene.inputs, scene.outputs, scene.config_paths,
                version=scene.version + "-next",
            )
        )
        cfg = ExperimentConfig(seed=1)
        a = GraphRunner(graph).fingerprints(cfg)
        b = GraphRunner(bumped).fingerprints(cfg)
        assert a["scene"] != b["scene"]
        assert a["freeboard"] != b["freeboard"]  # chained invalidation


class TestArtifactSpecValidation:
    def test_wrong_type_rejected(self):
        spec = ArtifactSpec("a", int)
        with pytest.raises(TypeError, match="must be int"):
            spec.validate("nope")

    def test_per_beam_requires_mapping(self):
        spec = ArtifactSpec("a", int, per_beam=True)
        with pytest.raises(TypeError, match="per-beam mapping"):
            spec.validate([1, 2])
        with pytest.raises(TypeError, match="must be"):
            spec.validate({"gt1l": "nope"})
        spec.validate({"gt1l": 3})

    def test_optional_allows_none(self):
        ArtifactSpec("a", int, optional=True).validate(None)
        with pytest.raises(TypeError, match="must not be None"):
            ArtifactSpec("a", int).validate(None)
