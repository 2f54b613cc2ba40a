"""Integration tests for the campaign engine.

Covers the acceptance criteria of the campaign layer:

* a 3-granule campaign's pooled training is bit-for-bit identical between
  serial (``n_workers=1``) and process-parallel (``n_workers=2``) execution;
* a 6-granule campaign over a 2x3 scenario grid runs end to end with two
  workers and produces aggregated metrics;
* a second run with the same config resumes entirely from the on-disk stage
  cache — one read per granule plus the classifier — and a partially deleted
  cache re-runs only the missing granules;
* every granule's classification is the graph's own ``infer`` output, and
  the pooled ``train``/``mosaic_campaign`` stages report telemetry like
  every other stage.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.campaign.runner import GRANULE_RESULT_STAGE
from repro.config import N_CLASSES, LogConfig, ObsConfig
from repro.obs.core import Obs
from repro.obs.export import build_health_dashboard, validate_dashboard
from repro.pipeline import (
    ArtifactStore,
    GraphRunner,
    StageCache,
    default_graph,
    external_artifact,
)
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

#: Small, fast base experiment shared by every campaign test.
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

PARITY_GRID = {"cloud_fraction": (0.1, 0.3, 0.5)}


def granule_result_key(config: CampaignConfig, result, granule_id: str) -> str:
    """Stage-cache key of one granule's finished result.

    The entry is keyed by the granule's ``granule_metrics`` fingerprint with
    the campaign's pooled classifier injected.
    """
    spec = next(s for s in config.expand() if s.granule_id == granule_id)
    fps = GraphRunner(default_graph()).fingerprints(
        spec.config,
        granule_id=granule_id,
        scenario=spec.scenario,
        precomputed={"classifier": result.classifier_fingerprint},
    )
    return f"{GRANULE_RESULT_STAGE}-{fps['granule_metrics']}"


def assert_same_granule(a, b) -> None:
    """Products and metrics of two granule results are bit-identical."""
    assert a.granule_id == b.granule_id
    for beam in a.products.classified:
        np.testing.assert_array_equal(
            a.products.classified[beam].labels, b.products.classified[beam].labels
        )
        np.testing.assert_array_equal(
            a.products.freeboard[beam].freeboard_m, b.products.freeboard[beam].freeboard_m
        )
    np.testing.assert_array_equal(a.metrics.confusion, b.metrics.confusion)
    assert replace(a.metrics, confusion=None) == replace(b.metrics, confusion=None)


@pytest.fixture(scope="module")
def serial_result():
    config = CampaignConfig(base=BASE, grid=PARITY_GRID, seed=11, n_workers=1)
    return CampaignRunner(config).run()


@pytest.fixture(scope="module")
def parallel_result():
    config = CampaignConfig(
        base=BASE, grid=PARITY_GRID, seed=11, n_workers=2, executor="process"
    )
    return CampaignRunner(config).run()


class TestSerialParallelParity:
    def test_pooled_classifier_is_bit_for_bit_identical(self, serial_result, parallel_result):
        serial_weights = serial_result.classifier.model.get_weights()
        parallel_weights = parallel_result.classifier.model.get_weights()
        assert len(serial_weights) == len(parallel_weights)
        for sw, pw in zip(serial_weights, parallel_weights):
            np.testing.assert_array_equal(sw, pw)
        assert serial_result.classifier.accuracy == parallel_result.classifier.accuracy

    def test_products_identical_per_granule(self, serial_result, parallel_result):
        assert [g.granule_id for g in serial_result.granules] == [
            g.granule_id for g in parallel_result.granules
        ]
        for s, p in zip(serial_result.granules, parallel_result.granules):
            for beam in s.products.classified:
                np.testing.assert_array_equal(
                    s.products.classified[beam].labels,
                    p.products.classified[beam].labels,
                )
                np.testing.assert_array_equal(
                    s.products.freeboard[beam].freeboard_m,
                    p.products.freeboard[beam].freeboard_m,
                )

    def test_aggregate_metrics_identical(self, serial_result, parallel_result):
        np.testing.assert_array_equal(
            serial_result.metrics.confusion, parallel_result.metrics.confusion
        )
        assert serial_result.metrics.accuracy == parallel_result.metrics.accuracy
        assert (
            serial_result.metrics.mean_freeboard_m
            == parallel_result.metrics.mean_freeboard_m
        )

    def test_fingerprints_match_despite_different_workers(
        self, serial_result, parallel_result
    ):
        assert serial_result.fingerprint == parallel_result.fingerprint

    def test_no_cache_means_no_cache_bookkeeping(self, serial_result, parallel_result):
        for result in (serial_result, parallel_result):
            assert result.stage_hits == ()
            assert result.stage_misses == ()


class TestGraphParity:
    """A campaign writes the same ``classified`` bytes as a one-granule graph run.

    The ``infer-*`` key names the graph's ``infer`` stage, so whatever path
    produced an entry, its bytes must be that stage's output for the
    granule alone — labels *and* probabilities.
    """

    @pytest.mark.parametrize("fixture", ["serial_result", "parallel_result"])
    def test_classified_bytes_match_single_granule_run(self, fixture, request):
        result = request.getfixturevalue(fixture)
        config = CampaignConfig(base=BASE, grid=PARITY_GRID, seed=11)
        classifier = external_artifact(
            "classifier", result.classifier, result.classifier_fingerprint
        )
        runner = GraphRunner(default_graph())
        for spec in config.expand():
            run = runner.run(
                spec.config,
                targets=("classified",),
                precomputed={"classifier": classifier},
                granule_id=spec.granule_id,
                scenario=spec.scenario,
            )
            campaign = result.granule(spec.granule_id).products.classified
            assert list(campaign) == list(run.value("classified"))
            for beam, track in run.value("classified").items():
                assert campaign[beam].labels.tobytes() == track.labels.tobytes()
                assert campaign[beam].probabilities.tobytes() == track.probabilities.tobytes()
            assert result.granule(spec.granule_id).fingerprints["classified"] == (
                run.artifacts["classified"].fingerprint
            )


# -- 6-granule acceptance campaign (2x3 grid, 2 workers, cached) --------------

ACCEPTANCE_GRID = {
    "season": ("winter", "freeze_up"),
    "cloud_fraction": (0.1, 0.25, 0.4),
}


@pytest.fixture(scope="module")
def acceptance_config(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("campaign-cache")
    return CampaignConfig(
        base=BASE,
        grid=ACCEPTANCE_GRID,
        seed=5,
        n_workers=2,
        executor="process",
        cache_dir=str(cache_dir),
    )


@pytest.fixture(scope="module")
def first_run(acceptance_config):
    return CampaignRunner(acceptance_config).run()


class TestSixGranuleCampaign:
    def test_runs_end_to_end_with_aggregated_metrics(self, first_run):
        assert first_run.n_granules == 6
        metrics = first_run.metrics
        assert metrics.n_granules == 6
        assert metrics.n_segments == sum(g.metrics.n_segments for g in first_run.granules)
        assert metrics.confusion.shape == (N_CLASSES, N_CLASSES)
        assert metrics.confusion.sum() > 0
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.n_ice_segments > 0
        assert metrics.mean_freeboard_m > 0.0

    def test_every_granule_has_products_and_scenario(self, first_run):
        seasons = set()
        for granule in first_run.granules:
            assert granule.products.classified
            assert set(granule.products.freeboard) == set(granule.products.classified)
            assert set(granule.products.atl07) == set(granule.products.classified)
            assert set(granule.products.atl10) == set(granule.products.classified)
            assert set(granule.scenario) == {"season", "cloud_fraction"}
            seasons.add(granule.scenario["season"])
        assert seasons == {"winter", "freeze_up"}

    def test_granule_seeds_are_distinct(self, first_run):
        seeds = [granule.seed for granule in first_run.granules]
        assert len(set(seeds)) == len(seeds)

    def test_scaling_report_covers_cluster_grid(self, first_run):
        rows = first_run.scaling
        assert len(rows) == 9  # 3 executor values x 3 core values
        assert rows[0].speedup == pytest.approx(1.0)
        best = rows[-1]
        assert best.executors == 4 and best.cores == 4
        assert best.speedup > 1.0
        assert best.total_s < rows[0].total_s

    def test_first_run_populates_cache(self, acceptance_config, first_run):
        assert first_run.stage_hits == ()
        kinds = [key.rsplit("-", 1)[0] for key in first_run.stage_misses]
        assert kinds.count(GRANULE_RESULT_STAGE) == 6
        assert kinds.count("train") == 1
        assert f"train-{first_run.classifier_fingerprint}" in first_run.stage_misses
        # The stage tier is the only cache: every computed entry is in it,
        # and nothing else is written under the cache directory.
        assert os.listdir(acceptance_config.cache_dir) == ["stages"]
        store = StageCache(acceptance_config.cache_dir).store
        assert set(store.keys()) == set(first_run.stage_misses)

    def test_second_run_resumes_entirely_from_cache(self, acceptance_config, first_run):
        second = CampaignRunner(acceptance_config).run()
        assert second.stage_misses == ()
        assert sorted(second.stage_hits) == sorted(
            key
            for key in first_run.stage_misses
            if key.startswith((f"{GRANULE_RESULT_STAGE}-", "train-"))
        )
        # Resumed results are the cached artifacts: identical outputs.
        for a, b in zip(first_run.granules, second.granules):
            assert_same_granule(a, b)
        for fw, sw in zip(
            first_run.classifier.model.get_weights(), second.classifier.model.get_weights()
        ):
            np.testing.assert_array_equal(fw, sw)
        np.testing.assert_array_equal(first_run.metrics.confusion, second.metrics.confusion)
        # The scaling report is rebuilt from cached stage times, so the
        # resumed run regenerates the original table exactly.
        assert second.scaling == first_run.scaling

    def test_full_resume_reads_one_entry_per_granule_plus_classifier(
        self, acceptance_config, first_run, monkeypatch
    ):
        loads: list[str] = []
        graph_runs: list[str] = []
        original_load = ArtifactStore.load
        original_run = GraphRunner.run

        def counting_load(store, key, default=None):
            loads.append(key)
            return original_load(store, key, default)

        def counting_run(runner, config, *args, **kwargs):
            graph_runs.append(kwargs.get("granule_id", ""))
            return original_run(runner, config, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "load", counting_load)
        monkeypatch.setattr(GraphRunner, "run", counting_run)
        # Serial, so every load happens in this process; the fingerprints
        # ignore the worker count, so the cache is the same.
        serial = replace(acceptance_config, n_workers=1)
        with CampaignRunner(serial) as runner:
            resumed = runner.run()
        assert len(loads) == 1 + first_run.n_granules
        assert graph_runs == []  # no stage executed, not even as a cache read
        assert resumed.stage_misses == ()
        for a, b in zip(first_run.granules, resumed.granules):
            assert_same_granule(a, b)
        for fw, rw in zip(
            first_run.classifier.model.get_weights(), resumed.classifier.model.get_weights()
        ):
            np.testing.assert_array_equal(fw, rw)
        assert resumed.scaling == first_run.scaling

    def test_dashboard_counts_the_stage_tier(self, acceptance_config, first_run):
        doc = build_health_dashboard(campaign=first_run)
        validate_dashboard(doc)
        assert doc["campaign"]["cache"] == {
            "hits": len(first_run.stage_hits),
            "misses": len(first_run.stage_misses),
        }

    def test_partial_cache_reruns_only_missing_granules(self, acceptance_config, first_run):
        runner = CampaignRunner(acceptance_config)
        target = first_run.granules[2].granule_id
        key = granule_result_key(acceptance_config, first_run, target)
        StageCache(acceptance_config.cache_dir).store.path(key).unlink()

        third = runner.run()
        # Curation, classification and retrieval of the missing granule are
        # all served by the stage tier; only its finished result is rebuilt.
        assert third.stage_misses == (key,)
        # The re-curated granule reproduces the original products exactly
        # (same derived seed, same cached shared classifier).
        assert_same_granule(first_run.granule(target), third.granule(target))


class TestStageSpans:
    def test_stage_spans_enclose_their_work(self):
        obs = Obs()
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.3)},
            seed=11,
            n_workers=2,
            executor="thread",
        )
        with CampaignRunner(config, obs=obs) as runner:
            runner.run()
        tracer = obs.tracer
        assert tracer.n_dropped == 0
        (run,) = tracer.spans("campaign.run")
        children = {span.name: span for span in tracer.children(run)}
        assert len(tracer.children(run)) == 4
        assert set(children) == {
            "campaign.curation",
            "campaign.training",
            "campaign.inference",
            "campaign.aggregation",
        }
        curation = children["campaign.curation"]
        fan_out = [
            span
            for span in tracer.spans("mapreduce.map")
            if curation.start <= span.start and span.end <= curation.end
        ]
        assert fan_out
        assert all(span.parent_id == curation.span_id for span in fan_out)


class TestBarrierTelemetry:
    """The pooled stages report spans and counters like every other stage."""

    def test_pooled_stages_on_cold_then_hot_campaign(self, tmp_path):
        obs = Obs(ObsConfig(log=LogConfig(dedup_window_s=0)))
        config = CampaignConfig(
            base=BASE, grid={"cloud_fraction": (0.1, 0.3)}, seed=11, cache_dir=str(tmp_path)
        )
        n = config.n_granules

        def records(event):
            return obs.log.events(event)

        def runs(stage, cache):
            return obs.registry.value("pipeline_stage_runs_total", stage=stage, cache=cache)

        with CampaignRunner(config, obs=obs) as runner:
            runner.to_l3(runner.run())
        # Cold: each pooled stage computed once, inside its campaign span.
        for stage, parent in (("train", "campaign.training"), ("mosaic_campaign", None)):
            (span,) = [
                s for s in obs.tracer.spans("pipeline.stage") if s.attributes["stage"] == stage
            ]
            if parent is not None:
                (enclosing,) = obs.tracer.spans(parent)
                assert span.parent_id == enclosing.span_id
            assert runs(stage, "miss") == 1 and runs(stage, "hit") == 0
            assert obs.histogram("pipeline_stage_seconds", stage=stage).count == 1
        # The campaign logs its own reads: the granule results, the
        # classifier and the mosaic.
        assert len(records("campaign.cache_miss")) == n + 2
        assert records("campaign.cache_hit") == ()

        obs.log.clear()
        with CampaignRunner(config, obs=obs) as runner:
            result = runner.run()
            assert len(records("campaign.cache_hit")) == 1 + n
            runner.to_l3(result)
        assert len(records("campaign.cache_hit")) == 2 + n
        assert records("campaign.cache_miss") == ()
        # Hot: hits are counted, but nothing is computed or timed again.
        for stage in ("train", "mosaic_campaign"):
            assert runs(stage, "miss") == 1 and runs(stage, "hit") == 1
            assert obs.histogram("pipeline_stage_seconds", stage=stage).count == 1


class TestEngineLifecycle:
    """The runner owns one persistent map-reduce engine across fan-outs."""

    def test_runner_reuses_one_engine(self):
        config = CampaignConfig(
            base=BASE, grid=PARITY_GRID, seed=11, n_workers=2, executor="process"
        )
        with CampaignRunner(config, obs=Obs.disabled()) as runner:
            assert runner.engine is runner.engine  # cached_property, one engine
            result = runner.run()
            assert len(result.granules) == 3
            # Stage timings are measured work, not telemetry: they survive
            # a disabled Obs.
            assert list(result.timing) == ["curation", "training", "inference", "aggregation"]
            assert result.timing["curation"] > 0.0
            # The fan-outs left a live worker pool behind for reuse.
            assert runner.engine._pool_box
        # The context manager released it.
        assert runner.engine._pool_box == []

    def test_close_is_idempotent_and_safe_before_use(self):
        config = CampaignConfig(base=BASE, grid=PARITY_GRID, seed=11)
        runner = CampaignRunner(config)
        runner.close()  # engine never built: must be a no-op
        runner.close()

    def test_shm_off_campaign_matches_shm_on(self, parallel_result):
        config = CampaignConfig(
            base=BASE, grid=PARITY_GRID, seed=11, n_workers=2,
            executor="process", use_shm=False,
        )
        with CampaignRunner(config) as runner:
            plain = runner.run()
        assert plain.fingerprint == parallel_result.fingerprint
        for a, b in zip(plain.granules, parallel_result.granules):
            assert a.granule_id == b.granule_id
            for beam in a.products.freeboard:
                np.testing.assert_array_equal(
                    a.products.freeboard[beam].freeboard_m,
                    b.products.freeboard[beam].freeboard_m,
                )
        np.testing.assert_array_equal(
            plain.metrics.confusion, parallel_result.metrics.confusion
        )
