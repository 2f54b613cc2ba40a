"""Campaign orchestration: the Fig. 1 stage graph fanned out over a granule fleet.

The runner executes the same :mod:`repro.pipeline` graph that powers
:func:`repro.workflow.end_to_end.run_end_to_end`, in three stages:

1. **Curation fan-out** — every granule's curation subgraph (scene → ATL03 →
   S2 → segmentation → drift → resample → auto-label) runs independently.
   Granules are chunked over a :class:`~repro.distributed.mapreduce.MapReduceEngine`
   with the ``process`` executor (a ``ProcessPoolExecutor`` under the hood) —
   the same chunk/map/concatenate idiom as :mod:`repro.labeling.parallel` and
   :mod:`repro.freeboard.parallel`, lifted from segment level to granule level.
2. **Pooled training** — the train stage is the campaign's barrier: one
   classifier is trained on the labelled segments of *all* granules,
   concatenated in canonical expansion order.  Training stays on the driver,
   so campaign results are bit-for-bit independent of worker count and
   scheduling.
3. **Retrieval fan-out** — inference, sea-surface detection, freeboard and
   the ATL07/ATL10 baselines fan back out per granule through the same
   engine, as graph executions with the curated artifacts and the shared
   classifier injected.

Caching is one content-addressed tier: the
:class:`~repro.pipeline.cache.StageCache` under ``<cache_dir>/stages/``,
shared across campaign fingerprints.  Every stage output is keyed by its
content fingerprint, so changing only the sea-surface config re-runs just
sea-surface → freeboard → ATL07/ATL10 → metrics, never curation or
training.  Two pooled entries (the trained classifier and the fleet
mosaic) and one finished :class:`GranuleResult` per granule sit beside the
graph stages under the same scheme, so a fully cached resume reads one
entry per granule plus the classifier and no raw granule data.  Measured
per-stage serial times are routed through the
:class:`~repro.distributed.cluster.ClusterCostModel` into a simulated
cluster scaling report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.campaign.config import CampaignConfig, GranuleSpec
from repro.campaign.metrics import (
    CampaignMetrics,
    CampaignScalingRow,
    GranuleMetrics,
    aggregate_metrics,
    campaign_scaling_table,
)
from repro.classification.pipeline import (
    InferencePipeline,
    TrainedClassifier,
    train_classifier,
)
from repro.config import ClusterConfig, DEFAULT_CLUSTER
from repro.distributed.cluster import ClusterCostModel
from repro.distributed.mapreduce import MapReduceEngine
from repro.evaluation.report import format_table
from repro.obs.core import Obs, default_obs
from repro.pipeline.artifact import external_artifact
from repro.pipeline.cache import MISS, StageCache
from repro.pipeline.fingerprint import config_slice, digest
from repro.pipeline.runner import GraphRunner
from repro.pipeline.stages import TRAIN_CONFIG_PATHS, default_graph
from repro.resampling.window import SegmentArray, concatenate_segments
from repro.workflow.end_to_end import ExperimentData, InferenceProducts

if TYPE_CHECKING:
    from repro.l3.product import Level3Grid

#: Stage-cache name of the campaign's pooled-training barrier.  It is not a
#: graph stage (it pools *across* granules), but it caches like one: the key
#: hashes the base training config, the campaign seed and every granule's
#: ``training_set`` fingerprint, so curation-irrelevant config changes
#: (e.g. sea-surface method) reuse the trained classifier.
POOLED_TRAIN_STAGE = "train-pooled"

#: Stage-cache name of the campaign's fleet-level Level-3 mosaic.  Like the
#: pooled-training barrier it pools *across* granules, so it is cached under
#: the graph stage's name with a composite fingerprint: the l3/scene config
#: slice, every granule's ``l3_granule`` fingerprint in canonical expansion
#: order, and the kernel backend.
MOSAIC_STAGE = "mosaic_campaign"

#: Stage-cache name of one granule's finished :class:`GranuleResult`, keyed
#: by that granule's ``granule_metrics`` fingerprint (which chains the
#: curation config, the pooled classifier and the kernel backend).  It keeps
#: the stage times the scaling report needs, so a resumed campaign never
#: loads the curation bundles just to rebuild that report.
GRANULE_RESULT_STAGE = "granule_result"

#: Retrieval-side artifacts materialised per granule by the graph.
_RETRIEVAL_TARGETS = ("freeboard", "atl07", "atl10", "granule_metrics")


@dataclass
class CuratedGranule:
    """Stage-1 output of one granule, ready for pooled training.

    ``groups`` holds the per-beam group ids of the combined segments so
    pooled training can keep features and LSTM sequences from crossing beam
    boundaries as well as granule boundaries.
    """

    granule_id: str
    data: ExperimentData
    segments: SegmentArray
    labels: np.ndarray
    groups: np.ndarray
    seconds: float


@dataclass
class GranuleResult:
    """Final products and metrics of one campaign granule.

    Carries both stage times (``curation_seconds`` from stage 1,
    ``seconds`` from the retrieval stage) so a fully cached resume can
    rebuild the scaling report without loading any curation bundle.
    """

    granule_id: str
    scenario: dict[str, Any]
    seed: int
    products: InferenceProducts
    metrics: GranuleMetrics
    seconds: float
    curation_seconds: float = 0.0


@dataclass
class CampaignResult:
    """Everything a campaign produces, in canonical granule order."""

    fingerprint: str
    granules: list[GranuleResult]
    classifier: TrainedClassifier
    metrics: CampaignMetrics
    #: Wall seconds per stage: curation, training, inference, aggregation.
    timing: dict[str, float]
    scaling: list[CampaignScalingRow]
    #: Stage-cache keys read (hits) and computed and stored (misses) this
    #: run; both empty when caching is disabled.  A fully resumed campaign
    #: hits one ``granule_result`` key per granule plus ``train-pooled``.
    stage_hits: tuple[str, ...] = ()
    stage_misses: tuple[str, ...] = ()

    @property
    def n_granules(self) -> int:
        return len(self.granules)

    @cached_property
    def _granules_by_id(self) -> dict[str, GranuleResult]:
        return {result.granule_id: result for result in self.granules}

    def granule(self, granule_id: str) -> GranuleResult:
        try:
            return self._granules_by_id[granule_id]
        except KeyError:
            raise KeyError(f"no granule {granule_id!r} in this campaign") from None

    def summary(self) -> str:
        """Plain-text per-granule and campaign-level summary tables."""
        per_granule = format_table(
            [result.metrics.as_row() for result in self.granules],
            title=f"Campaign {self.fingerprint}: {self.n_granules} granules",
        )
        campaign = format_table([self.metrics.as_row()], title="Campaign aggregate")
        scaling = format_table(
            [row.as_dict() for row in self.scaling],
            title="Simulated cluster scaling (calibrated cost model)",
        )
        return "\n\n".join([per_granule, campaign, scaling])


@dataclass
class CampaignL3Result:
    """The campaign's Level-3 products: per-granule grids plus the mosaic.

    ``granules`` preserves canonical expansion order.  ``stage_hits`` /
    ``stage_misses`` are the stage-tier keys touched while gridding — after
    a grid-resolution-only config change, only ``grid_granule-*`` and
    ``mosaic_campaign-*`` keys appear in ``stage_misses``.
    """

    mosaic: "Level3Grid"
    granules: dict[str, "Level3Grid"]
    #: Content fingerprint of the fleet mosaic ("" when caching is disabled).
    fingerprint: str = ""
    stage_hits: tuple[str, ...] = ()
    stage_misses: tuple[str, ...] = ()
    seconds: float = 0.0

    @property
    def n_granules(self) -> int:
        return len(self.granules)

    def summary(self) -> str:
        """Plain-text coverage table of the granule grids and the mosaic."""
        from repro.evaluation.tables import l3_coverage_table

        rows = l3_coverage_table([*self.granules.values(), self.mosaic])
        return format_table(rows, title=f"Level-3 products ({self.n_granules} granules)")


def _stage_cache(root: str | None) -> StageCache | None:
    return StageCache(root) if root is not None else None


class _CurateTask:
    """Picklable map function: curate one chunk of granule specs.

    Each granule is a graph execution targeting the curated artifacts; with
    a stage cache the per-stage fingerprints make re-curation after a
    downstream-only config change a pure cache read.  Returns
    ``(curated, stage_hits, stage_misses)`` triples so the driver can
    aggregate stage-tier bookkeeping without persisting it in the artifact.
    """

    def __init__(self, stage_root: str | None) -> None:
        self.stage_root = stage_root

    def __call__(
        self, specs: Sequence[GranuleSpec]
    ) -> list[tuple[CuratedGranule, tuple[str, ...], tuple[str, ...]]]:
        runner = GraphRunner(default_graph(), cache=_stage_cache(self.stage_root))
        out: list[tuple[CuratedGranule, tuple[str, ...], tuple[str, ...]]] = []
        for spec in specs:
            result = runner.run(
                spec.config,
                targets=("experiment_data", "training_set"),
                granule_id=spec.granule_id,
                scenario=spec.scenario,
            )
            data = result.value("experiment_data")
            training_set = result.value("training_set")
            curated = CuratedGranule(
                granule_id=spec.granule_id,
                data=data,
                segments=training_set.segments,
                labels=training_set.labels,
                groups=training_set.groups,
                # Serial-equivalent time: cache-served stages contribute the
                # seconds their original computation took (carried in the
                # bundles), so warm re-curation doesn't collapse the
                # cluster scaling report to ~0.
                seconds=sum(e.seconds for e in result.executions),
            )
            out.append((curated, result.cache_hits, result.cache_misses))
        return out


class _RetrieveTask:
    """Picklable map function: classify + retrieve one chunk of curated granules.

    Classification is pooled across the whole chunk: every granule's beams go
    through one ``predict_batched`` pass (the LSTM steps all sequences of all
    granules together), and the measured pooled time is attributed back to
    the granules proportionally to their segment counts so the scaling report
    stays meaningful.  Per granule, the remaining retrieval stages
    (sea-surface → freeboard → ATL07/ATL10 → metrics) run as a graph
    execution with the curated artifacts, the shared classifier and the
    pooled classification injected — stage-cached granules skip even the
    pooled pass.
    """

    def __init__(
        self, classifier: TrainedClassifier, classifier_fp: str, stage_root: str | None
    ) -> None:
        self.classifier = classifier
        self.classifier_fp = classifier_fp
        self.stage_root = stage_root

    def __call__(
        self, items: Sequence[tuple[GranuleSpec, CuratedGranule]]
    ) -> list[tuple[GranuleResult, tuple[str, ...], tuple[str, ...]]]:
        cache = _stage_cache(self.stage_root)
        runner = GraphRunner(default_graph(), cache=cache)
        hits: dict[str, list[str]] = {spec.granule_id: [] for spec, _ in items}
        misses: dict[str, list[str]] = {spec.granule_id: [] for spec, _ in items}

        fps = {
            spec.granule_id: runner.fingerprints(
                spec.config,
                granule_id=spec.granule_id,
                scenario=spec.scenario,
                precomputed={"classifier": self.classifier_fp},
            )
            for spec, _ in items
        }

        # Probe the stage tier for already-classified granules, then pool the
        # rest through one batched pass.
        cached_classified: dict[str, dict] = {}
        cached_share: dict[str, float] = {}
        pooled: dict[str, SegmentArray] = {}
        for spec, curated in items:
            gid = spec.granule_id
            if cache is not None:
                bundle = cache.load_stage("infer", fps[gid]["classified"])
                if bundle is not MISS:
                    cached_classified[gid] = bundle["outputs"]["classified"]
                    cached_share[gid] = bundle["seconds"]
                    hits[gid].append(f"infer-{fps[gid]['classified']}")
                    continue
            for beam_name, segments in curated.data.segments.items():
                pooled[f"{gid}/{beam_name}"] = segments

        pool_seconds = 0.0
        classified_pool: dict[str, Any] = {}
        if pooled:
            start = time.perf_counter()
            pipeline = InferencePipeline(self.classifier)
            classified_pool = pipeline.classify_segments_batched(pooled)
            pool_seconds = time.perf_counter() - start
        total_segments = max(sum(t.n_segments for t in classified_pool.values()), 1)

        out: list[tuple[GranuleResult, tuple[str, ...], tuple[str, ...]]] = []
        for spec, curated in items:
            gid = spec.granule_id
            infer_fp = fps[gid]["classified"]
            if gid in cached_classified:
                classified = cached_classified[gid]
                share = cached_share[gid]
            else:
                classified = {
                    beam_name: classified_pool[f"{gid}/{beam_name}"]
                    for beam_name in curated.data.segments
                }
                granule_segments = sum(t.n_segments for t in classified.values())
                share = pool_seconds * granule_segments / total_segments
                if cache is not None:
                    cache.store_stage("infer", infer_fp, {"classified": classified}, share)
                    misses[gid].append(f"infer-{infer_fp}")

            precomputed = {
                "granule": external_artifact(
                    "granule", curated.data.granule, fps[gid].get("granule")
                ),
                "segments": external_artifact(
                    "segments", curated.data.segments, fps[gid].get("segments")
                ),
                "classifier": external_artifact(
                    "classifier", self.classifier, self.classifier_fp
                ),
                "classified": external_artifact("classified", classified, infer_fp),
            }
            result = runner.run(
                spec.config,
                targets=_RETRIEVAL_TARGETS,
                precomputed=precomputed,
                granule_id=gid,
                scenario=spec.scenario,
            )
            hits[gid].extend(result.cache_hits)
            misses[gid].extend(result.cache_misses)
            products = InferenceProducts(
                classified=classified,
                freeboard=result.value("freeboard"),
                atl07=result.value("atl07"),
                atl10=result.value("atl10"),
            )
            out.append(
                (
                    GranuleResult(
                        granule_id=gid,
                        scenario=spec.scenario_dict(),
                        seed=spec.config.seed,
                        products=products,
                        metrics=result.value("granule_metrics"),
                        # Serial-equivalent retrieval time: stage seconds
                        # (original compute time for cache hits) plus this
                        # granule's share of the pooled classification pass.
                        seconds=sum(e.seconds for e in result.executions) + share,
                        curation_seconds=curated.seconds,
                    ),
                    tuple(hits[gid]),
                    tuple(misses[gid]),
                )
            )
        return out


def _flatten(parts: list[list]) -> list:
    return [item for part in parts for item in part]


class CampaignRunner:
    """Execute a :class:`~repro.campaign.config.CampaignConfig` end to end."""

    def __init__(
        self,
        config: CampaignConfig,
        cost_model: ClusterCostModel | None = None,
        cluster: ClusterConfig = DEFAULT_CLUSTER,
        obs: Obs | None = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model if cost_model is not None else ClusterCostModel()
        self.cluster = cluster
        self.obs = obs if obs is not None else default_obs()
        self.fingerprint = config.fingerprint()
        #: Root of the stage cache, shared by every campaign fingerprint
        #: under the same cache directory.
        self.stage_root: str | None = config.cache_dir
        #: Memoized fingerprint maps per kernel backend (the only non-config
        #: input they depend on), so ``run()`` + ``to_l3()`` derive them once.
        self._fingerprint_memo: dict[str, tuple] = {}

    # -- engine ----------------------------------------------------------------

    @cached_property
    def engine(self) -> MapReduceEngine:
        """The runner's one persistent fan-out engine.

        Created lazily and reused across every fleet fan-out — the process
        pool spawns once per campaign, not once per job.  Width varies per
        fan-out via the ``n_partitions`` override; single-item fan-outs run
        inline in the engine, preserving the old serial-when-single
        semantics.
        """
        executor = self.config.executor if self.config.n_workers > 1 else "serial"
        return MapReduceEngine(
            n_partitions=self.config.n_workers,
            executor=executor,
            max_workers=self.config.n_workers,
            use_shm=self.config.use_shm,
            obs=self.obs,
        )

    def close(self) -> None:
        """Release the fan-out worker pool (idempotent; respawns on reuse)."""
        if "engine" in self.__dict__:
            self.engine.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _fan_out(self, items: list, task) -> list:
        """Run ``task`` over worker-count chunks of ``items``; order-preserving."""
        if not items:
            return []
        width = max(min(self.config.n_workers, len(items)), 1)
        result = self.engine.run(lambda: items, task, _flatten, n_partitions=width)
        return list(result.value)

    # -- cache helpers ---------------------------------------------------------

    def _load_stage(
        self, cache: StageCache | None, stage: str, fp: str | None, hits: list[str]
    ):
        """Load one driver-side stage-cache bundle, recording a hit.

        Returns :data:`~repro.pipeline.cache.MISS` on a miss, or when caching
        is disabled or the entry has no fingerprint.  A miss is recorded by
        the caller once it has computed and stored the entry, as the graph
        runner does.
        """
        if cache is None or fp is None:
            return MISS
        key = cache.key(stage, fp)
        bundle = cache.load_stage(stage, fp)
        if bundle is MISS:
            self.obs.log.debug("campaign.cache_miss", key=key)
            return MISS
        hits.append(key)
        self.obs.log.debug("campaign.cache_hit", key=key)
        return bundle

    def _spec_fingerprints(
        self, specs: Sequence[GranuleSpec]
    ) -> dict[str, dict[str, str]] | None:
        """Per-granule curation-subgraph fingerprints, or ``None`` uncached."""
        if self.stage_root is None:
            return None
        runner = GraphRunner(default_graph())
        return {
            spec.granule_id: runner.fingerprints(
                spec.config, granule_id=spec.granule_id, scenario=spec.scenario
            )
            for spec in specs
        }

    def _retrieval_fingerprints(
        self, specs: Sequence[GranuleSpec], pooled_fp: str | None
    ) -> dict[str, dict[str, str]] | None:
        """Per-granule retrieval fingerprints with the classifier injected.

        ``granule_metrics`` is the deepest retrieval artifact, so its
        fingerprint keys the granule's :data:`GRANULE_RESULT_STAGE` entry.
        """
        if pooled_fp is None:
            return None
        runner = GraphRunner(default_graph())
        return {
            spec.granule_id: runner.fingerprints(
                spec.config,
                granule_id=spec.granule_id,
                scenario=spec.scenario,
                precomputed={"classifier": pooled_fp},
            )
            for spec in specs
        }

    def _pooled_train_fingerprint(
        self,
        specs: Sequence[GranuleSpec],
        spec_fps: dict[str, dict[str, str]] | None,
    ) -> str | None:
        """Content fingerprint of the pooled-training barrier, or ``None``.

        Hashes the campaign-wide training slice of ``base``, the campaign
        seed (which seeds pooled training) and every granule's
        ``training_set`` fingerprint in canonical expansion order — derived
        purely from config, so it is available before any curation runs.
        """
        if spec_fps is None:
            return None
        input_fps: list[str] = []
        for spec in specs:
            fps = spec_fps[spec.granule_id]
            if "training_set" not in fps:
                return None
            input_fps.append(fps["training_set"])
        from repro import kernels

        paths = tuple(path for path in TRAIN_CONFIG_PATHS if path != "seed")
        return digest(
            {
                "stage": POOLED_TRAIN_STAGE,
                "version": "1",
                "config": config_slice(self.config.base, paths),
                "seed": self.config.seed,
                "inputs": input_fps,
                # Training runs LSTM/MLP kernels: never share classifiers
                # across kernel backends (they agree only to ~1e-10).
                "kernel_backend": kernels.get_backend(),
            }
        )

    def _fingerprint_maps(
        self, specs: Sequence[GranuleSpec]
    ) -> tuple[
        dict[str, dict[str, str]] | None, str | None, dict[str, dict[str, str]] | None
    ]:
        """Memoized ``(spec_fps, pooled_fp, retrieval_fps)`` for this config.

        The maps are pure functions of the config and the active kernel
        backend, so they are derived once per backend and shared between
        :meth:`run` and :meth:`to_l3` instead of re-walking the graph.
        """
        from repro import kernels

        key = kernels.get_backend()
        cached = self._fingerprint_memo.get(key)
        if cached is None:
            spec_fps = self._spec_fingerprints(specs)
            pooled_fp = self._pooled_train_fingerprint(specs, spec_fps)
            retrieval_fps = self._retrieval_fingerprints(specs, pooled_fp)
            cached = (spec_fps, pooled_fp, retrieval_fps)
            self._fingerprint_memo[key] = cached
        return cached

    # -- stages ----------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run (or resume) the whole campaign and return aggregated results.

        Telemetry: the whole run executes inside a ``campaign.run`` span
        whose children are one ``campaign.<stage>`` span per timing stage
        (curation, training, inference, aggregation), each enclosing its
        work — the fan-out engine's ``mapreduce.*`` spans nest under the
        curation and inference stages.
        """
        with self.obs.span("campaign.run", fingerprint=self.fingerprint) as span:
            result = self._run()
            span.set(
                n_granules=result.n_granules,
                stage_hits=len(result.stage_hits),
                stage_misses=len(result.stage_misses),
            )
        self.obs.counter("campaign_runs_total").inc()
        self.obs.counter("campaign_granules_total").inc(result.n_granules)
        return result

    def _run(self) -> CampaignResult:
        specs = self.config.expand()
        timing: dict[str, float] = {}
        stage_hits: list[str] = []
        stage_misses: list[str] = []
        cache = _stage_cache(self.stage_root)

        # Every cache key is a content fingerprint derived purely from config
        # and the kernel backend, so an entry produced under another config,
        # backend or stage version is simply a different key.
        _, pooled_fp, retrieval_fps = self._fingerprint_maps(specs)
        result_fps = {
            spec.granule_id: (
                retrieval_fps[spec.granule_id].get("granule_metrics")
                if retrieval_fps is not None
                else None
            )
            for spec in specs
        }

        # Probe the finished granule results and the pooled classifier first:
        # they decide which granules need curating at all, so a fully cached
        # resume reads one entry per granule plus the classifier and never
        # touches raw granule data.
        results: dict[str, GranuleResult] = {}
        for spec in specs:
            gid = spec.granule_id
            bundle = self._load_stage(
                cache, GRANULE_RESULT_STAGE, result_fps[gid], stage_hits
            )
            if bundle is not MISS:
                results[gid] = bundle["outputs"]["result"]
        to_retrieve_specs = [spec for spec in specs if spec.granule_id not in results]

        # The pooled-training barrier is shared across campaign fingerprints:
        # a campaign differing from a cached one only downstream of curation
        # (e.g. sea-surface method) reuses the trained classifier.
        bundle = self._load_stage(cache, POOLED_TRAIN_STAGE, pooled_fp, stage_hits)
        classifier: TrainedClassifier | None = None
        training_seconds = 0.0
        if bundle is not MISS:
            classifier = bundle["outputs"]["classifier"]
            training_seconds = bundle["seconds"]

        # Stage 1: curation fan-out.  Training needs every granule curated;
        # with a cached classifier, only granules without a cached result do.
        pending = specs if classifier is None else to_retrieve_specs
        curated: dict[str, CuratedGranule] = {}
        with self.obs.span("campaign.curation", n_pending=len(pending)):
            start = time.perf_counter()
            for item, item_hits, item_misses in self._fan_out(
                pending, _CurateTask(self.stage_root)
            ):
                curated[item.granule_id] = item
                stage_hits.extend(item_hits)
                stage_misses.extend(item_misses)
            timing["curation"] = time.perf_counter() - start

        # Stage 2: one classifier on the pooled labelled segments
        # (driver-side).  Granules are pooled in canonical expansion order;
        # LSTM sequence windows are grouped per granule so no training
        # sequence spans two unrelated scenes.  On a cache hit the measured
        # fit time comes from the bundle so the scaling report is identical
        # to the original run's.
        with self.obs.span("campaign.training", cached=classifier is not None):
            start = time.perf_counter()
            if classifier is None:
                classifier = self._train_pooled(
                    [curated[spec.granule_id] for spec in specs]
                )
                training_seconds = time.perf_counter() - start
                if cache is not None and pooled_fp is not None:
                    cache.store_stage(
                        POOLED_TRAIN_STAGE,
                        pooled_fp,
                        {"classifier": classifier},
                        training_seconds,
                    )
                    stage_misses.append(cache.key(POOLED_TRAIN_STAGE, pooled_fp))
            timing["training"] = time.perf_counter() - start

        # Stage 3: inference / freeboard / baseline fan-out.
        to_retrieve = [
            (spec, curated[spec.granule_id]) for spec in to_retrieve_specs
        ]
        classifier_fp = pooled_fp if pooled_fp is not None else "external:classifier"
        with self.obs.span("campaign.inference", n_retrieved=len(to_retrieve)):
            start = time.perf_counter()
            for item, item_hits, item_misses in self._fan_out(
                to_retrieve, _RetrieveTask(classifier, classifier_fp, self.stage_root)
            ):
                results[item.granule_id] = item
                stage_hits.extend(item_hits)
                stage_misses.extend(item_misses)
                fp = result_fps[item.granule_id]
                if cache is not None and fp is not None:
                    cache.store_stage(
                        GRANULE_RESULT_STAGE, fp, {"result": item}, item.seconds
                    )
                    stage_misses.append(cache.key(GRANULE_RESULT_STAGE, fp))
            timing["inference"] = time.perf_counter() - start

        # Aggregate + simulated cluster scaling from serial-equivalent times.
        with self.obs.span("campaign.aggregation"):
            start = time.perf_counter()
            ordered = [results[spec.granule_id] for spec in specs]
            metrics = aggregate_metrics([result.metrics for result in ordered])
            scaling = campaign_scaling_table(
                curation_serial_s=sum(result.curation_seconds for result in ordered),
                training_s=training_seconds,
                inference_serial_s=sum(result.seconds for result in ordered),
                cost_model=self.cost_model,
                cluster=self.cluster,
            )
            timing["aggregation"] = time.perf_counter() - start

        self.obs.log.info(
            "campaign.stage_cache", hits=len(stage_hits), misses=len(stage_misses)
        )
        return CampaignResult(
            fingerprint=self.fingerprint,
            granules=ordered,
            classifier=classifier,
            metrics=metrics,
            timing=timing,
            scaling=scaling,
            stage_hits=tuple(stage_hits),
            stage_misses=tuple(stage_misses),
        )

    def _train_pooled(self, pooled: list[CuratedGranule]) -> TrainedClassifier:
        """Fit the campaign classifier on every curated granule's segments."""
        base = self.config.base
        pooled_segments = concatenate_segments(
            [item.segments for item in pooled], beam_name="campaign"
        )
        pooled_labels = np.concatenate([item.labels for item in pooled])
        # Compose per-beam group ids across granules: offset each
        # granule's ids so every (granule, beam) track is distinct.
        group_parts: list[np.ndarray] = []
        offset = 0
        for item in pooled:
            group_parts.append(item.groups + offset)
            offset += int(item.groups.max()) + 1 if item.groups.size else 0
        return train_classifier(
            pooled_segments,
            pooled_labels,
            kind=base.model_kind,
            lstm_config=base.lstm,
            mlp_config=base.mlp,
            training=base.training,
            epochs=base.epochs,
            rng=self.config.seed,
            groups=np.concatenate(group_parts),
        )

    # -- Level-3 products ------------------------------------------------------

    def to_l3(self, result: CampaignResult | None = None) -> CampaignL3Result:
        """Grid the campaign's retrieval output and mosaic the fleet.

        Every granule runs the ``grid_granule`` stage as a graph execution
        with its classified segments and freeboards injected (at their real
        content fingerprints, so the stage tier serves unchanged granules
        from cache — a grid-resolution-only config change re-executes just
        ``grid_granule`` and ``mosaic_campaign``).  The fleet mosaic pools
        all granule grids and is cached under the :data:`MOSAIC_STAGE` key
        like the pooled-training barrier.
        """
        from repro.l3.processor import Level3Processor

        if result is None:
            result = self.run()
        start = time.perf_counter()
        specs = self.config.expand()
        _, _, retrieval_fps = self._fingerprint_maps(specs)
        cache = _stage_cache(self.stage_root)
        runner = GraphRunner(default_graph(), cache=cache)

        hits: list[str] = []
        misses: list[str] = []
        grids: dict[str, Any] = {}
        for spec in specs:
            gid = spec.granule_id
            products = result.granule(gid).products
            fps = retrieval_fps[gid] if retrieval_fps is not None else {}
            precomputed = {
                "classified": external_artifact(
                    "classified", products.classified, fps.get("classified")
                ),
                "freeboard": external_artifact(
                    "freeboard", products.freeboard, fps.get("freeboard")
                ),
            }
            run = runner.run(
                spec.config,
                targets=("l3_granule",),
                precomputed=precomputed,
                granule_id=gid,
                scenario=spec.scenario,
            )
            product = run.value("l3_granule")
            product.metadata["fingerprint"] = run.artifacts["l3_granule"].fingerprint
            grids[gid] = product
            hits.extend(run.cache_hits)
            misses.extend(run.cache_misses)

        # Fleet mosaic: content-addressed across campaign fingerprints, so
        # two campaigns differing only upstream-irrelevantly share it.
        mosaic_fp = None
        if retrieval_fps is not None and all(
            "l3_granule" in retrieval_fps[spec.granule_id] for spec in specs
        ):
            from repro import kernels

            mosaic_fp = digest(
                {
                    "stage": MOSAIC_STAGE,
                    "version": "1",
                    "config": config_slice(self.config.base, ("l3", "scene")),
                    "inputs": [
                        retrieval_fps[spec.granule_id]["l3_granule"] for spec in specs
                    ],
                    "kernel_backend": kernels.get_backend(),
                }
            )

        bundle = self._load_stage(cache, MOSAIC_STAGE, mosaic_fp, hits)
        if bundle is not MISS:
            mosaic = bundle["outputs"]["l3_mosaic"]
        else:
            processor = Level3Processor.from_config(
                self.config.base.l3, scene=self.config.base.scene
            )
            mosaic_start = time.perf_counter()
            mosaic = processor.mosaic([grids[spec.granule_id] for spec in specs])
            mosaic_seconds = time.perf_counter() - mosaic_start
            mosaic.metadata["fingerprint"] = mosaic_fp or ""
            if mosaic_fp is not None and cache is not None:
                cache.store_stage(
                    MOSAIC_STAGE, mosaic_fp, {"l3_mosaic": mosaic}, mosaic_seconds
                )
                misses.append(cache.key(MOSAIC_STAGE, mosaic_fp))

        return CampaignL3Result(
            mosaic=mosaic,
            granules=grids,
            fingerprint=mosaic_fp or "",
            stage_hits=tuple(hits),
            stage_misses=tuple(misses),
            seconds=time.perf_counter() - start,
        )

    def grid_new_granule(
        self, spec: GranuleSpec, result: CampaignResult | None = None
    ) -> "Level3Grid":
        """Grid one granule that was not part of the original fleet.

        The live-ingest entry point: runs the full curation → inference →
        retrieval → gridding graph for ``spec`` with the campaign's trained
        classifier injected at its content fingerprint, so every stage is
        served from the stage cache when the granule (or any prefix of its
        pipeline) was seen before.  Returns the per-granule Level-3 product
        with its content fingerprint in metadata, ready for
        :meth:`repro.ingest.IngestService.ingest`.
        """
        if result is None:
            result = self.run()
        _, pooled_fp, _ = self._fingerprint_maps(self.config.expand())
        classifier_fp = pooled_fp if pooled_fp is not None else "external:classifier"
        runner = GraphRunner(default_graph(), cache=_stage_cache(self.stage_root))
        run = runner.run(
            spec.config,
            targets=("l3_granule",),
            precomputed={
                "classifier": external_artifact(
                    "classifier", result.classifier, classifier_fp
                )
            },
            granule_id=spec.granule_id,
            scenario=spec.scenario,
        )
        product = run.value("l3_granule")
        product.metadata["fingerprint"] = run.artifacts["l3_granule"].fingerprint
        return product

    # -- serving ---------------------------------------------------------------

    def serve(
        self,
        products_dir: str,
        result: CampaignResult | None = None,
        l3: CampaignL3Result | None = None,
        n_workers: int | None = None,
        executor: str = "thread",
    ):
        """Write the campaign's Level-3 products and return a serving handle.

        Convenience end of the data path: grids the fleet (via :meth:`to_l3`
        unless ``l3`` is given), writes the mosaic and every granule grid as
        self-describing products under ``products_dir``, registers exactly
        those files into a :class:`~repro.serve.catalog.ProductCatalog`
        (stale products from earlier campaigns or foreign files in the same
        directory are never picked up — use ``ProductCatalog.scan`` to serve
        a whole archive) and returns a
        :class:`~repro.serve.handle.ServeHandle` configured from the
        campaign's ``base.serve`` slice.  Chain builder steps onto the
        handle for the rest of the stack::

            handle = runner.serve(products_dir)          # bare query engine
            handle = runner.serve(products_dir).with_router()       # + router
            handle = runner.serve(products_dir).with_router().with_ingest()

        The handle queries through the thread executor by default — serving
        is decode-bound NumPy work that releases the GIL, and the tile
        caches live on the driver.  Its ``gridder`` hook is wired to
        :meth:`grid_new_granule`, so an attached ingest service can grid
        newly arrived granule specs through the cached pipeline stages.
        """
        # Local imports: repro.serve sits downstream of the campaign layer,
        # mirroring to_l3's treatment of repro.l3.
        from repro.l3.writer import write_level3
        from repro.serve.catalog import ProductCatalog
        from repro.serve.handle import ServeHandle

        if l3 is None:
            l3 = self.to_l3(result)
        out_dir = Path(products_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        catalog = ProductCatalog()
        fmt = self.config.base.serve.product_format
        _, json_path = write_level3(l3.mosaic, out_dir / "mosaic", format=fmt)
        catalog.register(json_path)
        for granule_id, product in l3.granules.items():
            _, json_path = write_level3(product, out_dir / granule_id, format=fmt)
            catalog.register(json_path)
        workers = n_workers if n_workers is not None else self.config.n_workers

        campaign_result = result

        def gridder(spec: GranuleSpec) -> "Level3Grid":
            nonlocal campaign_result
            if campaign_result is None:
                # Resolved lazily, on the first spec ingest: with a stage
                # cache this replays from disk; without one it is a real run,
                # which only ingest-by-spec should ever pay for.
                campaign_result = self.run()
            return self.grid_new_granule(spec, result=campaign_result)

        return ServeHandle(
            catalog,
            serve=self.config.base.serve,
            products_dir=out_dir,
            n_workers=workers,
            executor=executor,
            gridder=gridder,
            seed_l3=l3,
            obs=self.obs,
        )


def run_campaign(config: CampaignConfig, **kwargs) -> CampaignResult:
    """Convenience wrapper: ``CampaignRunner(config, **kwargs).run()``."""
    with CampaignRunner(config, **kwargs) as runner:
        return runner.run()
