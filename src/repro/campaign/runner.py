"""Campaign orchestration: the Fig. 1 stage graph run over a granule fleet.

The runner executes the same :mod:`repro.pipeline` graph that powers
:func:`repro.workflow.end_to_end.run_end_to_end`: per-granule graph runs
around the graph's *pooled* stages, in three steps:

1. **Curation fan-out** — every granule's curation subgraph (scene → ATL03 →
   S2 → segmentation → drift → resample → auto-label → training set) runs
   as one graph execution.  Granules are chunked over a
   :class:`~repro.distributed.mapreduce.MapReduceEngine` with the
   ``process`` executor (a ``ProcessPoolExecutor`` under the hood) — the
   same chunk/map/concatenate idiom as :mod:`repro.labeling.parallel` and
   :mod:`repro.freeboard.parallel`, lifted from segment level to granule
   level.  These are the repo's two fan-out levels: inside one granule's
   graph run the per-beam stages loop serially.
2. **Pooled training** — the graph's pooled ``train`` stage is the
   campaign's barrier: one classifier is trained on the training sets of
   *all* granules, in canonical expansion order, through
   :meth:`~repro.pipeline.runner.GraphRunner.run_pooled`.  Training stays
   on the driver, so campaign results are bit-for-bit independent of
   worker count and scheduling.
3. **Retrieval fan-out** — each granule's inference, sea-surface,
   freeboard, ATL07/ATL10 and metrics stages run as one graph execution
   through the same engine, with its curated artifacts and the shared
   classifier injected.

:meth:`CampaignRunner.to_l3` grids every granule the same way and mosaics
the fleet through the pooled ``mosaic_campaign`` stage.

Caching is one content-addressed tier: the
:class:`~repro.pipeline.cache.StageCache` under ``<cache_dir>/stages/``,
shared across campaign fingerprints.  One walk
(:meth:`~repro.pipeline.runner.GraphRunner.fleet_fingerprints`) names every
entry of the fleet before anything runs, so changing only the sea-surface
config re-runs just sea-surface → freeboard → ATL07/ATL10 → metrics, never
curation or training.  Beside the graph stages the campaign keeps one
entry of its own per granule, the finished :class:`GranuleResult`, so a
fully cached resume reads one entry per granule plus the classifier and no
raw granule data.  Measured per-stage serial times are routed through the
:class:`~repro.distributed.cluster.ClusterCostModel` into a simulated
cluster scaling report (:func:`~repro.campaign.metrics.campaign_scaling_table`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.campaign.config import CampaignConfig, GranuleSpec
from repro.campaign.metrics import (
    CampaignMetrics,
    GranuleMetrics,
    aggregate_metrics,
    campaign_scaling_table,
)

# ``train_classifier`` stays importable here: e2ebench's layer tracer wraps
# ``repro.campaign.runner.train_classifier`` by name.
from repro.classification.pipeline import TrainedClassifier, train_classifier  # noqa: F401
from repro.distributed.cluster import ScalingRow
from repro.distributed.mapreduce import MapReduceEngine
from repro.evaluation.report import format_table
from repro.obs.core import Obs, default_obs
from repro.pipeline.artifact import Artifact, external_artifact
from repro.pipeline.cache import MISS, StageCache
from repro.pipeline.runner import GraphRunner, GraphRunResult
from repro.pipeline.stages import default_graph
from repro.workflow.end_to_end import InferenceProducts

if TYPE_CHECKING:
    from repro.l3.product import Level3Grid

#: Stage-cache name of one granule's finished :class:`GranuleResult`, keyed
#: by that granule's ``granule_metrics`` fingerprint (which chains the
#: curation config and the pooled classifier).  It keeps
#: the stage times the scaling report needs, so a resumed campaign never
#: loads the curation bundles just to rebuild that report.
GRANULE_RESULT_STAGE = "granule_result"

#: Curated artifacts injected into each granule's retrieval run.
_RETRIEVAL_INPUTS = ("granule", "segments")

#: A granule's retrieval products (an :class:`InferenceProducts`).
_PRODUCTS = ("classified", "freeboard", "atl07", "atl10")


@dataclass
class GranuleResult:
    """Final products and metrics of one campaign granule.

    Carries both stage times (``curation_seconds`` from stage 1,
    ``seconds`` from the retrieval stage) so a fully cached resume can
    rebuild the scaling report without loading any curation bundle, and the
    content fingerprints of its retrieval artifacts, so
    :meth:`CampaignRunner.to_l3` grids them under their real cache keys.
    """

    granule_id: str
    scenario: dict[str, Any]
    seed: int
    products: InferenceProducts
    metrics: GranuleMetrics
    seconds: float
    fingerprints: dict[str, str]
    curation_seconds: float = 0.0


@dataclass
class CampaignResult:
    """Everything a campaign produces, in canonical granule order."""

    fingerprint: str
    granules: list[GranuleResult]
    classifier: TrainedClassifier
    #: Content fingerprint of ``classifier`` (its ``train`` stage entry), so
    #: later graph runs inject it under the key it was actually trained at.
    classifier_fingerprint: str
    metrics: CampaignMetrics
    #: Wall seconds per stage: curation, training, inference, aggregation.
    timing: dict[str, float]
    scaling: list[ScalingRow]
    #: Stage-cache keys read (hits) and computed and stored (misses) this
    #: run; both empty when caching is disabled.  A fully resumed campaign
    #: hits one ``granule_result`` key per granule plus ``train``.
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
            [
                {
                    "Executors": row.executors,
                    "Cores": row.cores,
                    "Curation (s)": round(row.times_s["curation"], 2),
                    "Training (s)": round(row.times_s["training"], 2),
                    "Inference (s)": round(row.times_s["inference"], 2),
                    "Total (s)": round(row.total_s, 2),
                    "Speedup": round(row.speedup, 2),
                }
                for row in self.scaling
            ],
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


class _GraphTask:
    """Picklable map function: one graph run per ``(spec, precomputed)`` item.

    Each run comes back holding only its target artifacts, so workers ship
    no intermediate products to the driver.
    """

    def __init__(self, targets: tuple[str, ...], stage_root: str | None) -> None:
        self.targets = targets
        self.stage_root = stage_root

    def __call__(
        self, items: Sequence[tuple[GranuleSpec, dict[str, Artifact]]]
    ) -> list[GraphRunResult]:
        runner = GraphRunner(default_graph(), cache=_stage_cache(self.stage_root))
        out: list[GraphRunResult] = []
        for spec, precomputed in items:
            run = runner.run(
                spec.config,
                targets=self.targets,
                precomputed=precomputed,
                granule_id=spec.granule_id,
                scenario=spec.scenario,
            )
            targets = {name: run.artifacts[name] for name in self.targets}
            out.append(GraphRunResult(targets, run.executions, run.cache_enabled))
        return out


def _serial_seconds(run: GraphRunResult) -> float:
    """Serial-equivalent seconds of a graph run.

    Cache-served stages contribute the seconds their original computation
    took (carried in the bundles), so a warm re-run doesn't collapse the
    cluster scaling report to ~0.
    """
    return sum(e.seconds for e in run.executions)


def _flatten(parts: list[list]) -> list:
    return [item for part in parts for item in part]


def _fingerprinted(artifact: Artifact) -> "Level3Grid":
    """The artifact's Level-3 grid, with its content fingerprint in metadata."""
    artifact.value.metadata["fingerprint"] = artifact.fingerprint
    return artifact.value


class CampaignRunner:
    """Execute a :class:`~repro.campaign.config.CampaignConfig` end to end."""

    def __init__(self, config: CampaignConfig, obs: Obs | None = None) -> None:
        self.config = config
        self.obs = obs if obs is not None else default_obs()
        self.fingerprint = config.fingerprint()
        #: Config of the fleet's pooled stages: the base experiment under the
        #: campaign seed, which seeds pooled training.
        self._pooled_config = replace(config.base, seed=config.seed)

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

    def _graph_runner(self) -> GraphRunner:
        """A driver-side graph runner on the campaign's cache and telemetry."""
        cache = _stage_cache(self.config.cache_dir)
        return GraphRunner(default_graph(), cache=cache, obs=self.obs)

    def _note(self, key: str, hit: bool) -> None:
        """One debug record per stage-cache entry the campaign reads itself."""
        self.obs.log.debug("campaign.cache_hit" if hit else "campaign.cache_miss", key=key)

    def _run_pooled(
        self,
        runner: GraphRunner,
        stage: str,
        member_fingerprints: Sequence[Mapping[str, str]],
        supplier: Callable[[], Sequence[Mapping[str, Any]]],
        hits: list[str],
        misses: list[str],
    ) -> Artifact:
        """Run one pooled stage over the fleet; returns its one output artifact."""
        run = runner.run_pooled(stage, self._pooled_config, member_fingerprints, supplier)
        if run.cache_enabled:
            (record,) = run.executions
            self._note(record.cache_key, record.cached)
        hits.extend(run.cache_hits)
        misses.extend(run.cache_misses)
        (artifact,) = run.artifacts.values()
        return artifact

    # -- stages ----------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run (or resume) the whole campaign and return aggregated results.

        Telemetry: the whole run executes inside a ``campaign.run`` span
        whose children are one ``campaign.<stage>`` span per timing stage
        (curation, training, inference, aggregation), each enclosing its
        work — the fan-out engine's ``mapreduce.*`` spans nest under the
        curation and inference stages, the pooled ``train`` stage's
        ``pipeline.stage`` span under training.
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
        runner = self._graph_runner()
        cache = runner.cache

        # Every cache key is a content fingerprint derived purely from config,
        # so an entry produced under another config or stage version is
        # simply a different key.
        fleet_fps = runner.fleet_fingerprints(specs, self._pooled_config)
        result_fps = {
            spec.granule_id: fps["granule_metrics"] for spec, fps in zip(specs, fleet_fps)
        }

        # Finished granule results decide which granules need curating at
        # all, so a fully cached resume reads one entry per granule plus the
        # classifier and never touches raw granule data.
        results: dict[str, GranuleResult] = {}
        if cache is not None:
            for gid, fp in result_fps.items():
                bundle = cache.load_stage(GRANULE_RESULT_STAGE, fp)
                self._note(cache.key(GRANULE_RESULT_STAGE, fp), bundle is not MISS)
                if bundle is not MISS:
                    results[gid] = bundle["outputs"]["result"]
                    stage_hits.append(cache.key(GRANULE_RESULT_STAGE, fp))
        pending = [spec for spec in specs if spec.granule_id not in results]

        curated: dict[str, GraphRunResult] = {}

        def curate(todo: list[GranuleSpec]) -> None:
            task = _GraphTask((*_RETRIEVAL_INPUTS, "training_set"), self.config.cache_dir)
            for spec, run in zip(todo, self._fan_out([(spec, {}) for spec in todo], task)):
                curated[spec.granule_id] = run
                stage_hits.extend(run.cache_hits)
                stage_misses.extend(run.cache_misses)

        def training_sets() -> list[dict[str, Any]]:
            # Called only on a classifier miss: training needs every granule,
            # including those whose finished results were cached.
            curate([spec for spec in specs if spec.granule_id not in curated])
            return [
                {"training_set": curated[spec.granule_id].value("training_set")}
                for spec in specs
            ]

        # Stage 1: curation fan-out of the granules without a cached result.
        with self.obs.span("campaign.curation", n_pending=len(pending)):
            start = time.perf_counter()
            curate(pending)
            timing["curation"] = time.perf_counter() - start

        # Stage 2: one classifier on the pooled training sets (driver-side),
        # in canonical expansion order.  On a cache hit the measured fit time
        # comes from the bundle, so the scaling report is identical to the
        # original run's.
        with self.obs.span("campaign.training") as span:
            start = time.perf_counter()
            classifier = self._run_pooled(
                runner, "train", fleet_fps, training_sets, stage_hits, stage_misses
            )
            span.set(cached=classifier.from_cache)
            timing["training"] = time.perf_counter() - start

        # Stage 3: inference / freeboard / baseline fan-out.
        with self.obs.span("campaign.inference", n_retrieved=len(pending)):
            start = time.perf_counter()
            items = [
                (
                    spec,
                    {
                        **{n: curated[spec.granule_id].artifacts[n] for n in _RETRIEVAL_INPUTS},
                        "classifier": classifier,
                    },
                )
                for spec in pending
            ]
            task = _GraphTask((*_PRODUCTS, "granule_metrics"), self.config.cache_dir)
            for spec, run in zip(pending, self._fan_out(items, task)):
                gid = spec.granule_id
                stage_hits.extend(run.cache_hits)
                stage_misses.extend(run.cache_misses)
                results[gid] = GranuleResult(
                    granule_id=gid,
                    scenario=spec.scenario_dict(),
                    seed=spec.config.seed,
                    products=InferenceProducts(**{n: run.value(n) for n in _PRODUCTS}),
                    metrics=run.value("granule_metrics"),
                    seconds=_serial_seconds(run),
                    fingerprints=run.fingerprints,
                    curation_seconds=_serial_seconds(curated[gid]),
                )
                if cache is not None:
                    fp = result_fps[gid]
                    cache.store_stage(
                        GRANULE_RESULT_STAGE, fp, {"result": results[gid]}, results[gid].seconds
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
                training_s=classifier.seconds,
                inference_serial_s=sum(result.seconds for result in ordered),
            )
            timing["aggregation"] = time.perf_counter() - start

        self.obs.log.info(
            "campaign.stage_cache", hits=len(stage_hits), misses=len(stage_misses)
        )
        return CampaignResult(
            fingerprint=self.fingerprint,
            granules=ordered,
            classifier=classifier.value,
            classifier_fingerprint=classifier.fingerprint,
            metrics=metrics,
            timing=timing,
            scaling=scaling,
            stage_hits=tuple(stage_hits),
            stage_misses=tuple(stage_misses),
        )

    # -- Level-3 products ------------------------------------------------------

    def to_l3(self, result: CampaignResult | None = None) -> CampaignL3Result:
        """Grid the campaign's retrieval output and mosaic the fleet.

        Every granule runs the ``grid_granule`` stage as a graph execution
        with its classified segments and freeboards injected (at their real
        content fingerprints, so the stage tier serves unchanged granules
        from cache — a grid-resolution-only config change re-executes just
        ``grid_granule`` and ``mosaic_campaign``).  The fleet mosaic is the
        graph's pooled ``mosaic_campaign`` stage over all granule grids.
        """
        if result is None:
            result = self.run()
        start = time.perf_counter()
        runner = self._graph_runner()
        hits: list[str] = []
        misses: list[str] = []
        grids: dict[str, Any] = {}
        member_fps: list[dict[str, str]] = []
        for spec in self.config.expand():
            granule = result.granule(spec.granule_id)
            run = runner.run(
                spec.config,
                targets=("l3_granule",),
                precomputed={
                    name: external_artifact(
                        name, getattr(granule.products, name), granule.fingerprints[name]
                    )
                    for name in ("classified", "freeboard")
                },
                granule_id=spec.granule_id,
                scenario=spec.scenario,
            )
            grids[spec.granule_id] = _fingerprinted(run.artifacts["l3_granule"])
            member_fps.append(run.fingerprints)
            hits.extend(run.cache_hits)
            misses.extend(run.cache_misses)

        mosaic = self._run_pooled(
            runner,
            "mosaic_campaign",
            member_fps,
            lambda: [{"l3_granule": grid} for grid in grids.values()],
            hits,
            misses,
        )
        # Uncached, the mosaic names no cache entry.
        fingerprint = mosaic.fingerprint if runner.cache is not None else ""
        mosaic.value.metadata["fingerprint"] = fingerprint
        return CampaignL3Result(
            mosaic=mosaic.value,
            granules=grids,
            fingerprint=fingerprint,
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
        run = self._graph_runner().run(
            spec.config,
            targets=("l3_granule",),
            precomputed={
                "classifier": external_artifact(
                    "classifier", result.classifier, result.classifier_fingerprint
                )
            },
            granule_id=spec.granule_id,
            scenario=spec.scenario,
        )
        return _fingerprinted(run.artifacts["l3_granule"])

    # -- serving ---------------------------------------------------------------

    def serve(
        self,
        products_dir: str,
        result: CampaignResult | None = None,
        l3: CampaignL3Result | None = None,
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

            handle = runner.serve(products_dir)          # routes on base.serve.router
            handle = runner.serve(products_dir).with_router(RouterConfig(n_shards=1))
            handle = runner.serve(products_dir).with_router().with_ingest()

        The handle decodes products on the calling thread, next to its tile
        caches; the campaign's ``n_workers``/``executor`` fan out granules
        only, not serving.  Its ``gridder`` hook is wired to
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
            gridder=gridder,
            seed_l3=l3,
            obs=self.obs,
        )


def run_campaign(config: CampaignConfig, **kwargs) -> CampaignResult:
    """Convenience wrapper: ``CampaignRunner(config, **kwargs).run()``."""
    with CampaignRunner(config, **kwargs) as runner:
        return runner.run()
