"""The Fig. 1 workflow registered as composable, cacheable stages.

Each step of the paper's workflow — scene -> atl03 -> s2 -> segmentation ->
resample -> drift -> align -> autolabel -> train -> infer -> sea-surface ->
freeboard -> atl07/atl10 -> metrics, plus the Level-3/serving extension
grid_granule -> mosaic_campaign -> build_pyramid — is a
:class:`~repro.pipeline.stage.Stage` with declared typed inputs/outputs and
the config slice it reads.  :func:`default_graph` wires them into the
canonical :class:`~repro.pipeline.graph.StageGraph`;
:mod:`repro.workflow.end_to_end` and :mod:`repro.campaign.runner` are both
executions of this graph.  ``train`` and ``mosaic_campaign`` are *pooled*
stages: a campaign runs each once over the list of every granule's
``training_set`` / ``l3_granule`` (the paper's one classifier for all
tracks, and the fleet mosaic); a single-granule run passes a list of one.

The stage cache holds each stage's outputs once, and only outputs that are
dearer to recompute than to store.  The S2 image is ~27 MB for an 8 km scene
(~30 ms to pickle), while ``segmentation``, ``drift`` and ``autolabel`` are
the only stages that read its pixels and they are all cached, so ``s2`` is
uncached: the image is rendered in memory by the run that needs it (a
cold run, or a miss of one of those three stages) and never written.  Its
bands are rendered where they are read: ``segmentation`` also takes the
``segments`` and renders and segments only the corridor of tiles that drift
and auto-labeling can read.  The
drift stage caches only the :class:`~repro.labeling.alignment.DriftEstimate`,
and the uncached ``align`` stage re-derives the aligned image from the image
and that estimate (a change of georeferencing, not of pixels).  ``curate``
and ``training_set`` are uncached assembly; ``training_set`` reads just the
cached ``segments`` and ``labels``, so a warm campaign re-run reads no
scene, image, segmentation or drift bundle.

Determinism contract: a graph run is bit-for-bit identical to the historical
monolithic ``prepare_experiment_data``/``run_end_to_end`` sequence.  The
only subtlety is random-stream derivation — ``derive_rng`` consumes a draw
from its parent generator, so :func:`_derived_stream` replays the exact
draw order the monolith used (granule = first draw, S2 image = second) even
though the stages now execute independently and may be served from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.atl03.granule import Granule
from repro.atl03.simulator import simulate_granule
from repro.classification.pipeline import (
    ClassifiedTrack,
    InferencePipeline,
    TrainedClassifier,
    train_classifier,
)
from repro.freeboard.freeboard import (
    FreeboardResult,
    TrackSeaSurface,
    estimate_track_sea_surface,
    freeboard_from_sea_surface,
)
from repro.l3.processor import Level3Processor
from repro.l3.product import Level3Grid
from repro.labeling.alignment import MAX_SHIFT_M, DriftEstimate, apply_shift, estimate_drift
from repro.labeling.autolabel import AutoLabelResult, auto_label_segments
from repro.labeling.manual import CorrectionReport, correct_labels
from repro.pipeline.artifact import ArtifactSpec
from repro.pipeline.graph import StageGraph
from repro.pipeline.stage import Stage, StageContext
from repro.products.atl07 import ATL07Product, generate_atl07
from repro.products.atl10 import ATL10Product, generate_atl10
from repro.resampling.window import SegmentArray, concatenate_segments, resample_fixed_window
from repro.sentinel2.scene import S2Image, render_scene
from repro.serve.pyramid import TilePyramid, build_pyramid
from repro.sentinel2.segmentation import SegmentationResult, corridor_tiles, segment_image
from repro.surface.scene import IceScene, generate_scene
from repro.utils.random import default_rng, derive_rng
from repro.workflow.experiment import ExperimentData, training_arrays


@dataclass
class TrainingSet:
    """Pooled training arrays of one granule (segments, labels, group ids)."""

    segments: SegmentArray
    labels: np.ndarray
    groups: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(self.labels.shape[0])


def _derived_stream(seed: int, key: int) -> np.random.Generator:
    """Replay the monolith's ``derive_rng`` draw order for stream ``key``.

    Historically one parent generator served ``derive_rng(parent, 1)`` for
    the ATL03 granule and then ``derive_rng(parent, 2)`` for the S2 image,
    each call consuming one draw.  Rebuilding the parent per stage and
    skipping the earlier draws yields exactly the same child streams while
    keeping the stages independent (and therefore cacheable).
    """
    parent = default_rng(seed)
    for _ in range(key - 1):
        parent.integers(0, 2**63 - 1)
    return derive_rng(parent, key)


# -- stage functions (module-level: picklable into campaign workers) -----------


def stage_scene(ctx: StageContext) -> dict[str, Any]:
    cfg = ctx.config
    return {"scene": generate_scene(cfg.scene, seed=cfg.seed)}


def stage_atl03(ctx: StageContext, scene: IceScene) -> dict[str, Any]:
    cfg = ctx.config
    granule = simulate_granule(
        scene, n_beams=cfg.n_beams, config=cfg.atl03, rng=_derived_stream(cfg.seed, 1)
    )
    return {"granule": granule}


def stage_s2(ctx: StageContext, scene: IceScene) -> dict[str, Any]:
    cfg = ctx.config
    image = render_scene(
        scene, config=cfg.s2, drift_offset_m=cfg.drift_m, rng=_derived_stream(cfg.seed, 2)
    )
    return {"image": image}


def stage_segmentation(
    ctx: StageContext, image: S2Image, segments: dict[str, SegmentArray]
) -> dict[str, Any]:
    """Segment the corridor of tiles that drift and auto-labeling can read.

    Both read class pixels at track segment positions shifted by at most
    ``MAX_SHIFT_M``, the drift search's default reach, so only the tiles
    within that reach of any beam's segments are rendered and segmented.
    """
    x_m = np.concatenate([seg.x_m for seg in segments.values()] or [np.empty(0)])
    y_m = np.concatenate([seg.y_m for seg in segments.values()] or [np.empty(0)])
    tiles = corridor_tiles(image.grid, x_m, y_m, MAX_SHIFT_M)
    return {"segmentation": segment_image(image, ctx.config.segmentation, tiles=tiles)}


def stage_resample(ctx: StageContext, granule: Granule) -> dict[str, Any]:
    window_length_m = ctx.config.window_length_m
    segments = {
        name: resample_fixed_window(beam, window_length_m=window_length_m)
        for name, beam in granule.beams.items()
    }
    return {"segments": segments}


def stage_drift(
    ctx: StageContext,
    image: S2Image,
    segmentation: SegmentationResult,
    segments: dict[str, SegmentArray],
) -> dict[str, Any]:
    """Estimate S2 drift from the first beam.

    Matches the monolith: drift is estimated once, from the granule's first
    beam, and the image it aligns feeds every beam's auto-labeling.
    """
    if not ctx.config.estimate_drift or not segments:
        return {"drift": None}
    first = next(iter(segments.values()))
    drift = estimate_drift(
        image, segmentation.class_map, first.x_m, first.y_m, first.height_mean_m
    )
    return {"drift": drift}


def stage_align(
    ctx: StageContext, image: S2Image, drift: DriftEstimate | None
) -> dict[str, Any]:
    """Shift the S2 image by the estimated drift (no drift: the image as is)."""
    if drift is None:
        return {"aligned_image": image}
    return {"aligned_image": apply_shift(image, drift)}


def stage_autolabel(
    ctx: StageContext,
    segments: dict[str, SegmentArray],
    aligned_image: S2Image,
    segmentation: SegmentationResult,
) -> dict[str, Any]:
    auto_labels: dict[str, AutoLabelResult] = {}
    labels: dict[str, np.ndarray] = {}
    reports: dict[str, CorrectionReport] = {}
    for name, seg in segments.items():
        auto_labels[name] = auto_label_segments(seg, aligned_image, segmentation)
        labels[name], reports[name] = correct_labels(seg, auto_labels[name])
    return {"auto_labels": auto_labels, "labels": labels, "correction_reports": reports}


def stage_curate(
    ctx: StageContext,
    scene: IceScene,
    granule: Granule,
    aligned_image: S2Image,
    segmentation: SegmentationResult,
    drift: DriftEstimate | None,
    segments: dict[str, SegmentArray],
    auto_labels: dict[str, AutoLabelResult],
    labels: dict[str, np.ndarray],
    correction_reports: dict[str, CorrectionReport],
) -> dict[str, Any]:
    data = ExperimentData(
        scene=scene,
        granule=granule,
        image=aligned_image,
        segmentation=segmentation,
        drift=drift,
        segments=segments,
        auto_labels=auto_labels,
        labels=labels,
        correction_reports=correction_reports,
    )
    return {"experiment_data": data}


def stage_training_set(
    ctx: StageContext, segments: dict[str, SegmentArray], labels: dict[str, np.ndarray]
) -> dict[str, Any]:
    segments, labels, groups = training_arrays(segments, labels)
    return {"training_set": TrainingSet(segments=segments, labels=labels, groups=groups)}


def stage_train(ctx: StageContext, training_set: list[TrainingSet]) -> dict[str, Any]:
    """Fit one classifier on the pooled training sets, in member order.

    Each member's group ids are offset past the previous member's, so every
    (granule, beam) track stays a distinct group: no feature window or LSTM
    sequence spans two unrelated scenes.  For one member the arrays are the
    member's own (``concatenate_segments`` shares them, the offset is 0).
    """
    cfg = ctx.config
    segments = concatenate_segments([t.segments for t in training_set], beam_name="campaign")
    groups: list[np.ndarray] = []
    offset = 0
    for member in training_set:
        groups.append(member.groups + offset)
        offset += int(member.groups.max()) + 1 if member.groups.size else 0
    classifier = train_classifier(
        segments,
        np.concatenate([t.labels for t in training_set]),
        kind=cfg.model_kind,
        lstm_config=cfg.lstm,
        mlp_config=cfg.mlp,
        training=cfg.training,
        epochs=cfg.epochs,
        rng=cfg.seed,
        groups=np.concatenate(groups),
    )
    return {"classifier": classifier}


def stage_infer(
    ctx: StageContext, segments: dict[str, SegmentArray], classifier: TrainedClassifier
) -> dict[str, Any]:
    # The curated segments were resampled with the same window/confidence
    # parameters, so classify them directly instead of re-resampling photons.
    # All beams go through one pooled predict_batched pass so the LSTM steps
    # every sequence of the granule together.
    pipeline = InferencePipeline(classifier, window_length_m=ctx.config.window_length_m)
    return {"classified": pipeline.classify_segments_batched(segments)}


def stage_sea_surface(
    ctx: StageContext, classified: dict[str, ClassifiedTrack]
) -> dict[str, Any]:
    config = ctx.config.sea_surface
    sea_surface = {
        name: estimate_track_sea_surface(
            track.segments, track.labels, method=config.method, config=config
        )
        for name, track in classified.items()
    }
    return {"sea_surface": sea_surface}


def stage_freeboard(
    ctx: StageContext,
    classified: dict[str, ClassifiedTrack],
    sea_surface: dict[str, TrackSeaSurface],
) -> dict[str, Any]:
    freeboard = {
        name: freeboard_from_sea_surface(track.segments, track.labels, sea_surface[name])
        for name, track in classified.items()
    }
    return {"freeboard": freeboard}


def stage_atl07(ctx: StageContext, granule: Granule) -> dict[str, Any]:
    config = ctx.config.sea_surface
    atl07 = {
        name: generate_atl07(beam, sea_surface_config=config)
        for name, beam in granule.beams.items()
    }
    return {"atl07": atl07}


def stage_atl10(ctx: StageContext, atl07: dict[str, ATL07Product]) -> dict[str, Any]:
    return {"atl10": {name: generate_atl10(product) for name, product in atl07.items()}}


def stage_grid_granule(
    ctx: StageContext,
    classified: dict[str, ClassifiedTrack],
    freeboard: dict[str, FreeboardResult],
) -> dict[str, Any]:
    """Bin this granule's retrieval output onto the configured L3 grid."""
    processor = Level3Processor.from_config(ctx.config.l3, scene=ctx.config.scene)
    product = processor.grid_granule(classified, freeboard, granule_id=ctx.granule_id)
    return {"l3_granule": product}


def stage_mosaic_campaign(ctx: StageContext, l3_granule: list[Level3Grid]) -> dict[str, Any]:
    """Mosaic the fleet's granule grids, in member order."""
    processor = Level3Processor.from_config(ctx.config.l3, scene=ctx.config.scene)
    return {"l3_mosaic": processor.mosaic(l3_granule)}


def stage_build_pyramid(ctx: StageContext, l3_mosaic: Level3Grid) -> dict[str, Any]:
    """Build the serving-side tile pyramid over the campaign mosaic.

    Content-addressed like every other stage: the fingerprint chains the
    mosaic's fingerprint with the ``serve`` config slice, so a
    tile-geometry-only change rebuilds exactly this stage.
    """
    return {"l3_pyramid": build_pyramid(l3_mosaic, serve=ctx.config.serve)}


def stage_metrics(
    ctx: StageContext,
    classified: dict[str, ClassifiedTrack],
    freeboard: dict[str, FreeboardResult],
) -> dict[str, Any]:
    # Runtime import: repro.campaign imports repro.pipeline at module load,
    # so importing campaign.metrics here at import time would be a cycle.
    from repro.campaign.metrics import granule_metrics

    metrics = granule_metrics(ctx.granule_id, tuple(ctx.scenario), classified, freeboard)
    return {"granule_metrics": metrics}


# -- the canonical graph -------------------------------------------------------


def artifact_specs() -> list[ArtifactSpec]:
    """Typed declarations of every artifact flowing through the Fig. 1 graph."""
    return [
        ArtifactSpec("scene", IceScene, "ground-truth Ross Sea ice scene"),
        ArtifactSpec("granule", Granule, "simulated ATL03 photon granule"),
        ArtifactSpec("image", S2Image, "rendered (drifted, cloudy) Sentinel-2 scene"),
        ArtifactSpec("segmentation", SegmentationResult, "S2 image segmentation"),
        ArtifactSpec("segments", SegmentArray, "2 m resampled segments", per_beam=True),
        ArtifactSpec("drift", DriftEstimate, "estimated S2 drift", optional=True),
        ArtifactSpec("aligned_image", S2Image, "drift-corrected Sentinel-2 scene"),
        ArtifactSpec("auto_labels", AutoLabelResult, "raw auto-labels", per_beam=True),
        ArtifactSpec("labels", np.ndarray, "corrected training labels", per_beam=True),
        ArtifactSpec(
            "correction_reports", CorrectionReport, "label corrections", per_beam=True
        ),
        ArtifactSpec("experiment_data", ExperimentData, "assembled stage-1 curation"),
        ArtifactSpec("training_set", TrainingSet, "pooled training arrays"),
        ArtifactSpec("classifier", TrainedClassifier, "trained LSTM/MLP classifier"),
        ArtifactSpec("classified", ClassifiedTrack, "per-segment classes", per_beam=True),
        ArtifactSpec(
            "sea_surface", TrackSeaSurface, "local sea-surface reference", per_beam=True
        ),
        ArtifactSpec("freeboard", FreeboardResult, "2 m freeboard product", per_beam=True),
        ArtifactSpec("atl07", ATL07Product, "emulated ATL07 baseline", per_beam=True),
        ArtifactSpec("atl10", ATL10Product, "emulated ATL10 baseline", per_beam=True),
        ArtifactSpec("l3_granule", Level3Grid, "gridded Level-3 product of one granule"),
        ArtifactSpec("l3_mosaic", Level3Grid, "Level-3 mosaic composite"),
        ArtifactSpec("l3_pyramid", TilePyramid, "serving-side tile pyramid"),
        # GranuleMetrics lives in the campaign layer (imported lazily above),
        # so the spec validates loosely rather than importing it here.
        ArtifactSpec("granule_metrics", object, "classification + freeboard metrics"),
    ]


def build_default_graph() -> StageGraph:
    """Construct the canonical Fig. 1 stage graph (a fresh instance)."""
    stages = [
        # Version 2 of scene and s2: random fields by spectral synthesis.
        Stage("scene", stage_scene, (), ("scene",), ("scene", "seed"), version="2"),
        Stage("atl03", stage_atl03, ("scene",), ("granule",), ("atl03", "n_beams", "seed")),
        Stage(
            "s2",
            stage_s2,
            ("scene",),
            ("image",),
            ("s2", "drift_m", "seed"),
            version="2",
            # The image is the largest artifact of a granule and every stage
            # that reads its pixels is cached: render it where it is read.
            cacheable=False,
        ),
        Stage(
            "segmentation",
            stage_segmentation,
            ("image", "segments"),
            ("segmentation",),
            ("segmentation",),
        ),
        Stage(
            "resample",
            stage_resample,
            ("granule",),
            ("segments",),
            ("window_length_m",),
            # Version 2: the last photon on a window edge is kept.
            version="2",
        ),
        Stage(
            "drift",
            stage_drift,
            ("image", "segmentation", "segments"),
            ("drift",),
            ("estimate_drift",),
        ),
        Stage(
            "align",
            stage_align,
            ("image", "drift"),
            ("aligned_image",),
            (),
            # Pure assembly: the aligned image shares the S2 image's pixels
            # and differs only in its origin, so caching it would write the
            # pixels that s2 itself does not store.
            cacheable=False,
        ),
        Stage(
            "autolabel",
            stage_autolabel,
            ("segments", "aligned_image", "segmentation"),
            ("auto_labels", "labels", "correction_reports"),
            (),
        ),
        Stage(
            "curate",
            stage_curate,
            (
                "scene",
                "granule",
                "aligned_image",
                "segmentation",
                "drift",
                "segments",
                "auto_labels",
                "labels",
                "correction_reports",
            ),
            ("experiment_data",),
            (),
            # Pure assembly: caching would re-pickle every upstream artifact
            # (scene, granule, image, segments, ...) into one more bundle.
            cacheable=False,
        ),
        Stage(
            "training_set",
            stage_training_set,
            ("segments", "labels"),
            ("training_set",),
            (),
            cacheable=False,
        ),
        Stage(
            "train",
            stage_train,
            ("training_set",),
            ("classifier",),
            ("model_kind", "lstm", "mlp", "training", "epochs", "seed"),
            pooled=True,
        ),
        Stage(
            "infer",
            stage_infer,
            ("segments", "classifier"),
            ("classified",),
            ("window_length_m",),
        ),
        Stage(
            "sea_surface",
            stage_sea_surface,
            ("classified",),
            ("sea_surface",),
            ("sea_surface",),
        ),
        Stage("freeboard", stage_freeboard, ("classified", "sea_surface"), ("freeboard",), ()),
        Stage(
            "atl07",
            stage_atl07,
            ("granule",),
            ("atl07",),
            ("sea_surface",),
        ),
        Stage("atl10", stage_atl10, ("atl07",), ("atl10",), ()),
        Stage(
            "grid_granule",
            stage_grid_granule,
            ("classified", "freeboard"),
            ("l3_granule",),
            # The grid is derived from the l3 slice plus the scene extent;
            # declaring "scene" keeps the dependency explicit even though any
            # scene change already invalidates the upstream artifacts.
            ("l3", "scene"),
            context_paths=("granule_id",),
        ),
        Stage(
            "mosaic_campaign",
            stage_mosaic_campaign,
            ("l3_granule",),
            ("l3_mosaic",),
            ("l3", "scene"),
            pooled=True,
        ),
        Stage(
            "build_pyramid",
            stage_build_pyramid,
            ("l3_mosaic",),
            ("l3_pyramid",),
            # Narrow paths: only the fields that shape the pyramid product.
            # serve.tile_cache_size is a query-engine runtime knob — changing
            # it must not invalidate the content-addressed pyramid.
            ("serve.tile_size", "serve.max_levels", "serve.weight_variable"),
        ),
        Stage(
            "metrics",
            stage_metrics,
            ("classified", "freeboard"),
            ("granule_metrics",),
            (),
            context_paths=("granule_id", "scenario"),
        ),
    ]
    return StageGraph(stages, artifact_specs())


_DEFAULT_GRAPH: StageGraph | None = None


def default_graph() -> StageGraph:
    """The shared canonical graph instance (immutable, safe to share)."""
    global _DEFAULT_GRAPH
    if _DEFAULT_GRAPH is None:
        _DEFAULT_GRAPH = build_default_graph()
    return _DEFAULT_GRAPH
