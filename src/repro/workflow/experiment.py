"""Experiment configuration and product containers of the Fig. 1 workflow.

These dataclasses are the *nouns* of the workflow: the sizing/seeding of one
end-to-end experiment (:class:`ExperimentConfig`), the curated stage-1 data
(:class:`ExperimentData`), the retrieval products (:class:`InferenceProducts`)
and the full bundle (:class:`PipelineOutputs`); :func:`training_arrays`
pools one granule's beams into training arrays, for :class:`ExperimentData`
and the pipeline's ``training_set`` stage alike.  They live apart from the
orchestration in :mod:`repro.workflow.end_to_end` so the stage-graph engine
(:mod:`repro.pipeline`) can depend on them without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.atl03.granule import Granule
from repro.atl03.simulator import ATL03SimulatorConfig
from repro.classification.pipeline import ClassifiedTrack, TrainedClassifier
from repro.config import (
    DEFAULT_L3_GRID,
    DEFAULT_LSTM,
    DEFAULT_MLP,
    DEFAULT_SEA_SURFACE,
    DEFAULT_SERVE,
    DEFAULT_TRAINING,
    L3GridConfig,
    LSTMConfig,
    MLPConfig,
    RESAMPLE_WINDOW_M,
    SeaSurfaceConfig,
    ServeConfig,
    TrainingConfig,
)
from repro.freeboard.freeboard import FreeboardResult
from repro.labeling.alignment import DriftEstimate
from repro.labeling.autolabel import AutoLabelResult
from repro.labeling.manual import CorrectionReport
from repro.products.atl07 import ATL07Product
from repro.products.atl10 import ATL10Product
from repro.resampling.window import SegmentArray, concatenate_segments
from repro.sentinel2.scene import S2Image, S2SceneConfig
from repro.sentinel2.segmentation import SegmentationConfig, SegmentationResult
from repro.surface.scene import IceScene, SceneConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizing and seeding of a full end-to-end experiment.

    The defaults produce a small but representative experiment that runs in
    tens of seconds on one CPU; the benchmarks scale the scene and track up.
    """

    scene: SceneConfig = field(default_factory=lambda: SceneConfig(width_m=30_000.0, height_m=30_000.0))
    s2: S2SceneConfig = field(default_factory=S2SceneConfig)
    atl03: ATL03SimulatorConfig = field(default_factory=ATL03SimulatorConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    sea_surface: SeaSurfaceConfig = DEFAULT_SEA_SURFACE
    l3: L3GridConfig = DEFAULT_L3_GRID
    serve: ServeConfig = DEFAULT_SERVE
    training: TrainingConfig = DEFAULT_TRAINING
    lstm: LSTMConfig = DEFAULT_LSTM
    mlp: MLPConfig = DEFAULT_MLP
    window_length_m: float = RESAMPLE_WINDOW_M
    n_beams: int = 1
    drift_m: tuple[float, float] = (150.0, 250.0)
    epochs: int = 5
    model_kind: str = "lstm"
    estimate_drift: bool = True
    seed: int = 42


@dataclass
class ExperimentData:
    """All curated data of stage 1 (before model training)."""

    scene: IceScene
    granule: Granule
    image: S2Image
    segmentation: SegmentationResult
    drift: DriftEstimate | None
    segments: dict[str, SegmentArray]
    auto_labels: dict[str, AutoLabelResult]
    labels: dict[str, np.ndarray]
    correction_reports: dict[str, CorrectionReport]

    def combined_segments_and_labels(self) -> tuple[SegmentArray, np.ndarray]:
        """Concatenate all beams' segments and labels for training.

        See :func:`training_arrays` for the beam order and the checks.
        """
        segments, labels, _ = training_arrays(self.segments, self.labels)
        return segments, labels

    def combined_training_arrays(self) -> tuple[SegmentArray, np.ndarray, np.ndarray]:
        """Combined segments and labels plus per-beam group ids (:func:`training_arrays`)."""
        return training_arrays(self.segments, self.labels)


def training_arrays(
    segments: Mapping[str, SegmentArray], labels: Mapping[str, np.ndarray]
) -> tuple[SegmentArray, np.ndarray, np.ndarray]:
    """One granule's training arrays: its beams' segments, labels and group ids.

    Beams are concatenated in sorted name order; along-track positions are
    kept per-beam (training only uses features, not positions).  A single
    beam's own arrays are returned as they are.  ``segments`` and ``labels``
    must cover the same beams, and all beams must have been resampled with
    the same ``window_length_m`` — a mismatch raises ``ValueError`` instead
    of silently mixing beams or resolutions.

    The group ids mark each beam as an independent contiguous track so
    training can keep along-track change features and LSTM sequences from
    crossing beam boundaries (see ``groups`` in
    :func:`repro.classification.train_classifier`).
    """
    if set(labels) != set(segments):
        raise ValueError(
            "segments and labels must cover the same beams, got "
            f"segments={sorted(segments)} labels={sorted(labels)}"
        )
    names = sorted(segments)
    groups = np.repeat(np.arange(len(names)), [segments[n].n_segments for n in names])
    if len(names) == 1:
        return segments[names[0]], labels[names[0]], groups
    combined = concatenate_segments([segments[n] for n in names])
    return combined, np.concatenate([labels[n] for n in names]), groups


@dataclass
class InferenceProducts:
    """Stage 3+4 products of one granule: classification, freeboard, baselines."""

    classified: dict[str, ClassifiedTrack]
    freeboard: dict[str, FreeboardResult]
    atl07: dict[str, ATL07Product]
    atl10: dict[str, ATL10Product]


@dataclass
class PipelineOutputs:
    """Everything produced by a full end-to-end run."""

    data: ExperimentData
    classifier: TrainedClassifier
    classified: dict[str, ClassifiedTrack]
    freeboard: dict[str, FreeboardResult]
    atl07: dict[str, ATL07Product]
    atl10: dict[str, ATL10Product]
