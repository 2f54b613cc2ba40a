"""Per-granule and campaign-level metrics, plus the simulated scaling report.

Each granule contributes a :class:`GranuleMetrics` (classification accuracy
against the simulator's ground truth, a 3x3 confusion matrix, class mix and
freeboard statistics).  :func:`aggregate_metrics` pools them into one
:class:`CampaignMetrics`: confusion matrices add, accuracies are recomputed
from the pooled matrix (not averaged), and freeboard moments combine via
count-weighted sums so the campaign numbers equal what a single concatenated
track would yield.

:func:`campaign_scaling_table` declares the campaign's phases for
:func:`~repro.distributed.cluster.scaling_table`: curation and inference are
granule-parallel (the cost model's almost-perfectly parallel "reduce"
profile), pooled training is the serial fraction, so the campaign as a whole
follows Amdahl's law over the executor/core grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.classification.pipeline import ClassifiedTrack
from repro.config import CLASS_NAMES, DEFAULT_CLUSTER, N_CLASSES
from repro.distributed.cluster import ClusterCostModel, Phase, ScalingRow, scaling_table
from repro.freeboard.freeboard import FreeboardResult
from repro.ml.metrics import confusion_matrix


@dataclass(frozen=True)
class GranuleMetrics:
    """Summary statistics of one granule's classification and freeboard."""

    granule_id: str
    scenario: tuple[tuple[str, Any], ...]
    n_segments: int
    n_truth_segments: int
    accuracy: float
    confusion: np.ndarray
    class_fractions: tuple[float, ...]
    n_ice_segments: int
    mean_freeboard_m: float
    freeboard_std_m: float

    def as_row(self) -> dict[str, object]:
        """One row of the per-granule campaign summary table."""
        row: dict[str, object] = {"Granule": self.granule_id}
        for name, value in self.scenario:
            row[name] = value
        row["Segments"] = self.n_segments
        row["Accuracy"] = round(self.accuracy, 4)
        for class_id, class_name in enumerate(CLASS_NAMES):
            row[f"% {class_name}"] = round(100.0 * self.class_fractions[class_id], 1)
        row["Freeboard (m)"] = round(self.mean_freeboard_m, 3)
        return row


def granule_metrics(
    granule_id: str,
    scenario: tuple[tuple[str, Any], ...],
    classified: Mapping[str, ClassifiedTrack],
    freeboard: Mapping[str, FreeboardResult],
) -> GranuleMetrics:
    """Compute one granule's metrics from its classified beams and freeboard."""
    predicted = np.concatenate([classified[name].labels for name in sorted(classified)])
    truth = np.concatenate(
        [classified[name].segments.truth_class for name in sorted(classified)]
    )
    valid = truth >= 0
    if valid.any():
        cm = confusion_matrix(
            truth[valid].astype(int), predicted[valid].astype(int), n_classes=N_CLASSES
        )
        accuracy = float(np.trace(cm)) / float(cm.sum())
    else:
        cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        accuracy = float("nan")

    counts = np.bincount(predicted[predicted >= 0], minlength=N_CLASSES).astype(float)
    total = max(counts.sum(), 1.0)
    fractions = tuple(float(c) / total for c in counts[:N_CLASSES])

    ice_values = []
    for name in sorted(freeboard):
        fb = freeboard[name]
        ice = fb.ice_mask()
        if ice.any():
            ice_values.append(fb.freeboard_m[ice])
    if ice_values:
        pooled = np.concatenate(ice_values)
        mean_fb = float(pooled.mean())
        std_fb = float(pooled.std())
        n_ice = int(pooled.size)
    else:
        mean_fb, std_fb, n_ice = 0.0, 0.0, 0

    return GranuleMetrics(
        granule_id=granule_id,
        scenario=tuple(scenario),
        n_segments=int(predicted.size),
        n_truth_segments=int(valid.sum()),
        accuracy=accuracy,
        confusion=cm,
        class_fractions=fractions,
        n_ice_segments=n_ice,
        mean_freeboard_m=mean_fb,
        freeboard_std_m=std_fb,
    )


@dataclass(frozen=True)
class CampaignMetrics:
    """Campaign-level aggregation over every granule."""

    n_granules: int
    n_segments: int
    confusion: np.ndarray
    accuracy: float
    macro_f1: float
    n_ice_segments: int
    mean_freeboard_m: float
    freeboard_std_m: float

    def per_class_accuracy(self) -> dict[str, float]:
        """Row-normalised diagonal of the pooled confusion matrix (Fig. 4 style)."""
        row_sums = self.confusion.sum(axis=1).astype(float)
        out: dict[str, float] = {}
        for class_id, class_name in enumerate(CLASS_NAMES):
            denom = row_sums[class_id]
            out[class_name] = float(self.confusion[class_id, class_id] / denom) if denom else 0.0
        return out

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "Granules": self.n_granules,
            "Segments": self.n_segments,
            "Accuracy": round(self.accuracy, 4),
            "Macro F1": round(self.macro_f1, 4),
        }
        for class_name, value in self.per_class_accuracy().items():
            row[f"Acc {class_name}"] = round(value, 4)
        row["Freeboard (m)"] = round(self.mean_freeboard_m, 3)
        row["Freeboard std (m)"] = round(self.freeboard_std_m, 3)
        return row


def _macro_f1(cm: np.ndarray) -> float:
    tp = np.diag(cm).astype(float)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    precision = np.divide(tp, tp + fp, out=np.zeros_like(tp), where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros_like(tp), where=(tp + fn) > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros_like(tp), where=denom > 0)
    return float(f1.mean())


def aggregate_metrics(granules: Sequence[GranuleMetrics]) -> CampaignMetrics:
    """Pool per-granule metrics into campaign totals.

    Confusion matrices are summed and the campaign accuracy / macro-F1 are
    recomputed from the pooled matrix; freeboard mean and std combine through
    count-weighted first and second moments, so the result is identical to
    computing the statistics over all granules' ice segments at once.
    """
    if not granules:
        raise ValueError("cannot aggregate an empty campaign")
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    n_segments = 0
    n_ice = 0
    fb_sum = 0.0
    fb_sumsq = 0.0
    for gm in granules:
        confusion += gm.confusion
        n_segments += gm.n_segments
        n_ice += gm.n_ice_segments
        fb_sum += gm.n_ice_segments * gm.mean_freeboard_m
        fb_sumsq += gm.n_ice_segments * (
            gm.freeboard_std_m**2 + gm.mean_freeboard_m**2
        )
    total = confusion.sum()
    accuracy = float(np.trace(confusion)) / float(total) if total else float("nan")
    mean_fb = fb_sum / n_ice if n_ice else 0.0
    var_fb = max(fb_sumsq / n_ice - mean_fb**2, 0.0) if n_ice else 0.0
    return CampaignMetrics(
        n_granules=len(granules),
        n_segments=n_segments,
        confusion=confusion,
        accuracy=accuracy,
        macro_f1=_macro_f1(confusion),
        n_ice_segments=n_ice,
        mean_freeboard_m=mean_fb,
        freeboard_std_m=float(np.sqrt(var_fb)),
    )


def campaign_scaling_table(
    curation_serial_s: float,
    training_s: float,
    inference_serial_s: float,
) -> list[ScalingRow]:
    """Predict campaign scaling on the simulated Dataproc-style cluster.

    ``curation_serial_s`` and ``inference_serial_s`` are serial-equivalent
    baselines (sum of per-granule stage times); ``training_s`` is the pooled
    classifier fit, which stays on the driver.  The parallel stages follow the
    cost model's reduce profile plus one scheduling overhead each; speedups
    are referenced to the first grid point of the paper's cluster.
    """
    # Curation and inference each pay one dispatch: one map phase at twice
    # the default model's overhead.
    default = ClusterCostModel()
    model = replace(default, map_overhead_s=2.0 * default.map_overhead_s)
    phases = (
        Phase("curation", curation_serial_s, "reduce"),
        Phase("inference", inference_serial_s, "reduce"),
        Phase("training", training_s, "fixed"),
        Phase("dispatch", 0.0, "map"),
    )
    return scaling_table(model, phases, DEFAULT_CLUSTER.grid)
