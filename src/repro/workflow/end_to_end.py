"""The complete ATL03 sea-ice classification and freeboard workflow.

This module is the convenience facade over the stage-graph engine
(:mod:`repro.pipeline`), which wires the substrates together exactly as the
paper's Fig. 1:

1. **Data curation** — generate a Ross Sea scene, simulate an ATL03 granule
   over it, render a coincident (drifted, cloudy) Sentinel-2 acquisition,
   segment the S2 image, estimate and correct the drift, resample the beams
   to 2 m segments, auto-label them and correct transition/cloudy labels.
2. **Model training** — train the LSTM (or MLP) classifier on the labelled
   segments (80/20 split, focal loss, Adam lr=0.003).
3. **Inference** — classify every 2 m segment of every beam.
4. **Sea surface + freeboard** — estimate the local sea surface from the
   classified open water, compute freeboard, and build the ATL07/ATL10
   emulated baselines for comparison.

Every step is a registered :class:`~repro.pipeline.stage.Stage`;
:func:`run_end_to_end` is a one-granule graph run that materialises every
intermediate product, and :func:`prepare_experiment_data` targets just the
curated stage-1 artifacts.  Callers that want stage-granular caching or
partial recomputation use :class:`~repro.pipeline.runner.GraphRunner`
directly with the same graph.
"""

from __future__ import annotations

from repro.classification.pipeline import TrainedClassifier
from repro.workflow.experiment import (
    ExperimentConfig,
    ExperimentData,
    InferenceProducts,
    PipelineOutputs,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentData",
    "InferenceProducts",
    "PipelineOutputs",
    "prepare_experiment_data",
    "run_end_to_end",
    "run_inference_stage",
]


def _graph_runner():
    """A default-graph runner; imported lazily to break the import cycle.

    ``repro.pipeline.stages`` imports :mod:`repro.workflow.experiment` (and
    with it this package's ``__init__``) at module load, so this facade must
    not import :mod:`repro.pipeline` until call time.
    """
    from repro.pipeline.runner import GraphRunner
    from repro.pipeline.stages import default_graph

    return GraphRunner(default_graph())


def prepare_experiment_data(config: ExperimentConfig | None = None) -> ExperimentData:
    """Stage 1 of the workflow: curation, resampling and auto-labeling.

    Executes the curation subgraph (scene -> atl03/s2 -> segmentation ->
    resample -> drift -> autolabel) and assembles the products.
    """
    cfg = config if config is not None else ExperimentConfig()
    result = _graph_runner().run(cfg, targets=("experiment_data",))
    return result.value("experiment_data")


def run_inference_stage(
    data: ExperimentData,
    classifier: TrainedClassifier,
    config: ExperimentConfig,
) -> InferenceProducts:
    """Classify a curated granule and retrieve freeboard + ATL07/ATL10 baselines.

    This is the fan-out half of the workflow: given stage-1 curated data and a
    trained classifier (possibly shared across many granules — see
    :mod:`repro.campaign`), it runs the retrieval subgraph (inference,
    sea-surface detection, freeboard and the emulated operational baselines)
    with the curated data injected as precomputed artifacts.
    """
    from repro.pipeline.artifact import external_artifact

    precomputed = {
        "granule": external_artifact("granule", data.granule),
        "segments": external_artifact("segments", data.segments),
        "classifier": external_artifact("classifier", classifier),
    }
    result = _graph_runner().run(
        config,
        targets=("classified", "freeboard", "atl07", "atl10"),
        precomputed=precomputed,
    )
    return InferenceProducts(
        classified=result.value("classified"),
        freeboard=result.value("freeboard"),
        atl07=result.value("atl07"),
        atl10=result.value("atl10"),
    )


def run_end_to_end(config: ExperimentConfig | None = None) -> PipelineOutputs:
    """Run the full Fig. 1 workflow and return every intermediate product.

    One single-granule graph execution: curation, training, inference and
    retrieval stages run in topological order.
    """
    cfg = config if config is not None else ExperimentConfig()
    result = _graph_runner().run(
        cfg,
        targets=(
            "experiment_data",
            "classifier",
            "classified",
            "freeboard",
            "atl07",
            "atl10",
        ),
    )
    return PipelineOutputs(
        data=result.value("experiment_data"),
        classifier=result.value("classifier"),
        classified=result.value("classified"),
        freeboard=result.value("freeboard"),
        atl07=result.value("atl07"),
        atl10=result.value("atl10"),
    )
