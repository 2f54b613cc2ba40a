"""Stage-graph pipeline engine: the Fig. 1 workflow as composable stages.

Every step of the paper's workflow is a registered
:class:`~repro.pipeline.stage.Stage` with declared typed inputs/outputs and
a per-stage content fingerprint (its config slice combined with upstream
fingerprints).  A :class:`~repro.pipeline.runner.GraphRunner` materialises
any set of target artifacts, probing an optional content-addressed
:class:`~repro.pipeline.cache.StageCache` first — so changing one config
knob re-runs only the stages downstream of it.  Per-beam stages loop over
their beams in the calling process; work fans out only over the granules
of a fleet (:mod:`repro.campaign`) and the 2 m segment jobs.

Quick start::

    from repro.pipeline import GraphRunner, StageCache, default_graph
    from repro.workflow import ExperimentConfig

    runner = GraphRunner(default_graph(), cache=StageCache("cache/"))
    result = runner.run(ExperimentConfig(epochs=3, seed=0), targets=("freeboard",))
    freeboard = result.value("freeboard")          # {beam: FreeboardResult}
    rerun = runner.run(..., targets=("freeboard",))  # all cache hits

:func:`repro.workflow.end_to_end.run_end_to_end` is a one-granule graph run;
:class:`repro.campaign.runner.CampaignRunner` fans the same graph out over a
granule fleet.  Its barriers are *pooled* stages (``train``,
``mosaic_campaign``): each takes one artifact from every granule subgraph
and runs once per fleet through :meth:`GraphRunner.run_pooled`, fingerprinted
over the members' fingerprints by :meth:`GraphRunner.fleet_fingerprints`.
"""

from repro.pipeline.artifact import Artifact, ArtifactSpec, external_artifact
from repro.pipeline.cache import MISS, ArtifactStore, StageCache
from repro.pipeline.fingerprint import (
    canonical,
    config_slice,
    digest,
    stage_fingerprint,
)
from repro.pipeline.graph import StageGraph
from repro.pipeline.runner import GraphRunner, GraphRunResult
from repro.pipeline.stage import Stage, StageContext, StageExecution
from repro.pipeline.stages import (
    TrainingSet,
    artifact_specs,
    build_default_graph,
    default_graph,
)

__all__ = [
    "Artifact",
    "ArtifactSpec",
    "ArtifactStore",
    "GraphRunResult",
    "GraphRunner",
    "MISS",
    "Stage",
    "StageCache",
    "StageContext",
    "StageExecution",
    "StageGraph",
    "TrainingSet",
    "artifact_specs",
    "build_default_graph",
    "canonical",
    "config_slice",
    "default_graph",
    "digest",
    "external_artifact",
    "stage_fingerprint",
]
