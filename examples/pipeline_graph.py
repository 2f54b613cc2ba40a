#!/usr/bin/env python
"""Stage-graph pipeline: composable stages, stage-granular caching, partial re-runs.

Demonstrates the `repro.pipeline` engine that powers both `run_end_to_end`
and the campaign runner:

1. print the Fig. 1 stage graph (stages, inputs, config slices, and the
   pooled stages a campaign runs once over its whole fleet);
2. run the full graph cold with a content-addressed stage cache;
3. re-run warm — every stage is a cache hit, nothing executes;
4. change *only* the sea-surface method and re-run — curation, training and
   classification are reused from cache; only the stages downstream of the
   sea surface (sea_surface -> freeboard -> atl07/atl10 -> metrics)
   recompute.  This partial recomputation is what makes parameter sweeps
   cheap: the dominant cost (curation + training) is paid once.

Run:  python examples/pipeline_graph.py

This example is also the CI smoke test for the pipeline layer, so it uses a
small scene and the fast MLP classifier.
"""

import shutil
import tempfile
import time
from dataclasses import replace

from repro.config import SeaSurfaceConfig
from repro.pipeline import GraphRunner, StageCache, default_graph
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

TARGETS = ("classifier", "freeboard", "atl07", "atl10", "granule_metrics")


def run_and_report(runner: GraphRunner, config: ExperimentConfig, label: str):
    start = time.perf_counter()
    result = runner.run(config, targets=TARGETS)
    elapsed = time.perf_counter() - start
    executed = ", ".join(result.executed_stages) or "(none — pure cache)"
    print(f"\n{label}: {elapsed:.2f}s")
    print(f"  stages executed : {executed}")
    print(f"  stage cache hits: {len(result.cache_hits)}")
    return result


def main() -> None:
    graph = default_graph()
    print("The Fig. 1 workflow as a stage graph (topological order):")
    for row in graph.describe():
        inputs = ", ".join(row["inputs"]) or "(source)"
        config = ", ".join(row["config"]) or "-"
        pooled = "  [pooled]" if row["pooled"] else ""
        print(f"  {row['stage']:<12} <- {inputs:<44} config: {config}{pooled}")

    config = ExperimentConfig(
        scene=SceneConfig(
            width_m=6_000.0,
            height_m=6_000.0,
            open_water_fraction=0.12,
            thin_ice_fraction=0.18,
            thick_ice_fraction=0.70,
            n_leads=8,
        ),
        epochs=2,
        model_kind="mlp",  # fast demo model; use "lstm" for the paper's classifier
        seed=7,
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-pipeline-")
    try:
        runner = GraphRunner(default_graph(), cache=StageCache(cache_dir))

        cold = run_and_report(runner, config, "Cold run (everything computes)")
        warm = run_and_report(runner, config, "Warm re-run (same config)")
        assert warm.executed_stages == ()

        changed = replace(config, sea_surface=SeaSurfaceConfig(method="average"))
        partial = run_and_report(
            runner, changed, "Sea-surface method changed (partial re-run)"
        )
        assert set(partial.executed_stages) == {
            "sea_surface", "freeboard", "atl07", "atl10", "metrics"
        }, partial.executed_stages

        beam = sorted(cold.value("freeboard"))[0]
        nasa = cold.value("freeboard")[beam].mean_freeboard_m()
        avg = partial.value("freeboard")[beam].mean_freeboard_m()
        print(
            f"\nMean freeboard ({beam}): nasa={nasa:.3f} m, average={avg:.3f} m — "
            "different sea-surface methods, one shared set of curated artifacts."
        )
        print("\nPartial re-run OK: curation, training and inference came from cache.")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
