"""Benchmark: multi-granule campaign throughput and simulated cluster scaling.

Two parts, mirroring the structure of the Table II / Table V benchmarks:

1. a small granule fleet is run through the :class:`CampaignRunner` with an
   increasing number of worker processes — this measures the real end-to-end
   campaign wall time on this machine (curation and retrieval fan out, the
   pooled training stays serial, so the measured curve bends per Amdahl);
2. the campaign's serial-equivalent stage times are routed through the
   calibrated :class:`ClusterCostModel` to predict the Dataproc-style
   executor/core grid of the paper (the "Simulated cluster scaling" table
   of the campaign summary; the file records the model's inputs first).
"""

import time

from conftest import write_result

from repro.campaign import CampaignConfig, CampaignRunner
from repro.distributed.speedup import SpeedupTable
from repro.evaluation.report import format_table
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

_BASE = ExperimentConfig(
    scene=SceneConfig(
        width_m=8_000.0,
        height_m=8_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=8,
    ),
    epochs=2,
    model_kind="mlp",
)

_GRID = {"season": ("winter", "freeze_up"), "cloud_fraction": (0.15, 0.4)}


def _campaign_config(n_workers: int, use_shm: bool = True) -> CampaignConfig:
    return CampaignConfig(
        base=_BASE, grid=_GRID, seed=17, n_workers=n_workers, use_shm=use_shm
    )


def test_campaign_scaling(benchmark):
    """Time a 4-granule campaign and regenerate its scaling report."""
    result = benchmark.pedantic(
        lambda: CampaignRunner(_campaign_config(1)).run(), rounds=1, iterations=1
    )
    assert result.n_granules == 4

    sweep = SpeedupTable("campaign workers")
    for n_workers in (1, 2, 4):
        start = time.perf_counter()
        with CampaignRunner(_campaign_config(n_workers)) as runner:
            parallel = runner.run()
        elapsed = time.perf_counter() - start
        assert parallel.metrics.n_segments == result.metrics.n_segments
        sweep.add(f"{n_workers} workers", n_workers, max(elapsed, 1e-6))

    # Whole-campaign zero-copy delta: the same 4-worker fleet with the
    # process fan-out's shared-memory transport on vs off (pickled arrays).
    # Both runs produce identical science by contract; only wall time moves.
    shm_rows = []
    for label, use_shm in (("shm fan-out", True), ("pickled fan-out", False)):
        start = time.perf_counter()
        with CampaignRunner(_campaign_config(4, use_shm=use_shm)) as runner:
            delta_run = runner.run()
        elapsed = time.perf_counter() - start
        assert delta_run.metrics.n_segments == result.metrics.n_segments
        shm_rows.append({"transport": label, "wall_s": round(max(elapsed, 1e-6), 3)})

    # The cost model's inputs, so the modelled table in the summary can be
    # regenerated with ``campaign_scaling_table`` from these numbers alone.
    inputs = {
        "curation_serial_s": sum(g.curation_seconds for g in result.granules),
        "training_s": result.scaling[0].times_s["training"],
        "inference_serial_s": sum(g.seconds for g in result.granules),
    }
    text = "\n\n".join(
        [
            "Cost-model inputs (serial-equivalent seconds): "
            + ", ".join(f"{name}={value!r}" for name, value in inputs.items()),
            format_table(sweep.rows(), "Measured campaign wall time (this machine)"),
            format_table(
                shm_rows, "Campaign wall time, 4 workers: shm vs pickled fan-out"
            ),
            result.summary(),
        ]
    )
    write_result("campaign_scaling", text)
