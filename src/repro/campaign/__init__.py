"""Multi-granule campaign engine: scenario grids, parallel orchestration, caching.

The seed pipeline reproduces the paper's Fig. 1 workflow for one granule per
run; this package scales it to *fleets* of granules — the operating regime
the paper (and production altimetry processors such as pysiral) actually
target:

* :mod:`repro.campaign.config` — :class:`CampaignConfig` expands a scenario
  grid (season, cloud fraction, drift, scene size, beam count, any dotted
  config path) into per-granule experiment configs with derived seeds;
* :mod:`repro.campaign.runner` — :class:`CampaignRunner` curates all granules
  in parallel over a process pool, trains **one** classifier on the pooled
  labelled segments (the graph's pooled ``train`` stage), then fans
  inference/freeboard/ATL07/ATL10 back out, caching every stage output and
  each finished granule in the content-addressed
  :class:`~repro.pipeline.cache.StageCache`, so re-runs skip completed
  granules;
* :mod:`repro.campaign.metrics` — per-granule and pooled campaign metrics
  plus the cost-model-based simulated cluster scaling report.

Quick start::

    from repro.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        grid={"season": ("winter", "freeze_up"), "cloud_fraction": (0.1, 0.3, 0.5)},
        n_workers=2,
        cache_dir="./campaign-cache",
    )
    result = run_campaign(config)
    print(result.summary())
"""

from repro.campaign.config import (
    AXIS_ALIASES,
    CampaignConfig,
    GranuleSpec,
    apply_scenario,
    granule_seed,
)
from repro.campaign.metrics import (
    CampaignMetrics,
    GranuleMetrics,
    aggregate_metrics,
    campaign_scaling_table,
    granule_metrics,
)
from repro.campaign.runner import (
    CampaignL3Result,
    CampaignResult,
    CampaignRunner,
    GranuleResult,
    run_campaign,
)

__all__ = [
    "AXIS_ALIASES",
    "CampaignConfig",
    "CampaignL3Result",
    "CampaignMetrics",
    "CampaignResult",
    "CampaignRunner",
    "GranuleMetrics",
    "GranuleResult",
    "GranuleSpec",
    "aggregate_metrics",
    "apply_scenario",
    "campaign_scaling_table",
    "granule_metrics",
    "granule_seed",
    "run_campaign",
]
