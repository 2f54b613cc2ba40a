#!/usr/bin/env python
"""Unified telemetry: one obs handle across campaign -> serve -> ingest.

Demonstrates the `repro.obs` tier end to end:

1. run a small two-granule campaign under a single `Obs` handle — the
   campaign run, every executed pipeline stage, and the map-reduce fan-out
   all emit spans and registry-backed counters;
2. mount the products live (`CampaignRunner.serve(...).with_router()
   .with_ingest()`): the same handle flows into the router, the shard
   engines and the ingest service, so one registry sees every tier;
3. serve queries (cold then cache-hot) and ingest a new granule — each
   request is one `router.request` span, with a cold decode's
   `mapreduce.run -> loader.fetch` below it, and each ingest a
   `ingest.ingest` chain;
4. export all three surfaces: the versioned-schema JSON health dashboard
   (validated against the committed schema, atomic write), the Prometheus
   text exposition, and a Chrome `trace_event` file loadable in Perfetto /
   `chrome://tracing`;
5. print the self-time rollup (`profile_table`): where the traced time
   went, by span name, with nested spans counted once.

Run:  python examples/observability_dashboard.py

This example is also the CI smoke test for the telemetry tier, so it
uses a small scene and the fast MLP classifier.
"""

import json
import shutil
import tempfile
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import IngestConfig, L3GridConfig, RouterConfig, ServeConfig
from repro.obs import (
    Obs,
    SloEvaluator,
    availability_slo,
    build_health_dashboard,
    freshness_slo,
    profile_table,
    prometheus_text,
    set_default_obs,
    validate_dashboard,
    write_chrome_trace,
    write_health_dashboard,
)
from repro.serve import TileRequest
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

BASE = ExperimentConfig(
    scene=SceneConfig(
        width_m=6_000.0,
        height_m=6_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=8,
    ),
    epochs=2,
    model_kind="mlp",
    l3=L3GridConfig(cell_size_m=250.0),
    serve=ServeConfig(tile_size=8, router=RouterConfig(n_shards=2)),
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    runner = None
    try:
        # One handle for the whole process: components given obs= use it
        # directly, and everything else (the per-worker graph runners the
        # campaign fans out) resolves it as the process default.
        obs = Obs()
        set_default_obs(obs)
        cache_dir = str(workdir / "cache")
        config = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35)},
            seed=47,
            cache_dir=cache_dir,
        )

        # 1. Campaign under one obs handle: stage spans + counters.
        runner = CampaignRunner(config, obs=obs)
        result = runner.run()
        stage_runs = obs.registry.total("pipeline_stage_runs_total")
        print(
            f"\ncampaign {result.fingerprint}: {result.n_granules} granules, "
            f"{int(stage_runs)} pipeline stage runs, "
            f"{len(obs.tracer.spans('pipeline.stage'))} stage spans"
        )

        # 2. The same handle flows into the serving stack.
        handle = (
            runner.serve(str(workdir / "products"))
            .with_router()
            .with_ingest(config=IngestConfig())
        )

        # 3. Traffic: cold query, cache-hot repeat, one live ingest.
        request = TileRequest(
            bbox=handle.catalog.extent(), variable="freeboard_mean", zoom=0
        )
        cold = handle.query(request)
        hot = handle.query(request)
        assert hot.from_cache
        (fetch_span,) = obs.tracer.spans("loader.fetch")
        print(
            f"served {cold.n_tiles} tiles via shard {cold.shard} "
            f"(decode span: {fetch_span.duration * 1e3:.1f}ms), repeat from cache"
        )

        wider = CampaignConfig(
            base=BASE,
            grid={"cloud_fraction": (0.1, 0.35, 0.5)},
            seed=47,
            cache_dir=cache_dir,
        )
        report = handle.ingest(wider.expand()[2])
        print(
            f"ingested {report.granule_id!r}: {report.n_dirty_cells} dirty "
            f"cells, {len(report.rebuilt_tiles)} tiles rebuilt "
            f"(fleet gauge: {int(obs.registry.value('ingest_fleet_size'))})"
        )

        # 4a. Health dashboard: every tier in one versioned JSON document —
        #     v2 adds SLO alerts/error budgets, recent structured events and
        #     trace-ring accounting — validated against the committed schema
        #     before the atomic write.
        slo = SloEvaluator(obs.registry, clock=obs.clock, log=obs.log)
        slo.add(availability_slo())
        slo.add(freshness_slo())
        slo.evaluate()
        doc = build_health_dashboard(
            campaign=result,
            router=handle.router,
            ingest=handle.ingest_service,
            registry=obs.registry,
            slo=slo,
            log=obs.log,
            tracer=obs.tracer,
        )
        validate_dashboard(doc)
        assert doc["serve"]["health"] == handle.router.health()  # verbatim embed
        dashboard_path = write_health_dashboard(workdir / "health.json", doc)
        reread = json.loads(dashboard_path.read_text())
        assert reread["serve"]["health"] == handle.router.health()
        print(
            f"\ndashboard v{doc['schema_version']} -> {dashboard_path.name}: "
            f"campaign total {doc['campaign']['total_s']:.2f}s, "
            f"serve requests {doc['serve']['health']['requests']}, "
            f"ingested {doc['ingest']['n_ingested']}, "
            f"{len(doc['metrics'])} metric series, "
            f"{len(doc['slo']['alerts'])} alerts, "
            f"{len(doc['events'])} recent events"
        )

        # 4b. Prometheus exposition + Chrome trace.
        text = prometheus_text(obs.registry)
        assert "# TYPE router_requests_total counter" in text
        trace_path = write_chrome_trace(workdir / "trace.json", obs.tracer.spans())
        trace_events = json.loads(trace_path.read_text())["traceEvents"]
        n_events = sum(1 for e in trace_events if e["ph"] == "X")
        print(
            f"prometheus exposition: {len(text.splitlines())} lines; "
            f"chrome trace: {n_events} span events (open in chrome://tracing)"
        )

        # 5. Where did the time go?  Self time per span name, computed from
        #    the finished spans now; the traced code paid nothing for it.
        rows = profile_table(obs.tracer)
        assert rows and rows[0].self_s >= rows[-1].self_s
        print(f"\n{'span':<24} {'calls':>6} {'self s':>9} {'total s':>9}")
        for row in rows[:10]:
            print(
                f"{row.name:<24} {row.calls:>6} {row.self_s:>9.3f} {row.total_s:>9.3f}"
            )
    finally:
        if runner is not None:
            runner.close()
        set_default_obs(Obs())
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
