#!/usr/bin/env python
"""SLO burn-rate alerting: outage -> page -> shed -> recovery, no real time.

Drives the serve tier through a full alert lifecycle entirely on the
virtual clock:

1. declare an availability SLO (99.9% of requests admitted) over the
   counters the router already emits — no new instrumentation;
2. saturate a single-shard router with a 2x open-loop burst: admission
   control sheds the overflow immediately (the shed *is* the failure mode
   the SLO watches, and also what keeps the served requests fast);
3. the fast burn-rate window fires at the next evaluator tick — the
   ``HealthMonitor`` publishes the dashboard carrying the firing alert,
   the overspent error budget and the ``router.shed`` events whose trace
   ids join back to the shedding ``router.request`` spans;
4. traffic returns to sustainable rates, the shed rate drops to zero, and
   the alert resolves with hysteresis once the burn falls below half the
   threshold.

Every timestamp is exact virtual time — the whole story, outage to
resolution, runs in milliseconds of wall clock.

Run:  python examples/slo_alerts.py

This example is also the CI smoke test for the SLO engine.
"""

import asyncio
import json
import shutil
import tempfile
from pathlib import Path

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig, SloConfig
from repro.obs import (
    DASHBOARD_SCHEMA_VERSION,
    HealthMonitor,
    Obs,
    SloEvaluator,
    availability_slo,
)
from repro.serve import TileRequest
from repro.serve.catalog import CatalogEntry
from repro.serve.query import TileResponse
from repro.serve.router import RequestRouter, RouterOverloadedError
from repro.serve.shard import ShardedCatalog

SERVE = ServeConfig(tile_size=8, tile_cache_size=64)
SERVICE_S = 0.25  # virtual seconds per underlying tile build


def make_router(obs: Obs, clock: VirtualClock) -> RequestRouter:
    entry = CatalogEntry(
        base_path="/products/demo",
        kind="mosaic",
        fingerprint="fp-demo",
        granule_ids=("g000",),
        variables=("freeboard_mean",),
        servable=("freeboard_mean",),
        x_min_m=0.0,
        y_min_m=0.0,
        x_max_m=4800.0,
        y_max_m=3200.0,
        cell_size_m=100.0,
        shape=(32, 48),
    )

    async def execute(shard, request: TileRequest) -> TileResponse:
        await clock.sleep(SERVICE_S)
        return TileResponse(
            request=request,
            product="demo",
            zoom=request.zoom,
            tiles={},
            n_cached=0,
            n_computed=1,
            seconds=SERVICE_S,
        )

    return RequestRouter(
        ShardedCatalog(1, [entry]),
        serve=SERVE,
        config=RouterConfig(n_shards=1, max_queue_depth=2),
        clock=clock,
        execute=execute,
        obs=obs,
    )


def request(i: int) -> TileRequest:
    col, row = i % 6, i // 6
    return TileRequest(
        bbox=(col * 800.0, row * 800.0, col * 800.0 + 800.0, row * 800.0 + 800.0),
        variable="freeboard_mean",
        zoom=0,
    )


async def drive(clock: VirtualClock, tasks: list) -> list:
    """Advance virtual time until every request task settles."""
    while not all(t.done() for t in tasks):
        for _ in range(30):  # let every submission reach admission control
            await asyncio.sleep(0)
        if not all(t.done() for t in tasks):
            await clock.advance_to_next()
    return await asyncio.gather(*tasks, return_exceptions=True)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-slo-"))
    try:
        clock = VirtualClock()
        obs = Obs(clock=clock)
        router = make_router(obs, clock)

        slo = SloEvaluator(
            obs.registry,
            clock=clock,
            config=SloConfig(fast_window_s=60.0, slow_window_s=600.0),
            log=obs.log,
        )
        spec = slo.add(availability_slo(objective=0.999))
        monitor = HealthMonitor(workdir / "health.json", obs, slo=slo, router=router)
        monitor.tick()  # baseline: no traffic yet, everything ok
        print(f"\nSLO: {spec.description} (fast window 60s, threshold 14.4x)")

        # -- outage: a 2x-saturation open-loop burst ------------------------
        async def burst():
            tasks = [
                asyncio.ensure_future(router.query(request(i))) for i in range(10)
            ]
            return await drive(clock, tasks)

        results = asyncio.run(burst())
        shed = sum(1 for r in results if isinstance(r, RouterOverloadedError))
        print(
            f"t={clock.now():6.2f}s  burst: 10 requests -> "
            f"{10 - shed} served, {shed} shed (watermark 2)"
        )
        assert shed == 8

        clock.tick(30.0)
        monitor.tick()
        fast = slo.alert(spec.name, "fast")
        assert fast.state == "firing", fast.state
        print(
            f"t={clock.now():6.2f}s  ALERT {spec.name}/fast FIRING: "
            f"burn {fast.burn_rate:.0f}x sustainable (threshold 14.4x)"
        )

        doc = json.loads((workdir / "health.json").read_text())
        budget = doc["slo"]["error_budgets"][0]
        shed_events = [e for e in doc["events"] if e["event"] == "router.shed"]
        assert doc["schema_version"] == DASHBOARD_SCHEMA_VERSION and shed_events
        print(
            f"           dashboard v{DASHBOARD_SCHEMA_VERSION}: budget {budget['bad_events']:.0f}/"
            f"{budget['budget_events']:.2f} bad events spent "
            f"(remaining {budget['remaining_fraction']:.0%}), "
            f"shed event trace {shed_events[0]['trace_id']}"
        )

        # -- recovery: sustainable sequential traffic -----------------------
        clock.tick(120.0)  # the burst ages out of the fast window

        async def healthy():
            for round_ in range(5):
                for i in range(8):
                    await drive(
                        clock, [asyncio.ensure_future(router.query(request(i)))]
                    )

        asyncio.run(healthy())
        before = router.stats.shed
        monitor.tick()
        assert router.stats.shed == before == 8  # shed rate dropped to zero
        assert fast.state == "resolved", fast.state
        print(
            f"t={clock.now():6.2f}s  alert RESOLVED after 40 healthy requests "
            f"(burn {fast.burn_rate:.2f}x < resolve threshold 7.2x)"
        )

        doc = json.loads((workdir / "health.json").read_text())
        states = {
            (a["slo"], a["window"]): a["state"] for a in doc["slo"]["alerts"]
        }
        transitions = [
            e["event"] for e in doc["events"] if e["event"].startswith("slo.")
        ]
        print(
            f"           final dashboard: fast={states[(spec.name, 'fast')]}, "
            f"slow={states[(spec.name, 'slow')]}, transitions logged: {transitions}"
        )
        assert "slo.alert_firing" in transitions
        assert "slo.alert_resolved" in transitions
        print(
            f"\nwhole lifecycle in {clock.now():.2f} virtual seconds, "
            f"{monitor.n_ticks} dashboard publishes, zero real sleeps"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
