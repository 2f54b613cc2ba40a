#!/usr/bin/env python
"""SLO burn-rate alerting: storage outage -> page -> quarantine -> recovery.

Drives the serve tier through a full alert lifecycle on the virtual clock:

1. declare an availability SLO (99.9% of requests served without error)
   over the counters the router already emits — no new instrumentation;
2. the storage under the only shard fails mid-traffic: product decodes
   raise, the shard is quarantined after three of them, and the requests
   after that find no healthy product — every one counts as an error;
3. the fast burn-rate window fires at the next evaluator tick — the
   ``HealthMonitor`` publishes the dashboard carrying the firing alert,
   the overspent error budget and the ``router.shard_quarantined`` event,
   whose trace id joins back to the ``router.request`` span that failed;
4. the storage comes back, ``rebuild_shard`` returns the shard to service,
   and the alert resolves with hysteresis once the burn falls below half
   the threshold.

Every timestamp is exact virtual time — the whole story, outage to
resolution, runs in milliseconds of wall clock.

Run:  python examples/slo_alerts.py

This example is also the CI smoke test for the SLO engine.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig, SloConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import Level3ProductError, write_level3
from repro.obs import (
    DASHBOARD_SCHEMA_VERSION,
    HealthMonitor,
    Obs,
    SloEvaluator,
    availability_slo,
)
from repro.serve import ProductCatalog, ProductLoader, TileRequest
from repro.serve.router import RequestRouter

SERVE = ServeConfig(tile_size=8, tile_cache_size=64)
#: The scripted outage: while set, every product read fails.
STORAGE = {"down": False}


class OutageLoader(ProductLoader):
    """Reads products from disk, except while the storage is down."""

    def decode(self, entry):
        if STORAGE["down"]:
            raise Level3ProductError(f"storage outage: cannot read {entry.key}")
        return super().decode(entry)


def make_router(workdir: Path, obs: Obs, clock: VirtualClock) -> RequestRouter:
    """One 48 x 32-cell mosaic (6 x 4 tiles) behind a single-shard router."""
    rng = np.random.default_rng(0)
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=48, ny=32)
    n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan),
        },
        metadata={"kind": "mosaic", "granule_ids": ["g000"], "fingerprint": "fp-demo"},
    )
    write_level3(product, workdir / "products" / "mosaic")
    catalog = ProductCatalog()
    catalog.scan(workdir / "products")
    return RequestRouter(
        catalog,
        serve=SERVE,
        config=RouterConfig(n_shards=1, quarantine_errors=3),
        loader_factory=lambda index: OutageLoader(SERVE),
        clock=clock,
        obs=obs,
    )


def request(i: int) -> TileRequest:
    """One whole tile per index, so every request misses the tile cache."""
    col, row = i % 6, i // 6
    return TileRequest(
        bbox=(col * 800.0, row * 800.0, col * 800.0 + 800.0, row * 800.0 + 800.0),
        variable="freeboard_mean",
        zoom=0,
    )


def serve_each(router: RequestRouter, indices) -> int:
    """Serve the requests one at a time; return how many failed."""
    failed = 0
    for i in indices:
        try:
            router.query(request(i))
        except (LookupError, Level3ProductError):
            failed += 1
    return failed


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-slo-"))
    try:
        clock = VirtualClock()
        obs = Obs(clock=clock)
        router = make_router(workdir, obs, clock)

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

        # -- outage: the storage fails after two requests ---------------------
        assert serve_each(router, range(2)) == 0
        STORAGE["down"] = True
        failed = serve_each(router, range(2, 10))
        print(
            f"t={clock.now():6.2f}s  outage: 10 requests -> {10 - failed} served, "
            f"{failed} failed; shards quarantined: {list(router.quarantined_shards)}"
        )
        assert failed == 8 and router.quarantined_shards == (0,)

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
        quarantined = [e for e in doc["events"] if e["event"] == "router.shard_quarantined"]
        assert doc["schema_version"] == DASHBOARD_SCHEMA_VERSION and quarantined
        print(
            f"           dashboard v{DASHBOARD_SCHEMA_VERSION}: budget {budget['bad_events']:.0f}/"
            f"{budget['budget_events']:.2f} bad events spent "
            f"(remaining {budget['remaining_fraction']:.0%}), "
            f"quarantine event trace {quarantined[0]['trace_id']}"
        )

        # -- recovery: storage back, shard rebuilt, healthy traffic -----------
        clock.tick(120.0)  # the outage ages out of the fast window
        STORAGE["down"] = False
        router.rebuild_shard(0)
        for _ in range(5):
            assert serve_each(router, range(8)) == 0
        monitor.tick()
        assert router.stats.errors == 8  # no new errors after the rebuild
        assert fast.state == "resolved", fast.state
        print(
            f"t={clock.now():6.2f}s  shard rebuilt, alert RESOLVED after 40 healthy "
            f"requests (burn {fast.burn_rate:.2f}x < resolve threshold 7.2x)"
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
