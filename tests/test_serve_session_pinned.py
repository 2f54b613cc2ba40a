"""Pinned telemetry of one scripted session on a router.

The session is a cold two-request batch, its warm repeat, eight identical
requests in one batch, and a batch whose first request no product serves.
Every ``router_*`` and ``serve_*`` series the registry holds afterwards is
pinned (counters and gauges by value, histograms by observation count),
and so is every ``router.request`` span: its attributes (``shard``,
``outcome``, ``n_cached``, ``n_computed``, ...) and its ``loader.fetch``
children.  Any change to how a routed request is resolved, executed or
accounted for shows up here as a changed number.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.obs.core import Obs
from repro.obs.metrics import Histogram
from repro.serve.catalog import ProductCatalog
from repro.serve.query import TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

SERVE = ServeConfig(tile_size=16, tile_cache_size=64)
CONFIG = RouterConfig(n_shards=2)

#: Two 64 x 64-cell mosaics (100 m cells, 4 x 4 tiles each) on different shards.
WEST = TileRequest(bbox=(100.0, 100.0, 3_000.0, 1_500.0), variable="freeboard_mean")
EAST = TileRequest(bbox=(19_300.0, 100.0, 25_500.0, 6_300.0), variable="freeboard_mean", zoom=1)
NOWHERE = TileRequest(bbox=(90_000.0, 90_000.0, 91_000.0, 91_000.0), variable="freeboard_mean")


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("session-pin")
    rng = np.random.default_rng(5)
    for name, x_min in (("west", 0.0), ("east", 19_200.0)):
        grid = GridDefinition(x_min_m=x_min, y_min_m=0.0, cell_size_m=100.0, nx=64, ny=64)
        occupied = rng.random(grid.shape) < 0.5
        n_seg = np.where(occupied, rng.integers(1, 30, grid.shape), 0).astype(np.int64)
        product = Level3Grid(
            grid=grid,
            variables={
                "n_segments": n_seg,
                "freeboard_mean": np.where(occupied, rng.normal(0.3, 0.1, grid.shape), np.nan),
            },
            metadata={"kind": "mosaic", "granule_ids": [name], "fingerprint": f"fp-{name}"},
        )
        write_level3(product, root / name)
    catalog = ProductCatalog()
    catalog.scan(root)
    return catalog


@pytest.fixture(scope="module")
def session(archive):
    """Run the scripted session once; return the router and its ``Obs``."""
    obs = Obs(clock=VirtualClock())
    router = RequestRouter(
        ShardedCatalog.from_catalog(archive, CONFIG.n_shards),
        serve=SERVE,
        config=CONFIG,
        obs=obs,
    )
    cold = router.serve([WEST, EAST])
    warm = router.serve([WEST, EAST])
    burst = router.serve([WEST] * 8)
    with pytest.raises(LookupError, match="no catalogued product"):
        router.serve([NOWHERE, EAST])
    return router, obs, cold, warm, burst


def series(obs: Obs) -> dict[str, float]:
    """Every ``router_*``/``serve_*`` series, label-free: histograms by count."""
    out: dict[str, float] = {}
    for metric in obs.registry.collect():
        if not metric.name.startswith(("router_", "serve_")):
            continue
        if metric.name == "serve_batch_seconds_total":
            continue  # measured seconds: the one series that is not a count
        labels = ",".join(f"{k}={v}" for k, v in metric.labels if k != "router")
        value = metric.count if isinstance(metric, Histogram) else metric.value
        out[f"{metric.name}{{{labels}}}"] = value
    return out


#: Shards: ``fp-west`` lives on shard 1 and ``fp-east`` on shard 0.
EXPECTED_SERIES = {
    "router_errors_total{}": 1,
    "router_executions_total{}": 13,
    "router_request_latency_seconds{}": 13,
    "router_requests_total{}": 14,
    "serve_batch_seconds{shard=0}": 3,
    "serve_batch_seconds{shard=1}": 10,
    "serve_batches_total{shard=0}": 3,
    "serve_batches_total{shard=1}": 10,
    "serve_loads_total{shard=0}": 1,
    "serve_loads_total{shard=1}": 1,
    "serve_requests_total{shard=0}": 3,
    "serve_requests_total{shard=1}": 10,
    "serve_tile_hits_total{shard=0}": 8,
    "serve_tile_hits_total{shard=1}": 18,
    "serve_tile_misses_total{shard=0}": 4,
    "serve_tile_misses_total{shard=1}": 2,
}


def test_every_router_and_serve_series_is_pinned(session):
    router, obs, *_ = session
    got = series(obs)
    # Every listed series, and no other one that reads non-zero.
    assert {k: v for k, v in got.items() if v or k in EXPECTED_SERIES} == EXPECTED_SERIES
    stats = router.stats
    counts = (stats.requests, stats.executions, stats.coalesced, stats.shed, stats.errors)
    assert counts == (14, 13, 0, 0, 1)
    assert [shard.engine.stats.loads for shard in router.shards] == [1, 1]


def test_responses_are_pinned(session):
    _, _, cold, warm, burst = session

    def rows(responses):
        return [(r.shard, r.n_cached, r.n_computed) for r in responses]

    assert rows(cold) == [(1, 0, 2), (0, 0, 4)]
    assert rows(warm) == [(1, 2, 0), (0, 4, 0)]
    assert rows(burst) == [(1, 2, 0)] * 8


def request_spans(obs: Obs) -> list[dict]:
    return [dict(span.attributes) for span in obs.tracer.spans("router.request")]


def fetch_parents(obs: Obs) -> list[int]:
    """Index of the ``router.request`` span each ``loader.fetch`` nests under."""
    ids = [span.span_id for span in obs.tracer.spans("router.request")]
    return [ids.index(span.parent_id) for span in obs.tracer.spans("loader.fetch")]


def served(variable_zoom: tuple[str, int], shard: int, n_cached: int, n_computed: int) -> dict:
    variable, zoom = variable_zoom
    return {
        "variable": variable,
        "zoom": zoom,
        "shard": shard,
        "outcome": "served",
        "n_cached": n_cached,
        "n_computed": n_computed,
    }


def test_request_spans_are_pinned(session):
    _, obs, *_ = session
    west, east = ("freeboard_mean", 0), ("freeboard_mean", 1)
    expected = [
        served(west, 1, 0, 2),
        served(east, 0, 0, 4),
        served(west, 1, 2, 0),
        served(east, 0, 4, 0),
        *[served(west, 1, 2, 0)] * 8,
        {
            "variable": "freeboard_mean",
            "zoom": 0,
            "outcome": "unroutable",
            "error": "LookupError",
        },
        served(east, 0, 4, 0),
    ]
    assert request_spans(obs) == expected
    # Only the two cold executions decode, each under its own request span.
    assert fetch_parents(obs) == [0, 1]
    assert not obs.tracer.spans("engine.query_batch")
