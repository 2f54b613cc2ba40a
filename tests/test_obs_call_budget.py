"""Deterministic telemetry budget: Python calls that obs adds to a routed request.

``benchmarks/bench_obs.py`` times the warm query path with obs on and off,
and on a shared host that ratio swings by more than its 5 % budget from run
to run.  This test counts instead of timing: it counts the Python-level
function calls (``sys.setprofile`` ``"call"`` events) of one warm routed
request, built as in the benchmark's query pair, once under
``Obs(clock=VirtualClock())`` and once under ``Obs.disabled()``, and pins
the difference.  A change that adds telemetry work to the request path
fails here as a count, whatever the host does.

The request path runs on the caller's thread (``run_sync`` drives a fresh
event loop; nothing is handed to an executor).  ``threading.setprofile`` is
set as well, so a thread that the path might start later is counted too.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.obs.core import Obs
from repro.serve.catalog import ProductCatalog
from repro.serve.query import TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

SERVE = ServeConfig(tile_size=64, tile_cache_size=512)
CONFIG = RouterConfig(n_shards=2, max_queue_depth=64)

#: Python-level calls that telemetry adds to one warm routed request: the
#: ``router.request`` span (constructor, trace and span ids, finish) and the
#: two clock reads that time it.
OBS_CALLS_PER_REQUEST = 7

REQUEST = TileRequest(bbox=(0.0, 0.0, 12_800.0, 9_600.0), variable="freeboard_mean", zoom=0)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-budget")
    rng = np.random.default_rng(11)
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=256, ny=192)
    occupancy = rng.random(grid.shape) < 0.4
    n_seg = np.where(occupancy, rng.integers(1, 40, grid.shape), 0).astype(np.int64)
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(occupancy, rng.normal(0.3, 0.15, grid.shape), np.nan),
        },
        metadata={"kind": "mosaic", "granule_ids": ["budget"], "fingerprint": "fp-budget"},
    )
    write_level3(product, root / "mosaic")
    catalog = ProductCatalog()
    catalog.scan(root)
    return catalog


def warm_request_calls(archive, obs: Obs) -> int:
    """Python-level calls of one routed request whose tiles are all cached."""
    router = RequestRouter(
        ShardedCatalog.from_catalog(archive, CONFIG.n_shards),
        serve=SERVE,
        config=CONFIG,
        obs=obs,
    )
    assert router.serve([REQUEST])[0].n_tiles > 0
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # Finalizers that a collection happens to run would count as calls.
    gc.collect()
    gc.disable()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        (response,) = router.serve([REQUEST])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        gc.enable()
    assert response.n_tiles > 0
    return calls


def test_warm_request_call_count_is_reproducible(archive):
    enabled = Obs(clock=VirtualClock())
    assert warm_request_calls(archive, enabled) == warm_request_calls(archive, enabled)


def test_telemetry_adds_a_pinned_number_of_calls_to_a_warm_request(archive):
    enabled = warm_request_calls(archive, Obs(clock=VirtualClock()))
    disabled = warm_request_calls(archive, Obs.disabled())
    assert enabled - disabled == OBS_CALLS_PER_REQUEST
