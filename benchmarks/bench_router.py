"""Serving-tier latency benchmarks: cold decode vs hot cache, kernels vs oracles.

Times the full router request path — resolution and planning, request
accounting, shard-engine execution — over a real on-disk mosaic, in two
regimes:

* **cold**: a fresh router per round, so every request pays product decode
  plus pyramid build (the kernel-bound worst case a cache miss costs);
* **hot**: a pre-warmed router serving the same requests from the shard
  LRU caches (the steady state of the popular Zipf head).

Each regime runs on the kernels (``*_vectorized``) and under
:func:`repro.kernels.reference.oracles` (``*_reference``), feeding three kinds of
``GATES`` rows in ``benchmarks/check_regression.py`` (committed ratios in
``benchmarks/results/kernel_baselines.json``):

* ``router_cold`` turns the reference/vectorized cold runs into a
  serving-path speedup (decode + pyramid build dominate, so the vectorized
  kernels must keep paying off end to end);
* ``router_latency_<backend>`` holds the cold/hot *latency ratio* above a
  3x floor — the router's cache path must stay an order of magnitude off
  the decode path, else the LRU or the routing accounting has regressed
  into the request path;
* ``router_hot_<backend>`` holds the hot run's absolute time under a
  generous 0.25 s ceiling.

Run:  python -m pytest benchmarks/bench_router.py --benchmark-json=router-bench.json
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import RouterConfig, ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.kernels.reference import oracles
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.serve.catalog import ProductCatalog
from repro.serve.query import TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

ROUNDS = dict(rounds=5, iterations=1, warmup_rounds=1)

#: Where a ``*_reference`` / ``*_vectorized`` benchmark runs: on the kernels'
#: reference loops, installed by ``oracles()``, or on the kernels.
RUN_ON = {"reference": oracles, "vectorized": nullcontext}

SERVE = ServeConfig(tile_size=64, tile_cache_size=512)
CONFIG = RouterConfig(n_shards=2)

GRID_NX, GRID_NY = 768, 512  # 76.8 km x 51.2 km at 100 m cells


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """One serving-scale mosaic on disk, catalogued."""
    root = tmp_path_factory.mktemp("router-bench")
    rng = np.random.default_rng(5)
    grid = GridDefinition(
        x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=GRID_NX, ny=GRID_NY
    )
    occupancy = rng.random(grid.shape) < 0.4
    n_seg = np.where(occupancy, rng.integers(1, 40, grid.shape), 0).astype(np.int64)
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(
                occupancy, rng.normal(0.3, 0.15, grid.shape), np.nan
            ),
        },
        metadata={"kind": "mosaic", "granule_ids": ["bench"], "fingerprint": "fp-bench"},
    )
    write_level3(product, root / "mosaic")
    catalog = ProductCatalog()
    catalog.scan(root)
    return catalog


def make_requests() -> list[TileRequest]:
    """A spread of distinct regions and zooms."""
    requests = []
    for i, zoom in ((0, 0), (1, 0), (2, 1), (3, 1), (4, 2)):
        x0, y0 = i * 12_000.0, (i % 3) * 12_000.0
        requests.append(
            TileRequest(
                bbox=(x0, y0, x0 + 16_000.0, y0 + 12_800.0),
                variable="freeboard_mean",
                zoom=zoom,
            )
        )
    return requests


def fresh_router(catalog: ProductCatalog) -> RequestRouter:
    return RequestRouter(
        ShardedCatalog.from_catalog(catalog, CONFIG.n_shards),
        serve=SERVE,
        config=CONFIG,
    )


def serve_cold(catalog: ProductCatalog, requests: list[TileRequest]) -> None:
    fresh_router(catalog).serve(requests)


def _bench_cold(benchmark, archive, side: str) -> None:
    with RUN_ON[side]():
        benchmark.pedantic(serve_cold, args=(archive, make_requests()), **ROUNDS)


def _bench_hot(benchmark, archive, side: str) -> None:
    with RUN_ON[side]():
        router = fresh_router(archive)
        requests = make_requests()
        warmed = router.serve(requests)
        assert all(r.n_tiles > 0 for r in warmed)
        # Steady state: every tile in the LRU, requests still walk the full
        # router path (resolve -> plan -> shard engine -> cache hit).
        benchmark.pedantic(router.serve, args=(requests,), **ROUNDS)
        assert all(r.from_cache for r in router.serve(requests))


def test_router_cold_reference(benchmark, archive):
    _bench_cold(benchmark, archive, "reference")


def test_router_cold_vectorized(benchmark, archive):
    _bench_cold(benchmark, archive, "vectorized")


def test_router_hot_reference(benchmark, archive):
    _bench_hot(benchmark, archive, "reference")


def test_router_hot_vectorized(benchmark, archive):
    _bench_hot(benchmark, archive, "vectorized")
