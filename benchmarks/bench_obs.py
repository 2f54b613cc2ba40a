"""Telemetry overhead benchmarks: the same work with obs on and off.

Four enabled/disabled pairs, mirroring the hot paths the instrumentation
rides on:

* **query**: a pre-warmed router serving a request batch from the shard LRU
  caches — the serving steady state, where every request opens exactly one
  span (``router.request``, onto which the shard engine records its cache
  accounting) and makes about a dozen metric updates.  This is the path
  with the least real work per span, so it is the most overhead-sensitive.
* **campaign**: one small end-to-end campaign run — curation, pooled
  training, retrieval, aggregation — where spans and stage counters wrap
  seconds of numeric work and the overhead must disappear in the noise.
* **logging**: a fully cache-hot campaign re-run — every stage is a cache
  hit, and every hit emits a structured ``campaign.cache_hit`` record
  through the dedup ring *and* a JSON-lines file sink, so the enabled run
  pays serialization + write per record on top of the span/counter cost.
* **propagation**: a process-pool map-reduce job — the enabled run pickles
  each task wrapped with the driver's trace context, installs a worker-side
  tracer, ships spans + metric deltas back and grafts them into the
  driver's tree; the disabled run submits the bare tasks.

Each ``obs_enabled_<path>`` / ``obs_disabled_<path>`` pair is one
``obs_overhead_<path>`` row of ``GATES`` in ``benchmarks/check_regression.py``,
which holds the enabled/disabled time ratio under its 1.05 ceiling
(telemetry may cost at most 5 % of any hot path); the committed ratios are
in ``benchmarks/results/kernel_baselines.json``.

Run:  python -m pytest benchmarks/bench_obs.py --benchmark-json=obs-bench.json
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.campaign import CampaignConfig, CampaignRunner
from repro.clock import VirtualClock
from repro.config import RouterConfig, ServeConfig
from repro.distributed.mapreduce import MapReduceEngine
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.obs.core import Obs
from repro.serve.catalog import ProductCatalog
from repro.serve.query import TileRequest
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

ROUNDS = dict(rounds=5, iterations=1, warmup_rounds=1)

SERVE = ServeConfig(tile_size=64, tile_cache_size=512)
CONFIG = RouterConfig(n_shards=2)

GRID_NX, GRID_NY = 512, 384


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-bench")
    rng = np.random.default_rng(11)
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
        metadata={"kind": "mosaic", "granule_ids": ["bench"], "fingerprint": "fp-obs"},
    )
    write_level3(product, root / "mosaic")
    catalog = ProductCatalog()
    catalog.scan(root)
    return catalog


def make_requests() -> list[TileRequest]:
    requests = []
    for i, zoom in ((0, 0), (1, 0), (2, 1), (3, 1), (4, 2)):
        x0, y0 = i * 8_000.0, (i % 3) * 8_000.0
        requests.append(
            TileRequest(
                bbox=(x0, y0, x0 + 12_800.0, y0 + 9_600.0),
                variable="freeboard_mean",
                zoom=zoom,
            )
        )
    return requests


def _bench_query(benchmark, archive, obs: Obs) -> None:
    router = RequestRouter(
        ShardedCatalog.from_catalog(archive, CONFIG.n_shards),
        serve=SERVE,
        config=CONFIG,
        obs=obs,
    )
    requests = make_requests()
    warmed = router.serve(requests)
    assert all(r.n_tiles > 0 for r in warmed)

    def serve_many() -> None:
        # 10 warm batches per round: enough spans/counter increments that
        # per-call overhead, not timer resolution, is what gets measured.
        for _ in range(10):
            router.serve(requests)

    benchmark.pedantic(serve_many, **ROUNDS)


def test_obs_enabled_query(benchmark, archive):
    _bench_query(benchmark, archive, Obs(clock=VirtualClock()))


def test_obs_disabled_query(benchmark, archive):
    _bench_query(benchmark, archive, Obs.disabled())


_BASE = ExperimentConfig(
    scene=SceneConfig(
        width_m=6_000.0,
        height_m=6_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=6,
    ),
    epochs=1,
    model_kind="mlp",
)

_GRID = {"season": ("winter", "freeze_up")}


def _bench_campaign(benchmark, obs: Obs) -> None:
    config = CampaignConfig(base=_BASE, grid=_GRID, seed=23, n_workers=1)

    def run_campaign():
        with CampaignRunner(config, obs=obs) as runner:
            return runner.run()

    result = benchmark.pedantic(run_campaign, rounds=3, iterations=1, warmup_rounds=1)
    assert result.n_granules == 2


def test_obs_enabled_campaign(benchmark):
    _bench_campaign(benchmark, Obs())


def test_obs_disabled_campaign(benchmark):
    _bench_campaign(benchmark, Obs.disabled())


# -- logging: cache-hot campaign, one structured record per stage hit ---------


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A campaign cache populated once, shared by both logging runs."""
    cache_dir = tmp_path_factory.mktemp("obs-bench-cache")
    config = CampaignConfig(
        base=_BASE, grid=_GRID, seed=23, n_workers=1, cache_dir=str(cache_dir)
    )
    with CampaignRunner(config, obs=Obs.disabled()) as runner:
        runner.run()
    return cache_dir


def _bench_logging(benchmark, warm_cache, obs: Obs) -> None:
    config = CampaignConfig(
        base=_BASE, grid=_GRID, seed=23, n_workers=1, cache_dir=str(warm_cache)
    )

    def run_cached():
        # 10 cache-hot runs per round: each is only a few ms, so batching
        # keeps timer jitter out of the minima the gate compares.
        for _ in range(10):
            with CampaignRunner(config, obs=obs) as runner:
                result = runner.run()
        return result

    result = benchmark.pedantic(run_cached, **ROUNDS)
    assert result.n_granules == 2


def test_obs_enabled_logging(benchmark, warm_cache, tmp_path):
    obs = Obs()
    obs.log.attach_sink(tmp_path / "events.jsonl")
    try:
        _bench_logging(benchmark, warm_cache, obs)
        assert obs.log.n_records > 0
    finally:
        obs.log.close()


def test_obs_disabled_logging(benchmark, warm_cache):
    _bench_logging(benchmark, warm_cache, Obs.disabled())


# -- propagation: trace context across a process pool -------------------------


def _load_matrices() -> list[np.ndarray]:
    # Sized so per-task numeric work dominates the fixed per-task costs
    # (context pickle, telemetry ship-back) the pair is meant to bound.
    rng = np.random.default_rng(7)
    return [rng.normal(size=(224, 224)) for _ in range(12)]


def _eig_partition(matrices) -> float:
    total = 0.0
    for m in matrices:
        total += float(np.abs(np.linalg.eigvals(m @ m.T)).sum())
    return total


def _sum_partials(partials) -> float:
    return float(sum(partials))


def _bench_propagation(benchmark, obs: Obs) -> None:
    with MapReduceEngine(n_partitions=4, executor="process", obs=obs) as engine:
        # Warm the persistent pool outside the measured region so both runs
        # pay worker startup once, not per round.
        engine.run(_load_matrices, _eig_partition, _sum_partials)

        def run_job():
            return engine.run(_load_matrices, _eig_partition, _sum_partials)

        result = benchmark.pedantic(run_job, **ROUNDS)
        assert result.value > 0.0


def test_obs_enabled_propagation(benchmark):
    obs = Obs()
    _bench_propagation(benchmark, obs)
    # The enabled run must actually graft worker subtrees into the driver.
    assert obs.tracer.spans("mapreduce.task")


def test_obs_disabled_propagation(benchmark):
    _bench_propagation(benchmark, Obs.disabled())
