"""Live-ingest benchmarks: incremental merge + dirty-tile rebuild vs full rebuild.

Times what one newly arrived granule costs a serving campaign, on the
kernels (``*_vectorized``) and under :func:`repro.kernels.reference.oracles`
(``*_reference``), in the two regimes the ingest tier exists to separate:

* **incremental**: fold the granule into the online
  :class:`~repro.l3.merge.MosaicAccumulator`, snapshot, and rebuild only
  the pyramid tiles overlapping its footprint with the
  :class:`~repro.serve.live.IncrementalPyramidBuilder` — the
  ``IngestService`` hot path;
* **full**: what serving had to do before this tier existed — re-run the
  batch :meth:`~repro.l3.processor.Level3Processor.mosaic` over the whole
  fleet and rebuild the entire pyramid from scratch.

Both paths produce byte-identical products (tested in
``tests/test_l3_merge.py`` / ``tests/test_ingest_service.py``), so the
ratio of their round minima is pure overhead saved.
The ``ingest_speedup_<backend>`` row of ``GATES`` in
``benchmarks/check_regression.py`` holds the full/incremental ratio above a
hard 3x floor and within 50 % of its committed ratio in
``benchmarks/results/kernel_baselines.json`` — if incremental ingest stops
being several times cheaper than a full rebuild, the dirty-cell accounting
has regressed into full-grid work.

Run:  python -m pytest benchmarks/bench_ingest.py --benchmark-json=ingest-bench.json
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

from repro.config import ServeConfig
from repro.geodesy.grid import GridDefinition
from repro.kernels.reference import oracles
from repro.l3.merge import MosaicAccumulator
from repro.l3.processor import Level3Processor
from repro.l3.product import Level3Grid
from repro.serve.live import IncrementalPyramidBuilder
from repro.serve.pyramid import build_pyramid

ROUNDS = dict(rounds=5, iterations=1, warmup_rounds=1)

#: Where a ``*_reference`` / ``*_vectorized`` benchmark runs: on the kernels'
#: reference loops, installed by ``oracles()``, or on the kernels.
RUN_ON = {"reference": oracles, "vectorized": nullcontext}

SERVE = ServeConfig(tile_size=64)
GRID = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=768, ny=512)
N_FLEET = 6
#: Footprint of one arriving granule (cells) — a swath patch, not the scene.
PATCH = (slice(128, 160), slice(192, 224))


def _granule(granule_id: str, rng: np.random.Generator, footprint=None) -> Level3Grid:
    ny, nx = GRID.shape
    n_segments = rng.integers(1, 40, size=(ny, nx)).astype(np.int64)
    if footprint is None:
        n_segments[rng.random((ny, nx)) < 0.5] = 0
    else:
        mask = np.zeros((ny, nx), dtype=bool)
        mask[footprint] = True
        n_segments[~mask] = 0
    observed = n_segments > 0
    n_freeboard = np.where(observed, rng.integers(1, 10, size=(ny, nx)), 0).astype(
        np.int64
    )

    def masked() -> np.ndarray:
        return np.where(observed, rng.normal(0.3, 0.15, size=(ny, nx)), np.nan)

    thick = rng.random((ny, nx))
    thin = rng.random((ny, nx)) * (1.0 - thick)
    return Level3Grid(
        grid=GRID,
        variables={
            "n_segments": n_segments,
            "n_freeboard_segments": n_freeboard,
            "freeboard_mean": masked(),
            "freeboard_median": masked(),
            "thickness_mean": masked(),
            "class_fraction_thick_ice": np.where(observed, thick, np.nan),
            "class_fraction_thin_ice": np.where(observed, thin, np.nan),
            "class_fraction_open_water": np.where(observed, 1.0 - thick - thin, np.nan),
        },
        metadata={"granule_id": granule_id, "kind": "granule"},
    )


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(9)
    granules = [_granule(f"g{i:03d}", rng) for i in range(N_FLEET)]
    # One localized arrival per benchmark round (distinct ids: the
    # accumulator rejects re-ingesting a granule it already merged).
    arrivals = [_granule(f"new{i:03d}", rng, footprint=PATCH) for i in range(16)]
    return granules, arrivals


def _bench_incremental(benchmark, fleet, side: str) -> None:
    granules, arrivals = fleet
    with RUN_ON[side]():
        accumulator = MosaicAccumulator(GRID)
        for granule in granules:
            accumulator.add(granule)
        seed = accumulator.snapshot()
        builder = IncrementalPyramidBuilder(
            build_pyramid(seed, serve=SERVE), serve=SERVE
        )
        queue = iter(arrivals)

        def ingest_one() -> None:
            granule = next(queue)
            dirty = accumulator.add(granule)
            builder.update(accumulator.snapshot(), dirty)

        benchmark.pedantic(ingest_one, **ROUNDS)


def _bench_full(benchmark, fleet, side: str) -> None:
    granules, arrivals = fleet
    with RUN_ON[side]():
        processor = Level3Processor(GRID)
        fleet_plus_one = granules + [arrivals[0]]

        def rebuild_everything() -> None:
            build_pyramid(processor.mosaic(fleet_plus_one), serve=SERVE)

        benchmark.pedantic(rebuild_everything, **ROUNDS)


def test_ingest_incremental_reference(benchmark, fleet):
    _bench_incremental(benchmark, fleet, "reference")


def test_ingest_incremental_vectorized(benchmark, fleet):
    _bench_incremental(benchmark, fleet, "vectorized")


def test_ingest_full_reference(benchmark, fleet):
    _bench_full(benchmark, fleet, "reference")


def test_ingest_full_vectorized(benchmark, fleet):
    _bench_full(benchmark, fleet, "vectorized")
