"""Reference-vs-vectorized timings for the Level-3 gridding kernels.

One campaign-scale binning job is timed end to end: a fleet's worth of
along-track segments (600 k points, clustered along simulated ground
tracks the way real orbits actually sample a polar grid, ~60 k occupied
cells) binned onto a 512 x 512 cell grid — per-cell
count/mean/median/std/MAD of freeboard plus the per-class segment counts,
i.e. exactly what :meth:`repro.l3.Level3Processor.grid_granule` runs per
granule.

The reference backend is the pure per-cell loop; the vectorized backend
does composite-key ``np.bincount`` sums and segmented ``np.lexsort``
medians.  The pair is asserted equivalent (1e-10) before timing, and
the ``l3_gridding`` row of ``GATES`` in ``benchmarks/check_regression.py``
holds the measured speedup against its committed ratio in
``benchmarks/results/kernel_baselines.json`` (with a hard >= 3x acceptance
floor for this kernel).

Run:  python -m pytest benchmarks/bench_l3_gridding.py --benchmark-json=l3-bench.json
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.kernels import gridding as kgrid

ROUNDS = dict(rounds=5, iterations=1, warmup_rounds=1)

N_POINTS = 600_000
GRID_N = 512  # 512 x 512 cells
N_TRACKS = 120
N_CLASSES = 3


def _run(stats_fn, counts_fn, args):
    idx, values, labels, n_cells = args
    stats_fn(idx, values, n_cells)
    counts_fn(idx, labels, n_cells, N_CLASSES)


def run_reference(args):
    _run(kgrid.cell_statistics_reference, kgrid.cell_class_counts_reference, args)


def run_vectorized(args):
    _run(kgrid.cell_statistics_vectorized, kgrid.cell_class_counts_vectorized, args)


@pytest.fixture(scope="module")
def campaign_segments():
    """~1 M segments clustered along simulated ground tracks over the grid."""
    rng = np.random.default_rng(19)
    n_cells = GRID_N * GRID_N
    # Tracks cross the grid as straight lines; segments sample them densely,
    # so occupied cells hold runs of consecutive segments (realistic order).
    tracks = N_TRACKS
    per_track = N_POINTS // tracks
    cols_list = []
    rows_list = []
    for _ in range(tracks):
        t = np.linspace(0.0, 1.0, per_track)
        x0, x1 = rng.uniform(0, GRID_N, 2)
        y0, y1 = rng.uniform(0, GRID_N, 2)
        cols_list.append(np.clip(x0 + (x1 - x0) * t + rng.normal(0, 0.3, per_track), 0, GRID_N - 1e-9))
        rows_list.append(np.clip(y0 + (y1 - y0) * t + rng.normal(0, 0.3, per_track), 0, GRID_N - 1e-9))
    idx = (
        np.floor(np.concatenate(rows_list)).astype(np.int64) * GRID_N
        + np.floor(np.concatenate(cols_list)).astype(np.int64)
    )
    values = rng.normal(0.3, 0.15, idx.size)
    labels = rng.integers(0, N_CLASSES, idx.size)
    args = (idx, values, labels, n_cells)

    ref_stats = kgrid.cell_statistics_reference(idx, values, n_cells)
    vec_stats = kgrid.cell_statistics_vectorized(idx, values, n_cells)
    for r, v in zip(ref_stats, vec_stats):
        assert np.allclose(r, v, atol=1e-10, rtol=0.0, equal_nan=True)
    np.testing.assert_array_equal(
        kgrid.cell_class_counts_reference(idx, labels, n_cells, N_CLASSES),
        kgrid.cell_class_counts_vectorized(idx, labels, n_cells, N_CLASSES),
    )
    return args


def test_l3_gridding_reference(benchmark, campaign_segments):
    benchmark.pedantic(run_reference, args=(campaign_segments,), **ROUNDS)


def test_l3_gridding_vectorized(benchmark, campaign_segments):
    benchmark.pedantic(run_vectorized, args=(campaign_segments,), **ROUNDS)
