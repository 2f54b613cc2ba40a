"""Oracle-vs-kernel timings for the tile-pyramid reduction kernels.

One serving-scale pyramid build is timed end to end: a 512 x 512 mosaic
layer (freeboard values with realistic NaN holes, segment-count weights)
reduced through its full overview stack down to a single tile — the
count-weighted mean/weight reduction plus the coverage reduction at every
level, i.e. exactly what :func:`repro.serve.pyramid.build_pyramid` runs per
variable when the query engine decodes a product.

The reference side loops over output cells, the kernels' oracle in
:mod:`repro.kernels.reference`; the kernels reduce the four strided child
planes at once.  The pair is asserted equivalent (bit-identical) before
timing, and the ``pyramid_reduce`` row of ``GATES`` in
``benchmarks/check_regression.py`` holds the measured speedup against its
committed ratio in ``benchmarks/results/kernel_baselines.json`` (with a
hard >= 3x acceptance floor for this kernel).

Run:  python -m pytest benchmarks/bench_pyramid.py --benchmark-json=pyr-bench.json
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.kernels import pyramid as kpyr
from repro.kernels import reference as kref

ROUNDS = dict(rounds=5, iterations=1, warmup_rounds=1)

GRID_N = 512  # 512 x 512 base cells


def _build(reduce_mean, reduce_coverage, layers):
    values, weights, coverage = layers
    while max(values.shape) > 1:
        values, weights = reduce_mean(values, weights)
        coverage = reduce_coverage(coverage)


def run_reference(layers):
    _build(kref.reduce_mean_reference, kref.reduce_coverage_reference, layers)


def run_vectorized(layers):
    _build(kpyr.reduce_mean, kpyr.reduce_coverage, layers)


@pytest.fixture(scope="module")
def mosaic_layers():
    """A mosaic-like base level: clustered coverage, NaN holes, count weights."""
    rng = np.random.default_rng(23)
    # Coverage clusters along tracks: smooth a sparse mask so occupied cells
    # form connected swaths the way granule footprints actually overlap.
    occupancy = rng.random((GRID_N, GRID_N)) < 0.35
    weights = np.where(occupancy, rng.integers(1, 40, (GRID_N, GRID_N)), 0).astype(float)
    values = np.where(occupancy, rng.normal(0.3, 0.15, (GRID_N, GRID_N)), np.nan)
    # Sparse cells below the min_segments floor: positive count, NaN value.
    sparse = occupancy & (rng.random((GRID_N, GRID_N)) < 0.1)
    values[sparse] = np.nan
    coverage = occupancy.astype(float)

    ref_v, ref_w = kref.reduce_mean_reference(values, weights)
    vec_v, vec_w = kpyr.reduce_mean(values, weights)
    assert np.array_equal(ref_v, vec_v, equal_nan=True)
    assert np.array_equal(ref_w, vec_w)
    np.testing.assert_array_equal(
        kref.reduce_coverage_reference(coverage),
        kpyr.reduce_coverage(coverage),
    )
    return values, weights, coverage


def test_pyramid_reduce_reference(benchmark, mosaic_layers):
    benchmark.pedantic(run_reference, args=(mosaic_layers,), **ROUNDS)


def test_pyramid_reduce_vectorized(benchmark, mosaic_layers):
    benchmark.pedantic(run_vectorized, args=(mosaic_layers,), **ROUNDS)
