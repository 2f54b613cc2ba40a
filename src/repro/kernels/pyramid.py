"""Tile-pyramid overview reductions (reference loop + vectorized).

Both backends implement the same contract: one power-of-two overview step
over a ``(ny, nx)`` Level-3 layer.  Each output cell composites its up-to
four children (the 2x2 block below it; odd-sized grids get phantom children
that never contribute):

* :func:`reduce_mean` — the **count-weighted mean** of the contributing
  children, plus the summed contributing weights.  A child contributes iff
  its weight is positive *and* its value is finite, so NaN cells (empty, or
  below the ``min_segments`` floor) never poison an overview — the pyramid
  is NaN-aware by construction.  An output cell with no contributors is NaN
  with weight 0, never garbage.
* :func:`reduce_coverage` — the plain **area mean** of the children's
  coverage fractions (phantom children count as uncovered), so level-``k``
  coverage is always the fraction of *base* cells covered under the output
  cell's footprint.

Both backends accumulate the four children in the same row-major order
(``(2i, 2j)``, ``(2i, 2j+1)``, ``(2i+1, 2j)``, ``(2i+1, 2j+1)``) with
non-contributing terms as exact ``0.0``, so the backends agree **bit for
bit** — adding ``0.0`` is exact in IEEE double — and are equivalence-tested
to 1e-10 in ``tests/test_kernels_pyramid.py`` (including all-NaN and
single-cell inputs).

The reference backend loops over output cells; the vectorized backend
strides the padded layer into its four child planes and reduces them with
whole-array arithmetic.  ``benchmarks/bench_pyramid.py`` holds the measured
speedup against the committed baseline with a >= 3x acceptance floor.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend


def _prepare(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals = np.asarray(values, dtype=float)
    wts = np.asarray(weights, dtype=float)
    if vals.ndim != 2 or wts.shape != vals.shape:
        raise ValueError(
            "values and weights must be 2-D arrays of the same shape, got "
            f"{vals.shape} vs {wts.shape}"
        )
    if wts.size and (not np.isfinite(wts).all() or (wts < 0).any()):
        raise ValueError("weights must be finite and non-negative")
    return vals, wts


def reduced_shape(shape: tuple[int, int]) -> tuple[int, int]:
    """Shape of one overview step: ceil-halved rows and columns."""
    ny, nx = shape
    if ny < 1 or nx < 1:
        raise ValueError(f"cannot reduce an empty layer of shape {shape}")
    return (ny + 1) // 2, (nx + 1) // 2


# ---------------------------------------------------------------------------
# Reference backend: the per-output-cell recipe
# ---------------------------------------------------------------------------


def reduce_mean_reference(
    values: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted 2x2 reduction, looping over output cells."""
    vals, wts = _prepare(values, weights)
    ny, nx = vals.shape
    out_ny, out_nx = reduced_shape(vals.shape)
    out_values = np.full((out_ny, out_nx), np.nan)
    out_weights = np.zeros((out_ny, out_nx))
    for i in range(out_ny):
        for j in range(out_nx):
            num = 0.0
            den = 0.0
            for ci, cj in (
                (2 * i, 2 * j),
                (2 * i, 2 * j + 1),
                (2 * i + 1, 2 * j),
                (2 * i + 1, 2 * j + 1),
            ):
                if ci >= ny or cj >= nx:
                    continue
                weight = wts[ci, cj]
                value = vals[ci, cj]
                if weight > 0 and np.isfinite(value):
                    num += weight * value
                    den += weight
            if den > 0:
                out_values[i, j] = num / den
                out_weights[i, j] = den
    return out_values, out_weights


def reduce_coverage_reference(coverage: np.ndarray) -> np.ndarray:
    """Area-mean 2x2 reduction of coverage fractions, looping over cells."""
    cov = np.asarray(coverage, dtype=float)
    if cov.ndim != 2:
        raise ValueError(f"coverage must be a 2-D array, got shape {cov.shape}")
    if cov.size and (not np.isfinite(cov).all() or (cov < 0).any() or (cov > 1).any()):
        raise ValueError("coverage fractions must be finite and in [0, 1]")
    ny, nx = cov.shape
    out_ny, out_nx = reduced_shape(cov.shape)
    out = np.zeros((out_ny, out_nx))
    for i in range(out_ny):
        for j in range(out_nx):
            total = 0.0
            for ci, cj in (
                (2 * i, 2 * j),
                (2 * i, 2 * j + 1),
                (2 * i + 1, 2 * j),
                (2 * i + 1, 2 * j + 1),
            ):
                if ci < ny and cj < nx:
                    total += cov[ci, cj]
            out[i, j] = total / 4.0
    return out


# ---------------------------------------------------------------------------
# Vectorized backend: the four child planes at once
# ---------------------------------------------------------------------------


def _child_planes(layer: np.ndarray, fill: float) -> tuple[np.ndarray, ...]:
    """The four 2x2-block child planes of a layer, padded to even dims."""
    ny, nx = layer.shape
    padded = np.full((ny + ny % 2, nx + nx % 2), fill)
    padded[:ny, :nx] = layer
    return (
        padded[0::2, 0::2],
        padded[0::2, 1::2],
        padded[1::2, 0::2],
        padded[1::2, 1::2],
    )


def reduce_mean_vectorized(
    values: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted 2x2 reduction over the four strided child planes.

    Non-contributing children (phantom padding, zero weight, non-finite
    value) enter the sums as exact ``0.0`` in the reference backend's
    accumulation order, so the result is bit-identical to the loop.
    """
    vals, wts = _prepare(values, weights)
    v00, v01, v10, v11 = _child_planes(vals, np.nan)
    w00, w01, w10, w11 = _child_planes(wts, 0.0)

    terms = []
    contribs = []
    for v, w in ((v00, w00), (v01, w01), (v10, w10), (v11, w11)):
        mask = (w > 0) & np.isfinite(v)
        contrib = np.where(mask, w, 0.0)
        contribs.append(contrib)
        terms.append(np.where(mask, w * v, 0.0))
    num = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    den = ((contribs[0] + contribs[1]) + contribs[2]) + contribs[3]
    with np.errstate(invalid="ignore", divide="ignore"):
        out_values = np.where(den > 0, num / den, np.nan)
    return out_values, den


def reduce_coverage_vectorized(coverage: np.ndarray) -> np.ndarray:
    """Area-mean 2x2 reduction over the four strided child planes."""
    cov = np.asarray(coverage, dtype=float)
    if cov.ndim != 2:
        raise ValueError(f"coverage must be a 2-D array, got shape {cov.shape}")
    if cov.size and (not np.isfinite(cov).all() or (cov < 0).any() or (cov > 1).any()):
        raise ValueError("coverage fractions must be finite and in [0, 1]")
    c00, c01, c10, c11 = _child_planes(cov, 0.0)
    return (((c00 + c01) + c10) + c11) / 4.0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def reduce_mean(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One count-weighted overview step via the active kernel backend."""
    if get_backend() == "vectorized":
        return reduce_mean_vectorized(values, weights)
    return reduce_mean_reference(values, weights)


def reduce_coverage(coverage: np.ndarray) -> np.ndarray:
    """One coverage-fraction overview step via the active kernel backend."""
    if get_backend() == "vectorized":
        return reduce_coverage_vectorized(coverage)
    return reduce_coverage_reference(coverage)
