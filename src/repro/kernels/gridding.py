"""Level-3 per-cell binning kernels.

The kernels and their oracles implement the same contract: given the flat cell index of
every along-track segment on a :class:`~repro.geodesy.grid.GridDefinition`
(``row * nx + col``, already filtered to in-grid points) and a value per
segment, produce per-cell statistics over the whole grid:

* :func:`cell_statistics` — count / mean / median / std / MAD per cell;
* :func:`cell_class_counts` — per-(class, cell) segment counts, the basis
  of the Level-3 class-fraction layers.

Per-cell conventions (shared with the oracles, asserted in
``tests/test_kernels_gridding.py``):

* **values must be finite** — NaN/inf segments must be filtered out before
  binning (``Level3Processor`` masks them with ``np.isfinite``); kernels
  and oracles reject non-finite values loudly rather than letting the sort-
  based and reduction-based paths silently disagree on NaN placement;
* an **empty cell** has count 0 and NaN mean/median/std/MAD;
* a **single-segment cell** has std 0.0 and MAD 0.0 (population statistics,
  ``ddof=0``) — never garbage from a degenerate reduction;
* ``std`` is the population standard deviation (``np.std`` semantics);
* ``median`` of an even-sized cell is the mean of the two middle values
  (``np.median`` semantics); MAD is the median absolute deviation from the
  cell median.

The oracles (:mod:`repro.kernels.reference`) group segments by cell once
and then run the plain per-cell recipe (``np.mean``/``np.median``/
``np.std``) one cell at a time.  The kernels compute every cell
simultaneously: counts, sums and squared deviations via ``np.bincount``,
medians and MADs via one ``np.lexsort`` per statistic with per-cell run
boundaries derived from the counts, and class counts via a single
composite-key ``(cell, class)`` bincount.  The median/MAD paths are
bit-identical to the oracles; the mean/std paths agree to summation-order
rounding (well inside the 1e-10 equivalence tolerance).
"""

from __future__ import annotations

import numpy as np

from repro.kernels._segments import segmented_median


def _prepare(
    cell_index: np.ndarray, values: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(cell_index)
    vals = np.asarray(values, dtype=float)
    if idx.ndim != 1 or vals.ndim != 1 or idx.shape != vals.shape:
        raise ValueError("cell_index and values must be 1-D arrays of equal length")
    if n_cells < 1:
        raise ValueError("n_cells must be positive")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n_cells):
        raise ValueError(
            "cell_index out of range: filter points with GridDefinition.flat_index "
            "(drop the -1 entries) before binning"
        )
    if vals.size and not np.isfinite(vals).all():
        # NaN sorts differently than it reduces: the lexsort-median path and
        # np.median would silently disagree, so enforce the finite-values
        # contract identically in the kernels and the oracles.
        raise ValueError(
            "values must be finite: mask NaN/inf segments (np.isfinite) before binning"
        )
    return idx, vals


def cell_statistics(
    cell_index: np.ndarray, values: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (count, mean, median, std, MAD) with bincount/lexsort reductions."""
    idx, vals = _prepare(cell_index, values, n_cells)
    count = np.bincount(idx, minlength=n_cells)
    occupied = count > 0
    sums = np.bincount(idx, weights=vals, minlength=n_cells)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(occupied, sums / count, np.nan)
        deviation = vals - mean[idx]
        var = np.where(
            occupied,
            np.bincount(idx, weights=deviation * deviation, minlength=n_cells) / count,
            np.nan,
        )
    std = np.sqrt(var)
    median = segmented_median(idx, vals, count)
    with np.errstate(invalid="ignore"):
        abs_deviation = np.abs(vals - median[idx])
    mad = segmented_median(idx, abs_deviation, count)
    return count, mean, median, std, mad


def cell_class_counts(
    cell_index: np.ndarray, labels: np.ndarray, n_cells: int, n_classes: int
) -> np.ndarray:
    """Per-(class, cell) counts with one composite-key bincount."""
    idx, _ = _prepare(cell_index, np.zeros_like(cell_index, dtype=float), n_cells)
    lab = _validated_labels(labels, idx, n_classes)
    composite = idx * np.int64(n_classes) + lab
    counts = np.bincount(composite, minlength=n_cells * n_classes)
    return np.ascontiguousarray(counts.reshape(n_cells, n_classes).T)


def _validated_labels(labels: np.ndarray, idx: np.ndarray, n_classes: int) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.shape != idx.shape:
        raise ValueError("labels must align with cell_index")
    if n_classes < 1:
        raise ValueError("n_classes must be positive")
    lab = lab.astype(np.int64, copy=False)
    if lab.size and (int(lab.min()) < 0 or int(lab.max()) >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return lab
