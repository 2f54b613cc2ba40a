"""Shared segmented-array helpers for the kernel backends."""

from __future__ import annotations

import numpy as np


def cumsum0(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]`` — group offsets from group sizes."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def group_median_sorted(
    values: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Median per group over values already sorted within each group.

    Matches ``np.median`` exactly: the middle element for odd counts, the
    mean of the two middle elements for even counts.  Empty groups get NaN.
    ``np.median`` averages through ``np.mean``, whose sum starts from +0.0,
    so a lone middle element is returned as is (no ``x + x`` overflow) and a
    zero median is always +0.0.
    """
    med = np.full(counts.size, np.nan)
    nz = counts > 0
    lo = offsets[:-1][nz] + (counts[nz] - 1) // 2
    hi = offsets[:-1][nz] + counts[nz] // 2
    lo_values, hi_values = values[lo], values[hi]
    med[nz] = np.where(lo == hi, lo_values, (lo_values + hi_values) / 2.0) + 0.0
    return med


def segmented_median(keys: np.ndarray, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Median of ``values`` per group id in ``keys`` (``np.median`` semantics).

    ``counts`` is the per-group occupancy (``np.bincount(keys)``, one entry
    per group); empty groups get NaN.  One ``np.lexsort`` by (group, value)
    makes every group a contiguous sorted run.  NaN sorts last within its
    run, so a group holding a NaN needs the caller's own handling.
    """
    order = np.lexsort((values, keys))
    return group_median_sorted(values[order], cumsum0(counts), counts)
