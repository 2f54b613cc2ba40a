"""ATL03 per-bin modal surface-height kernels (reference loop + vectorized).

Both backends share the same per-bin semantics (the satellite-fix contract of
:func:`repro.atl03.confidence._modal_height_per_bin`):

* photons with non-finite heights never enter surface finding;
* a bin with no (finite) photons gets NaN;
* a bin with a single photon returns that photon's height directly — it can
  never reach ``np.histogram`` with a degenerate zero-width range;
* a bin whose height span is narrower than ``height_resolution_m`` returns
  the median height (histogramming below the resolution is meaningless);
* otherwise the bin is histogrammed at ``height_resolution_m`` and the centre
  of the most populated height cell (first cell on ties) is returned.

The reference backend histograms one bin at a time with ``np.histogram``.
The vectorized backend assigns every photon a composite ``(bin, height-cell)``
key and builds *all* per-bin histograms with a single ``np.bincount``; the
cell assignment reproduces numpy's uniform-bin algorithm (truncated scaled
index plus the ±1 ULP edge corrections against ``linspace`` edges) so the two
backends agree bit-for-bit even for photons exactly on a cell edge.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend
from repro.kernels._segments import cumsum0 as _cumsum0


def _searchsorted_bins(along_track_m: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    return np.searchsorted(bin_edges, along_track_m, side="right") - 1


def _fast_bins(along_track_m: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Bin indices identical to ``searchsorted(edges, x, 'right') - 1``.

    For (near-)uniform strictly-increasing edges the index is computed
    arithmetically and corrected against the actual edge values, so it is
    bit-exact; photons the corrections cannot place (non-finite positions,
    pathologically non-uniform edges) fall back to ``searchsorted``.
    """
    n_bins = bin_edges.size - 1
    span = bin_edges[-1] - bin_edges[0]
    if n_bins < 1 or not np.isfinite(span) or span <= 0:
        return _searchsorted_bins(along_track_m, bin_edges)
    guess = ((along_track_m - bin_edges[0]) / span) * n_bins
    finite = np.isfinite(guess)
    k = np.clip(np.where(finite, guess, 0.0), 0, n_bins - 1).astype(np.int64)
    k -= (along_track_m < bin_edges[k]) & (k > 0)
    k += (along_track_m >= bin_edges[k + 1]) & (k < n_bins - 1)
    below = along_track_m < bin_edges[0]
    above = along_track_m >= bin_edges[-1]
    inside = (along_track_m >= bin_edges[k]) & (along_track_m < bin_edges[k + 1])
    k[below] = -1
    k[above] = n_bins
    bad = np.flatnonzero(~(inside | below | above))
    if bad.size:
        k[bad] = _searchsorted_bins(along_track_m[bad], bin_edges)
    return k


def _valid_photons(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    bin_edges: np.ndarray,
    n_bins: int,
    fast_bins: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Bin index and height of the photons that participate in surface finding."""
    if fast_bins and np.all(np.diff(bin_edges) > 0):
        bin_idx = _fast_bins(along_track_m, bin_edges)
    else:
        bin_idx = _searchsorted_bins(along_track_m, bin_edges)
    valid = (bin_idx >= 0) & (bin_idx < n_bins) & np.isfinite(height_m)
    if valid.all():
        return bin_idx, height_m
    idx = np.flatnonzero(valid)
    return bin_idx[idx], height_m[idx]


def modal_height_per_bin_reference(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    bin_edges: np.ndarray,
    height_resolution_m: float,
) -> np.ndarray:
    """Modal photon height per along-track bin, one ``np.histogram`` per bin."""
    n_bins = bin_edges.shape[0] - 1
    modal = np.full(n_bins, np.nan)
    bin_idx, heights = _valid_photons(along_track_m, height_m, bin_edges, n_bins)
    if bin_idx.size == 0:
        return modal
    order = np.argsort(bin_idx, kind="stable")
    bin_idx = bin_idx[order]
    heights = heights[order]
    boundaries = np.searchsorted(bin_idx, np.arange(n_bins + 1))
    for b in range(n_bins):
        lo, hi = boundaries[b], boundaries[b + 1]
        if hi <= lo:
            continue
        h = heights[lo:hi]
        if h.size == 1:
            # A single photon *is* the surface estimate; returning early keeps
            # degenerate zero-width ranges away from np.histogram.
            modal[b] = float(h[0])
            continue
        h_min, h_max = h.min(), h.max()
        if h_max - h_min < height_resolution_m:
            # The whole bin fits inside one height cell: the median is the
            # best available mode estimate.
            modal[b] = float(np.median(h))
            continue
        n_cells = max(int(np.ceil((h_max - h_min) / height_resolution_m)), 1)
        counts, edges = np.histogram(h, bins=n_cells)
        peak = int(np.argmax(counts))
        modal[b] = 0.5 * (edges[peak] + edges[peak + 1])
    return modal


def modal_height_per_bin_vectorized(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    bin_edges: np.ndarray,
    height_resolution_m: float,
) -> np.ndarray:
    """Modal photon height per bin via one ``np.bincount`` over composite keys."""
    n_bins = bin_edges.shape[0] - 1
    modal = np.full(n_bins, np.nan)
    bin_idx, heights = _valid_photons(
        along_track_m, height_m, bin_edges, n_bins, fast_bins=True
    )
    if bin_idx.size == 0:
        return modal

    # Group photons by bin.  ATL03 photon streams arrive in along-track
    # order, so the bin indices are usually already non-decreasing and the
    # sort becomes a no-op; the stable argsort fallback covers shuffled data.
    if np.all(bin_idx[1:] >= bin_idx[:-1]):
        b, h = bin_idx, heights
    else:
        order = np.argsort(bin_idx, kind="stable")
        b = bin_idx[order]
        h = heights[order]
    counts = np.bincount(b, minlength=n_bins)
    offsets = _cumsum0(counts)
    occupied = counts > 0
    seg_starts = offsets[:-1][occupied]
    h_min = np.full(n_bins, np.nan)
    h_max = np.full(n_bins, np.nan)
    h_min[occupied] = np.minimum.reduceat(h, seg_starts)
    h_max[occupied] = np.maximum.reduceat(h, seg_starts)

    # Narrow bins (including single-photon bins, whose span is zero) take the
    # median of their height-sorted photons; only those photons get sorted.
    span = h_max - h_min
    narrow = occupied & (span < height_resolution_m)
    if narrow.any():
        in_narrow = narrow[b]
        nb = b[in_narrow]
        nh = h[in_narrow]
        rank = np.empty(nh.size, dtype=np.int64)
        rank[np.argsort(nh)] = np.arange(nh.size)
        nh_sorted = nh[np.argsort(nb * nh.size + rank)]
        n_counts = counts[narrow]
        n_offsets = _cumsum0(n_counts)
        lo = n_offsets[:-1] + (n_counts - 1) // 2
        hi = n_offsets[:-1] + n_counts // 2
        modal[narrow] = (nh_sorted[lo] + nh_sorted[hi]) / 2.0

    hist = occupied & ~narrow
    if not hist.any():
        return modal

    # One composite-key bincount builds every per-bin histogram at once.
    n_cells = np.zeros(n_bins, dtype=np.int64)
    n_cells[hist] = np.maximum(
        np.ceil(span[hist] / height_resolution_m).astype(np.int64), 1
    )
    cell_offsets = _cumsum0(n_cells)
    total_cells = int(cell_offsets[-1])

    # Every photon's bin is occupied, so when no bin is narrow the histogram
    # set is the whole photon stream and the filter is a no-op.
    if narrow.any():
        in_hist = np.flatnonzero(hist[b])
        hb = b[in_hist]
        hh = h[in_hist]
    else:
        hb = b
        hh = h
    first = h_min[hb]
    delta = span[hb]
    cells_b = n_cells[hb]
    # linspace edge k of a bin is k * (delta / n) + first, with the final edge
    # forced to the maximum — exactly what np.histogram compares against.
    step = delta / cells_b

    # numpy's uniform-bin assignment: truncate the scaled index, then apply
    # the ±1 ULP corrections against the actual edges.  Edge k of a bin is
    # k * (span / n) + h_min, with the final edge forced to h_max — exactly
    # the linspace edges np.histogram compares against.
    idx = (((hh - first) / delta) * cells_b).astype(np.int64)
    idx[idx == cells_b] -= 1
    # idx is in [0, n); all photons sit at or above their bin's first edge,
    # so the decrement can never push below zero and edge(idx) never needs
    # the forced-endpoint branch.
    idx[hh < idx * step + first] -= 1
    edge_next = np.where(idx + 1 == cells_b, h_max[hb], (idx + 1) * step + first)
    idx += (hh >= edge_next) & (idx != cells_b - 1)

    keys = cell_offsets[hb] + idx
    cell_counts = np.bincount(keys, minlength=total_cells)

    # Most-populated cell per bin, first cell on ties: take the per-bin max,
    # then the first cell index attaining it (the equality set is sparse).
    hist_bins = np.flatnonzero(hist)
    seg_offsets = cell_offsets[hist_bins]
    peak_max = np.maximum.reduceat(cell_counts, seg_offsets)
    candidates = np.flatnonzero(cell_counts == np.repeat(peak_max, n_cells[hist_bins]))
    cand_rank = np.searchsorted(seg_offsets, candidates, side="right") - 1
    first_of_rank = np.flatnonzero(np.diff(cand_rank, prepend=-1) != 0)
    peak = candidates[first_of_rank] - seg_offsets

    bin_step = span[hist_bins] / n_cells[hist_bins]
    bin_first = h_min[hist_bins]
    edge_lo = peak * bin_step + bin_first
    edge_hi = np.where(
        peak + 1 == n_cells[hist_bins], h_max[hist_bins], (peak + 1) * bin_step + bin_first
    )
    modal[hist_bins] = 0.5 * (edge_lo + edge_hi)
    return modal


def modal_height_per_bin(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    bin_edges: np.ndarray,
    height_resolution_m: float,
) -> np.ndarray:
    """Dispatch to the active kernel backend."""
    impl = (
        modal_height_per_bin_vectorized
        if get_backend() == "vectorized"
        else modal_height_per_bin_reference
    )
    return impl(along_track_m, height_m, bin_edges, height_resolution_m)
