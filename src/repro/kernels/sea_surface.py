"""Windowed sea-surface estimation kernels (reference loop + vectorized).

Both backends implement the same contract: given the open-water candidate
segments of a track (sorted by along-track position) and the window grid,
produce per-window sea-surface heights, errors and surviving segment counts
for one of the four estimation methods
(:data:`repro.freeboard.sea_surface.SEA_SURFACE_METHODS`).

The per-window recipe (shared by both backends, and by the operational ATBD):

1. select the window's segments with two ``searchsorted`` bounds;
2. reject outliers farther than ``max(3 * 1.4826 * MAD, 0.25 m)`` from the
   window's median water height;
3. if at least ``min_segments`` survive, estimate the window height/error
   with the requested method, otherwise emit NaN.

The reference backend runs that recipe one window at a time; the vectorized
backend expands the (window, segment) membership once — segments appear in
``ceil(window / step)`` windows at most, so the expansion is bounded — and
then computes every step for *all* windows simultaneously with segmented
sorts, ``np.bincount`` weighted reductions and ``reduceat``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend
from repro.kernels._segments import cumsum0 as _cumsum0
from repro.kernels._segments import group_median_sorted as _group_median_sorted

#: Along-track gap (m) above which open-water segments belong to separate leads.
LEAD_MAX_GAP_M = 100.0

#: Floor applied to candidate/lead errors before the NASA inverse weighting.
MIN_SIGMA = 1e-6


# ---------------------------------------------------------------------------
# Scalar building blocks (shared by the reference loop and the public API in
# repro.freeboard.sea_surface)
# ---------------------------------------------------------------------------


def nasa_lead_height_arrays(
    heights_m: np.ndarray, errors_m: np.ndarray
) -> tuple[float, float]:
    """Paper eq. (2): error-weighted lead height of one lead's candidates."""
    h = heights_m
    sigma = np.where(errors_m > MIN_SIGMA, errors_m, MIN_SIGMA)
    h_min = h.min()
    w = np.exp(-(((h - h_min) / sigma) ** 2))
    total = w.sum()
    if total <= 0:
        w = np.full(h.shape, 1.0 / h.size)
    else:
        w = w / total
    lead_height = float(np.sum(w * h))
    lead_error = float(np.sqrt(np.sum(w**2 * sigma**2)))
    return lead_height, lead_error


def nasa_reference_height_arrays(
    lead_heights_m: np.ndarray, lead_errors_m: np.ndarray
) -> tuple[float, float]:
    """Paper eq. (3): inverse-variance combination of a window's leads."""
    sigma = np.where(lead_errors_m > MIN_SIGMA, lead_errors_m, MIN_SIGMA)
    inv_var = 1.0 / sigma**2
    a = inv_var / inv_var.sum()
    ref_height = float(np.sum(a * lead_heights_m))
    ref_error = float(np.sqrt(np.sum(a**2 * sigma**2)))
    return ref_height, ref_error


def group_leads(along_m: np.ndarray, max_gap_m: float = LEAD_MAX_GAP_M) -> list[np.ndarray]:
    """Group open-water segment indices into leads by along-track proximity."""
    if along_m.size == 0:
        return []
    order = np.argsort(along_m)
    sorted_along = along_m[order]
    breaks = np.flatnonzero(np.diff(sorted_along) > max_gap_m) + 1
    return [np.asarray(g) for g in np.split(order, breaks)]


def window_estimate_scalar(
    method: str,
    along_m: np.ndarray,
    heights_m: np.ndarray,
    errors_m: np.ndarray,
    center_m: float,
) -> tuple[float, float]:
    """Sea-surface height and error of one window from its open-water segments."""
    if method == "minimum":
        idx = int(np.argmin(heights_m))
        return float(heights_m[idx]), float(errors_m[idx])
    if method == "average":
        return float(heights_m.mean()), float(heights_m.std() / np.sqrt(heights_m.size))
    if method == "nearest_minimum":
        threshold = np.quantile(heights_m, 0.25)
        candidates = np.flatnonzero(heights_m <= threshold)
        nearest = candidates[np.argmin(np.abs(along_m[candidates] - center_m))]
        return float(heights_m[nearest]), float(errors_m[nearest])
    if method == "nasa":
        leads = group_leads(along_m)
        lead_heights = np.empty(len(leads))
        lead_errors = np.empty(len(leads))
        for k, lead_idx in enumerate(leads):
            lead_heights[k], lead_errors[k] = nasa_lead_height_arrays(
                heights_m[lead_idx], errors_m[lead_idx]
            )
        return nasa_reference_height_arrays(lead_heights, lead_errors)
    raise ValueError(f"unknown sea-surface method {method!r}")


# ---------------------------------------------------------------------------
# Reference backend: one window at a time
# ---------------------------------------------------------------------------


def window_estimates_reference(
    along_m: np.ndarray,
    height_m: np.ndarray,
    error_m: np.ndarray,
    starts_m: np.ndarray,
    stops_m: np.ndarray,
    centers_m: np.ndarray,
    method: str,
    min_segments: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window estimates via the original Python loop (ground truth)."""
    n_windows = starts_m.size
    out_h = np.full(n_windows, np.nan)
    out_e = np.full(n_windows, np.nan)
    counts = np.zeros(n_windows, dtype=np.int64)
    for i in range(n_windows):
        lo = int(np.searchsorted(along_m, starts_m[i], side="left"))
        hi = int(np.searchsorted(along_m, stops_m[i], side="right"))
        w_along = along_m[lo:hi]
        w_height = height_m[lo:hi]
        w_error = error_m[lo:hi]
        if w_height.size:
            median = np.median(w_height)
            mad = np.median(np.abs(w_height - median))
            tolerance = max(3.0 * 1.4826 * mad, 0.25)
            keep = np.abs(w_height - median) <= tolerance
            w_along, w_height, w_error = w_along[keep], w_height[keep], w_error[keep]
        counts[i] = w_height.size
        if counts[i] >= min_segments:
            out_h[i], out_e[i] = window_estimate_scalar(
                method, w_along, w_height, w_error, centers_m[i]
            )
    return out_h, out_e, counts


# ---------------------------------------------------------------------------
# Vectorized backend: all windows at once
# ---------------------------------------------------------------------------


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linear interpolation identical to numpy's quantile ``_lerp``."""
    diff = b - a
    out = a + diff * t
    return np.where(t >= 0.5, b - diff * (1 - t), out)


def _group_kth_absdev(
    sorted_h: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    med: np.ndarray,
    k: np.ndarray,
) -> np.ndarray:
    """k-th smallest ``|h - med|`` per group, without sorting the deviations.

    ``sorted_h`` holds each group's heights in ascending order; ``starts``
    and ``counts`` describe non-empty groups.  The k + 1 elements nearest the
    group median form a contiguous run in that order, so the k-th order
    statistic of the deviations is ``min_i max(med - h[i], h[i + k] - med)``
    over run starts ``i`` — the left term is non-increasing and the right
    non-decreasing, so the crossing is found by vectorized binary search
    (one gather per iteration, all groups at once).
    """
    lo = np.zeros(counts.size, dtype=np.int64)
    hi = counts - 1 - k
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        left = med - sorted_h[starts + mid]
        right = sorted_h[starts + mid + k] - med
        cond = left <= right
        hi = np.where(active & cond, mid, hi)
        lo = np.where(active & ~cond, mid + 1, lo)

    def run_max(i: np.ndarray) -> np.ndarray:
        return np.maximum(med - sorted_h[starts + i], sorted_h[starts + i + k] - med)

    best = run_max(lo)
    has_prev = lo > 0
    prev = run_max(np.maximum(lo - 1, 0))
    return np.where(has_prev, np.minimum(best, prev), best)


def _group_min_first(
    values: np.ndarray, win: np.ndarray, offsets: np.ndarray, nonzero: np.ndarray
) -> np.ndarray:
    """Index of the first element attaining each group's minimum value.

    Groups are contiguous runs of ``win``; only groups flagged ``nonzero``
    (non-empty) get an entry.  Ties resolve to the earliest element, exactly
    like ``np.argmin`` over the group slice.
    """
    seg_starts = offsets[:-1][nonzero]
    group_min = np.minimum.reduceat(values, seg_starts)
    slot = np.cumsum(nonzero) - 1  # window -> reduceat slot
    is_min = values == group_min[slot[win]]
    candidates = np.where(is_min, np.arange(values.size), values.size)
    return np.minimum.reduceat(candidates, seg_starts)


def window_estimates_vectorized(
    along_m: np.ndarray,
    height_m: np.ndarray,
    error_m: np.ndarray,
    starts_m: np.ndarray,
    stops_m: np.ndarray,
    centers_m: np.ndarray,
    method: str,
    min_segments: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window estimates with every step computed across all windows at once."""
    if method not in ("minimum", "average", "nearest_minimum", "nasa"):
        raise ValueError(f"unknown sea-surface method {method!r}")
    n_windows = starts_m.size
    out_h = np.full(n_windows, np.nan)
    out_e = np.full(n_windows, np.nan)

    # (window, segment) membership via searchsorted bounds.  Because windows
    # overlap, a segment may appear in several windows; the expansion factor
    # is bounded by ceil(window_length / step).
    lo = np.searchsorted(along_m, starts_m, side="left")
    hi = np.searchsorted(along_m, stops_m, side="right")
    sizes = (hi - lo).astype(np.int64)
    total = int(sizes.sum())
    if total == 0:
        return out_h, out_e, np.zeros(n_windows, dtype=np.int64)

    win = np.repeat(np.arange(n_windows), sizes)
    offsets = _cumsum0(sizes)
    member = np.arange(total) + np.repeat(lo - offsets[:-1], sizes)
    h = height_m[member]

    # Heights sorted within each window, via a single quicksort of unique
    # integer keys: rank every base segment's height once, then sort
    # window-major composite keys.  (Unstable sort is fine — the sorted view
    # only ever feeds order statistics, which are tie-independent.)
    n_base = along_m.size
    rank = np.empty(n_base, dtype=np.int64)
    rank[np.argsort(height_m)] = np.arange(n_base)
    key = win * n_base + rank[member]
    if n_windows * n_base < np.iinfo(np.int32).max:
        key = key.astype(np.int32)  # int32 quicksort is measurably faster
    perm = np.argsort(key)
    sorted_h = h[perm]

    # MAD outlier rejection, all windows at once.  The median comes from the
    # sorted view; the MAD is the median of |h - med|, computed as two
    # order statistics by binary search instead of a second segmented sort.
    nz = sizes > 0
    med = _group_median_sorted(sorted_h, offsets, sizes)
    mad = np.full(n_windows, np.nan)
    nz_starts = offsets[:-1][nz]
    nz_sizes = sizes[nz]
    nz_med = med[nz]
    d_lo = _group_kth_absdev(sorted_h, nz_starts, nz_sizes, nz_med, (nz_sizes - 1) // 2)
    d_hi = _group_kth_absdev(sorted_h, nz_starts, nz_sizes, nz_med, nz_sizes // 2)
    mad[nz] = (d_lo + d_hi) / 2.0
    absdev = np.abs(h - med[win])
    tolerance = np.maximum(3.0 * 1.4826 * mad, 0.25)
    keep = absdev <= tolerance[win]

    # The kept set is contiguous in height order (|h - med| <= tol selects a
    # run of sorted heights), so filtering both views keeps them consistent.
    # Errors and positions are only gathered for the surviving members.
    kept = np.flatnonzero(keep)
    win_k = win[kept]
    h_k = h[kept]
    counts = np.bincount(win_k, minlength=n_windows)
    valid = counts >= min_segments
    if not valid.any() or win_k.size == 0:
        return out_h, out_e, counts
    member_k = member[kept]
    e_k = error_m[member_k]
    a_k = along_m[member_k]
    offsets_k = _cumsum0(counts)
    nonzero = counts > 0

    if method == "minimum":
        first = _group_min_first(h_k, win_k, offsets_k, nonzero)
        sel = first[(np.cumsum(nonzero) - 1)[valid]]
        out_h[valid] = h_k[sel]
        out_e[valid] = e_k[sel]
        return out_h, out_e, counts

    if method == "average":
        sums = np.bincount(win_k, weights=h_k, minlength=n_windows)
        safe = np.where(nonzero, counts, 1)
        mean = sums / safe
        sq = np.bincount(win_k, weights=(h_k - mean[win_k]) ** 2, minlength=n_windows)
        std = np.sqrt(sq / safe)
        out_h[valid] = mean[valid]
        out_e[valid] = (std / np.sqrt(safe))[valid]
        return out_h, out_e, counts

    if method == "nearest_minimum":
        # Lowest-quartile threshold per window, reproducing np.quantile's
        # linear interpolation over the kept (still height-sorted) run; then
        # the first candidate nearest the window centre.
        sorted_h_k = sorted_h[keep[perm]]
        pos = np.where(valid, 0.25 * (counts - 1), 0.0)
        base = np.floor(pos).astype(np.int64)
        t = pos - base
        upper = np.minimum(base + 1, np.maximum(counts - 1, 0))
        a_q = sorted_h_k[np.minimum(offsets_k[:-1] + base, h_k.size - 1)]
        b_q = sorted_h_k[np.minimum(offsets_k[:-1] + upper, h_k.size - 1)]
        threshold = np.where(valid, _lerp(a_q, b_q, t), np.inf)
        distance = np.where(h_k <= threshold[win_k], np.abs(a_k - centers_m[win_k]), np.inf)
        first = _group_min_first(distance, win_k, offsets_k, nonzero)
        sel = first[(np.cumsum(nonzero) - 1)[valid]]
        out_h[valid] = h_k[sel]
        out_e[valid] = e_k[sel]
        return out_h, out_e, counts

    # NASA: segment the kept membership (window-major, along-track sorted
    # within each window) into leads, then two weighted-bincount reductions —
    # candidates -> leads (eq. 2) and leads -> windows (eq. 3).
    new_window = np.empty(win_k.size, dtype=bool)
    new_window[0] = True
    np.not_equal(win_k[1:], win_k[:-1], out=new_window[1:])
    gap = np.empty(win_k.size, dtype=bool)
    gap[0] = False
    np.greater(a_k[1:] - a_k[:-1], LEAD_MAX_GAP_M, out=gap[1:])
    new_lead = new_window | gap
    lead_id = np.cumsum(new_lead) - 1
    n_leads = int(lead_id[-1]) + 1
    lead_start = np.flatnonzero(new_lead)
    lead_counts = np.diff(np.append(lead_start, win_k.size))
    lead_win = win_k[lead_start]

    sigma = np.maximum(e_k, MIN_SIGMA)
    h_min = np.minimum.reduceat(h_k, lead_start)
    w = np.exp(-(((h_k - h_min[lead_id]) / sigma) ** 2))
    w_total = np.bincount(lead_id, weights=w, minlength=n_leads)
    uniform = w_total <= 0
    if uniform.any():
        # Fully underflowed leads fall back to uniform weights (eq. 2).
        safe_total = np.where(uniform, 1.0, w_total)
        w_norm = np.where(
            uniform[lead_id], 1.0 / lead_counts[lead_id], w / safe_total[lead_id]
        )
    else:
        w_norm = w / w_total[lead_id]
    lead_h = np.bincount(lead_id, weights=w_norm * h_k, minlength=n_leads)
    lead_e = np.sqrt(np.bincount(lead_id, weights=w_norm**2 * sigma**2, minlength=n_leads))

    lead_sigma = np.where(lead_e > MIN_SIGMA, lead_e, MIN_SIGMA)
    inv_var = 1.0 / lead_sigma**2
    inv_total = np.bincount(lead_win, weights=inv_var, minlength=n_windows)
    safe_inv = np.where(inv_total > 0, inv_total, 1.0)
    a_w = inv_var / safe_inv[lead_win]
    ref_h = np.bincount(lead_win, weights=a_w * lead_h, minlength=n_windows)
    ref_e = np.sqrt(np.bincount(lead_win, weights=a_w**2 * lead_sigma**2, minlength=n_windows))
    out_h[valid] = ref_h[valid]
    out_e[valid] = ref_e[valid]
    return out_h, out_e, counts


def window_estimates(
    along_m: np.ndarray,
    height_m: np.ndarray,
    error_m: np.ndarray,
    starts_m: np.ndarray,
    stops_m: np.ndarray,
    centers_m: np.ndarray,
    method: str,
    min_segments: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch to the active kernel backend.

    Parameters
    ----------
    along_m, height_m, error_m:
        Open-water candidate segments, sorted by ``along_m``.
    starts_m, stops_m, centers_m:
        The window grid.
    method:
        One of the four sea-surface methods.
    min_segments:
        Minimum surviving open-water segments for a window estimate.

    Returns
    -------
    tuple
        ``(heights_m, errors_m, counts)`` arrays, one entry per window;
        windows below ``min_segments`` are NaN.
    """
    impl = (
        window_estimates_vectorized
        if get_backend() == "vectorized"
        else window_estimates_reference
    )
    return impl(
        along_m, height_m, error_m, starts_m, stops_m, centers_m, method, min_segments
    )
