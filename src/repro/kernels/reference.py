"""Reference loops of the kernels: the test oracles, never run by the pipeline.

Each kernel module in :mod:`repro.kernels` has one implementation, the
vectorized one, under its public name.  This module holds the loops those
kernels were derived from — one window, bin, cell, candidate or timestep at
a time — as the ground truth they are tested against
(``tests/test_kernels_equivalence.py`` and the per-kernel suites: exact
agreement for the drift, resampling, random-field and pyramid kernels, 1e-10
elsewhere) and benchmarked against (``benchmarks/bench_kernels.py``).

No module of the library imports this one.  To run a whole path on the
oracles, enter :func:`oracles`::

    from repro.kernels.reference import oracles

    with oracles():
        run_end_to_end(config)  # every kernel call runs its reference loop
"""

from __future__ import annotations

from contextlib import contextmanager
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.config import CLASS_UNLABELED
from repro.kernels import (
    confidence,
    drift,
    gridding,
    lstm,
    pyramid,
    random_field,
    resampling,
    sea_surface,
)
from repro.kernels.drift import alignment_score
from repro.kernels.lstm import _check_activation, cell_activation
from repro.kernels.pyramid import reduced_shape
from repro.kernels.sea_surface import (
    LEAD_MAX_GAP_M,
    nasa_lead_height_arrays,
    nasa_reference_height_arrays,
)

if TYPE_CHECKING:
    from repro.sentinel2.scene import S2Image

# ---------------------------------------------------------------------------
# confidence: one np.histogram per bin
# ---------------------------------------------------------------------------


def modal_height_per_bin_reference(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    bin_edges: np.ndarray,
    height_resolution_m: float,
) -> np.ndarray:
    """Modal photon height per along-track bin, one ``np.histogram`` per bin."""
    n_bins = bin_edges.shape[0] - 1
    modal = np.full(n_bins, np.nan)
    bin_idx, heights = confidence._valid_photons(along_track_m, height_m, bin_edges, n_bins)
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


# ---------------------------------------------------------------------------
# drift: one alignment_score call per candidate
# ---------------------------------------------------------------------------


def drift_search_reference(
    class_map: np.ndarray,
    image: S2Image,
    seg_x: np.ndarray,
    seg_y: np.ndarray,
    seg_height: np.ndarray,
    dxs: np.ndarray,
    dys: np.ndarray,
) -> tuple[float, float, float, int]:
    """Best candidate shift via one :func:`alignment_score` call per candidate."""
    best = (-np.inf, 0.0, 0.0)
    count = 0
    for dx in dxs:
        for dy in dys:
            count += 1
            score = alignment_score(class_map, image, seg_x, seg_y, seg_height, dx, dy)
            if score > best[0]:
                best = (score, float(dx), float(dy))
    return best[1], best[2], best[0], count


# ---------------------------------------------------------------------------
# gridding: the per-cell recipe, one occupied cell at a time
# ---------------------------------------------------------------------------


def _group_bounds(sorted_idx: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal indices, with a trailing stop."""
    if sorted_idx.size == 0:
        return np.array([0], dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, np.diff(sorted_idx) > 0])
    return np.append(starts, sorted_idx.size)


def cell_statistics_reference(
    cell_index: np.ndarray, values: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (count, mean, median, std, MAD), looping over occupied cells."""
    idx, vals = gridding._prepare(cell_index, values, n_cells)
    count = np.zeros(n_cells, dtype=np.int64)
    mean = np.full(n_cells, np.nan)
    median = np.full(n_cells, np.nan)
    std = np.full(n_cells, np.nan)
    mad = np.full(n_cells, np.nan)

    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    sorted_vals = vals[order]
    bounds = _group_bounds(sorted_idx)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        cell = int(sorted_idx[start])
        members = sorted_vals[start:stop]
        count[cell] = members.size
        mean[cell] = float(np.mean(members))
        med = float(np.median(members))
        median[cell] = med
        std[cell] = float(np.std(members))
        mad[cell] = float(np.median(np.abs(members - med)))
    return count, mean, median, std, mad


def cell_class_counts_reference(
    cell_index: np.ndarray, labels: np.ndarray, n_cells: int, n_classes: int
) -> np.ndarray:
    """Per-(class, cell) counts of shape (n_classes, n_cells), cell loop."""
    idx, _ = gridding._prepare(cell_index, np.zeros_like(cell_index, dtype=float), n_cells)
    lab = gridding._validated_labels(labels, idx, n_classes)
    counts = np.zeros((n_classes, n_cells), dtype=np.int64)

    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    sorted_lab = lab[order]
    bounds = _group_bounds(sorted_idx)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        cell = int(sorted_idx[start])
        members = sorted_lab[start:stop]
        for k in range(n_classes):
            counts[k, cell] = int(np.count_nonzero(members == k))
    return counts


# ---------------------------------------------------------------------------
# lstm: every projection inside the time loop
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (boolean-indexed formulation)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def elu_grad(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def cell_activation_grad(c: np.ndarray, activation: str) -> np.ndarray:
    if activation == "elu":
        return elu_grad(c)
    return 1.0 - np.tanh(c) ** 2


def lstm_forward_reference(
    x: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray, activation: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass with one input GEMM and one recurrent GEMM per timestep."""
    _check_activation(activation)
    batch, T, _ = x.shape
    H = U.shape[0]
    h = np.zeros((batch, H))
    c = np.zeros((batch, H))
    hs = np.zeros((batch, T + 1, H))
    cs = np.zeros((batch, T + 1, H))
    gates = np.zeros((batch, T, 4 * H))
    for t in range(T):
        z = x[:, t, :] @ W + h @ U + b
        f = sigmoid(z[:, :H])
        i = sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = sigmoid(z[:, 3 * H:])
        c = f * c + i * g
        h = o * cell_activation(c, activation)
        gates[:, t, :H] = f
        gates[:, t, H:2 * H] = i
        gates[:, t, 2 * H:3 * H] = g
        gates[:, t, 3 * H:] = o
        hs[:, t + 1, :] = h
        cs[:, t + 1, :] = c
    return hs, cs, gates


def lstm_backward_reference(
    dh_seq: np.ndarray,
    x: np.ndarray,
    hs: np.ndarray,
    cs: np.ndarray,
    gates: np.ndarray,
    W: np.ndarray,
    U: np.ndarray,
    activation: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass accumulating the weight gradients one timestep at a time."""
    _check_activation(activation)
    batch, T, _ = x.shape
    H = U.shape[0]
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dx = np.zeros_like(x)
    dh_next = np.zeros((batch, H))
    dc_next = np.zeros((batch, H))
    for t in range(T - 1, -1, -1):
        f = gates[:, t, :H]
        i = gates[:, t, H:2 * H]
        g = gates[:, t, 2 * H:3 * H]
        o = gates[:, t, 3 * H:]
        c = cs[:, t + 1, :]
        c_prev = cs[:, t, :]
        h_prev = hs[:, t, :]

        dh = dh_seq[:, t, :] + dh_next
        phi_c = cell_activation(c, activation)
        dc = dh * o * cell_activation_grad(c, activation) + dc_next

        do = dh * phi_c
        df = dc * c_prev
        di = dc * g
        dg = dc * i

        dzf = df * f * (1.0 - f)
        dzi = di * i * (1.0 - i)
        dzg = dg * (1.0 - g**2)
        dzo = do * o * (1.0 - o)
        dz = np.concatenate([dzf, dzi, dzg, dzo], axis=1)

        dW += x[:, t, :].T @ dz
        dU += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ W.T
        dh_next = dz @ U.T
        dc_next = dc * f
    return dx, dW, dU, db


# ---------------------------------------------------------------------------
# pyramid: the per-output-cell recipe
# ---------------------------------------------------------------------------


def reduce_mean_reference(
    values: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted 2x2 reduction, looping over output cells."""
    vals, wts = pyramid._prepare(values, weights)
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
# random_field: the full-spectrum inverse transform
# ---------------------------------------------------------------------------


def inverse_reference(spectrum: np.ndarray, n_cols: int, nx: int) -> np.ndarray:
    """The full-spectrum inverse transform of a drawn half-spectrum."""
    return np.fft.irfft2(spectrum, s=(spectrum.shape[0], nx), norm="ortho")


# ---------------------------------------------------------------------------
# resampling: one window at a time
# ---------------------------------------------------------------------------


def grouped_median_reference(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-window ``np.median`` over the non-empty windows."""
    out = np.full(boundaries.shape[0] - 1, np.nan)
    for i in np.flatnonzero(np.diff(boundaries) > 0):
        out[i] = np.median(values[boundaries[i] : boundaries[i + 1]])
    return out


def grouped_majority_reference(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-window most frequent code via ``np.unique`` counts."""
    out = np.full(boundaries.shape[0] - 1, CLASS_UNLABELED, dtype=values.dtype)
    for i in np.flatnonzero(np.diff(boundaries) > 0):
        vals, cnts = np.unique(values[boundaries[i] : boundaries[i + 1]], return_counts=True)
        out[i] = vals[np.argmax(cnts)]
    return out


# ---------------------------------------------------------------------------
# sea_surface: one window at a time
# ---------------------------------------------------------------------------


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
# The oracle table and the context manager that installs it
# ---------------------------------------------------------------------------

#: Each kernel entry point, as ``(module, name)``, and its reference loop.
ORACLES: dict[tuple[ModuleType, str], Callable] = {
    (confidence, "modal_height_per_bin"): modal_height_per_bin_reference,
    (drift, "drift_search"): drift_search_reference,
    (gridding, "cell_statistics"): cell_statistics_reference,
    (gridding, "cell_class_counts"): cell_class_counts_reference,
    (lstm, "lstm_forward"): lstm_forward_reference,
    (lstm, "lstm_backward"): lstm_backward_reference,
    (pyramid, "reduce_mean"): reduce_mean_reference,
    (pyramid, "reduce_coverage"): reduce_coverage_reference,
    (random_field, "inverse"): inverse_reference,
    (resampling, "grouped_median"): grouped_median_reference,
    (resampling, "grouped_majority"): grouped_majority_reference,
    (sea_surface, "window_estimates"): window_estimates_reference,
}


@contextmanager
def oracles() -> Iterator[None]:
    """Run every kernel entry point on its reference loop inside the block.

    Sets each :data:`ORACLES` function onto its kernel module's entry-point
    name, and puts the original back on exit, also when the block raises.
    Every library caller reaches a kernel through its module attribute
    (``kpyramid.reduce_mean(...)``), so the swap reaches them all.

    The swap is a module attribute of the calling process: it holds for
    that process and its threads only.  Process-pool workers keep their
    own modules and run the vectorized kernels.
    """
    originals = {(module, name): getattr(module, name) for module, name in ORACLES}
    try:
        for (module, name), oracle in ORACLES.items():
            setattr(module, name, oracle)
        yield
    finally:
        for (module, name), original in originals.items():
            setattr(module, name, original)
