"""Local sea-surface height estimation from open-water segments.

The paper evaluates four estimators of the local sea surface within 10 km
sliding windows (5 km overlap), using the segments classified as open water:

1. **minimum** — the minimum open-water elevation in the window;
2. **average** — the mean open-water elevation in the window;
3. **nearest-minimum** — the elevation of the open-water segment closest to
   the window centre among the lowest ones;
4. **nasa** — the ATL07/ATL10 ATBD formulation: open-water segments are
   grouped into *leads*, each lead's height is an error-weighted mean of its
   candidate segments (paper eq. 2), and the window's reference height is
   the inverse-variance weighted combination of its leads (paper eq. 3).

The paper selects the NASA formulation because it produces the smoothest sea
surface; the ablation benchmark quantifies that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CLASS_OPEN_WATER, DEFAULT_SEA_SURFACE, SeaSurfaceConfig
from repro.kernels import sea_surface as _kernels
from repro.utils.validation import ensure_1d, ensure_same_length

#: Names of the supported estimation methods.
SEA_SURFACE_METHODS = ("minimum", "average", "nearest_minimum", "nasa")


@dataclass
class WindowSeaSurface:
    """Sea-surface estimate of a single along-track window."""

    center_m: float
    start_m: float
    stop_m: float
    height_m: float
    error_m: float
    n_open_water: int
    interpolated: bool = False


@dataclass
class SeaSurfaceEstimate:
    """Sea-surface estimates for all windows along a track."""

    method: str
    windows: list[WindowSeaSurface]

    @property
    def centers_m(self) -> np.ndarray:
        return np.array([w.center_m for w in self.windows])

    @property
    def heights_m(self) -> np.ndarray:
        return np.array([w.height_m for w in self.windows])

    @property
    def errors_m(self) -> np.ndarray:
        return np.array([w.error_m for w in self.windows])

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.heights_m)

    def smoothness(self) -> float:
        """RMS of consecutive window-height differences (lower is smoother).

        This is the criterion the paper uses qualitatively ("a smoother local
        sea surface") to prefer the NASA formulation; NaN windows are skipped.
        """
        h = self.heights_m
        valid = np.isfinite(h)
        h = h[valid]
        if h.size < 2:
            return 0.0
        return float(np.sqrt(np.mean(np.diff(h) ** 2)))


# ---------------------------------------------------------------------------
# NASA ATBD lead / reference-height equations (paper eq. 2 and 3)
# ---------------------------------------------------------------------------


def nasa_lead_height(
    heights_m: np.ndarray, errors_m: np.ndarray
) -> tuple[float, float]:
    """Weighted lead height and error from candidate open-water segments.

    Implements the paper's equation (2): weights
    ``w_i = exp(-((h_i - h_min) / sigma_i)^2)`` normalised to sum to one,
    ``h_lead = sum(a_i h_i)`` and ``sigma^2_lead = sum(a_i^2 sigma_i^2)``.
    """
    h = ensure_1d(np.asarray(heights_m, dtype=float), "heights_m")
    sigma = ensure_1d(np.asarray(errors_m, dtype=float), "errors_m")
    ensure_same_length(h, sigma, names=("heights_m", "errors_m"))
    if h.size == 0:
        raise ValueError("a lead needs at least one candidate segment")
    if np.any(sigma < 0):
        raise ValueError("errors must be non-negative")
    return _kernels.nasa_lead_height_arrays(h, sigma)


def nasa_reference_height(
    lead_heights_m: np.ndarray, lead_errors_m: np.ndarray
) -> tuple[float, float]:
    """Window reference height from its leads (paper equation 3).

    Leads are combined with inverse-variance weights
    ``a_i = (1/sigma_i^2) / sum_j (1/sigma_j^2)``.
    """
    h = ensure_1d(np.asarray(lead_heights_m, dtype=float), "lead_heights_m")
    sigma = ensure_1d(np.asarray(lead_errors_m, dtype=float), "lead_errors_m")
    ensure_same_length(h, sigma, names=("lead_heights_m", "lead_errors_m"))
    if h.size == 0:
        raise ValueError("a window needs at least one lead")
    return _kernels.nasa_reference_height_arrays(h, sigma)


# ---------------------------------------------------------------------------
# Track-level estimation
# ---------------------------------------------------------------------------


def estimate_sea_surface(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    height_error_m: np.ndarray,
    labels: np.ndarray,
    method: str = "nasa",
    config: SeaSurfaceConfig = DEFAULT_SEA_SURFACE,
    fallback_lowest_quantile: float | None = 0.02,
) -> SeaSurfaceEstimate:
    """Estimate the local sea surface along a classified track.

    Parameters
    ----------
    along_track_m, height_m, height_error_m:
        Per-segment along-track position, mean height and height error
        (standard deviation of the 2 m segment).
    labels:
        Per-segment surface classes; only ``CLASS_OPEN_WATER`` segments
        contribute to the estimates.
    method:
        One of :data:`SEA_SURFACE_METHODS`.
    config:
        Window length / overlap configuration (10 km windows sliding by 5 km
        in the paper).
    fallback_lowest_quantile:
        If no window along the whole track contains enough open water (e.g.
        the classifier found no leads, or a coarse baseline product diluted
        them away), the segments whose heights fall in this lowest quantile
        are treated as sea-surface candidates instead, mirroring the
        operational products' lowest-surface fallback.  Pass ``None`` to
        disable and get all-NaN windows in that case.

    Returns
    -------
    SeaSurfaceEstimate
        One :class:`WindowSeaSurface` per window.  Windows with fewer than
        ``config.min_open_water_segments`` open-water segments get NaN
        heights; fill them with
        :func:`repro.freeboard.interpolation.interpolate_missing_windows`.
    """
    if method not in SEA_SURFACE_METHODS:
        raise ValueError(f"unknown sea-surface method {method!r}; choose from {SEA_SURFACE_METHODS}")
    along = ensure_1d(np.asarray(along_track_m, dtype=float), "along_track_m")
    height = ensure_1d(np.asarray(height_m, dtype=float), "height_m")
    error = ensure_1d(np.asarray(height_error_m, dtype=float), "height_error_m")
    lab = ensure_1d(np.asarray(labels), "labels")
    ensure_same_length(along, height, error, lab, names=("along_track_m", "height_m", "height_error_m", "labels"))
    if along.size == 0:
        raise ValueError("cannot estimate a sea surface from zero segments")

    step = config.window_length_m - config.window_overlap_m
    start = float(along.min())
    stop = float(along.max())
    n_windows = max(int(np.ceil((stop - start) / step)), 1)

    def build_windows(water_mask: np.ndarray) -> list[WindowSeaSurface]:
        water_along = along[water_mask]
        water_height = height[water_mask]
        # Floor the per-segment error at 2 cm: a zero error (e.g. a segment
        # with a single photon, whose sample std is 0) would otherwise make
        # the NASA weighting collapse onto the minimum height and bias the
        # sea surface low.
        water_error = np.clip(
            np.where(np.isfinite(error[water_mask]), error[water_mask], 0.05), 0.02, None
        )

        # Sorted view for fast windowed slicing.
        order = np.argsort(water_along)
        water_along = water_along[order]
        water_height = water_height[order]
        water_error = water_error[order]

        # The window grid; the per-window work (searchsorted bounds, MAD
        # outlier rejection against the window's median water height, and the
        # method estimate itself) runs in the kernel layer, vectorized
        # across all windows at once (see repro.kernels.sea_surface).
        starts = start + np.arange(n_windows) * step
        stops = starts + config.window_length_m
        centers = 0.5 * (starts + stops)
        heights, errors, counts = _kernels.window_estimates(
            water_along,
            water_height,
            water_error,
            starts,
            stops,
            centers,
            method,
            config.min_open_water_segments,
        )
        return [
            WindowSeaSurface(
                float(centers[i]),
                float(starts[i]),
                float(stops[i]),
                float(heights[i]),
                float(errors[i]),
                int(counts[i]),
            )
            for i in range(n_windows)
        ]

    water_mask = (lab == CLASS_OPEN_WATER) & np.isfinite(height)
    windows = build_windows(water_mask)

    # Fallback: when not a single window can be anchored on classified open
    # water, treat the lowest-height segments as sea-surface candidates
    # (the operational products' lowest-surface fallback).
    if fallback_lowest_quantile is not None and not any(
        np.isfinite(w.height_m) for w in windows
    ):
        finite = np.isfinite(height)
        if finite.any():
            threshold = np.quantile(height[finite], fallback_lowest_quantile)
            fallback_mask = finite & (height <= threshold)
            if fallback_mask.sum() >= config.min_open_water_segments:
                windows = build_windows(fallback_mask)

    return SeaSurfaceEstimate(method=method, windows=windows)
