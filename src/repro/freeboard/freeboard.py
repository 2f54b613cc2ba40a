"""Freeboard computation: ``hf = hs - href`` over classified 2 m segments.

Freeboard is only defined for ice segments (thick or thin ice); open-water
segments get zero freeboard by construction, and negative freeboards (ice
apparently below the local sea surface, caused by noise in either term) are
clipped to zero as in the operational product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CLASS_OPEN_WATER, DEFAULT_SEA_SURFACE, SeaSurfaceConfig
from repro.freeboard.interpolation import interpolate_missing_windows, sea_surface_at
from repro.freeboard.sea_surface import SeaSurfaceEstimate, estimate_sea_surface
from repro.resampling.window import SegmentArray
from repro.utils.validation import ensure_same_length


@dataclass
class FreeboardResult:
    """Freeboard of every classified segment along a track."""

    along_track_m: np.ndarray
    freeboard_m: np.ndarray
    sea_surface_m: np.ndarray
    labels: np.ndarray
    sea_surface: SeaSurfaceEstimate
    clip_negative: bool = True

    @property
    def n_segments(self) -> int:
        return int(self.along_track_m.shape[0])

    def ice_mask(self) -> np.ndarray:
        """Segments that are ice (freeboard is physically meaningful)."""
        return (self.labels != CLASS_OPEN_WATER) & np.isfinite(self.freeboard_m)

    def mean_freeboard_m(self) -> float:
        """Mean freeboard over ice segments."""
        mask = self.ice_mask()
        if not mask.any():
            return 0.0
        return float(self.freeboard_m[mask].mean())

    def distribution(self, bin_width_m: float = 0.02, max_freeboard_m: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
        """Histogram (bin centres, normalised density) of ice freeboards.

        Used to regenerate the paper's freeboard-distribution panels
        (Figs. 10c / 11c).
        """
        if bin_width_m <= 0 or max_freeboard_m <= 0:
            raise ValueError("bin width and maximum freeboard must be positive")
        mask = self.ice_mask()
        edges = np.arange(0.0, max_freeboard_m + bin_width_m, bin_width_m)
        counts, _ = np.histogram(self.freeboard_m[mask], bins=edges)
        density = counts / max(counts.sum(), 1)
        centres = 0.5 * (edges[:-1] + edges[1:])
        return centres, density


@dataclass
class TrackSeaSurface:
    """Sea-surface reference of one classified track.

    The intermediate product between sea-surface estimation and freeboard
    subtraction — the stage-graph engine caches it independently so a
    sea-surface-method sweep never re-runs classification, and a freeboard
    re-run never re-estimates an unchanged surface.
    """

    estimate: SeaSurfaceEstimate
    reference_m: np.ndarray


def estimate_track_windows(
    segments: SegmentArray,
    labels: np.ndarray,
    method: str = "nasa",
    config: SeaSurfaceConfig = DEFAULT_SEA_SURFACE,
) -> SeaSurfaceEstimate:
    """Window-level sea surface of one classified track, gaps interpolated.

    Estimates the surface from the open-water segments in 10 km sliding
    windows and interpolates windows without open water.  It needs the
    whole track, so the Table V map-reduce job runs it on the driver.
    """
    labels = np.asarray(labels)
    ensure_same_length(segments.center_along_track_m, labels, names=("segments", "labels"))
    estimate = estimate_sea_surface(
        segments.center_along_track_m,
        segments.height_mean_m,
        segments.height_error_m(),
        labels,
        method=method,
        config=config,
    )
    return interpolate_missing_windows(estimate)


def estimate_track_sea_surface(
    segments: SegmentArray,
    labels: np.ndarray,
    method: str = "nasa",
    config: SeaSurfaceConfig = DEFAULT_SEA_SURFACE,
) -> TrackSeaSurface:
    """Estimate the local sea surface along one classified track.

    :func:`estimate_track_windows`, evaluated at every segment centre.
    """
    estimate = estimate_track_windows(segments, labels, method=method, config=config)
    reference = sea_surface_at(estimate, segments.center_along_track_m)
    return TrackSeaSurface(estimate=estimate, reference_m=reference)


def subtract_sea_surface(
    height_m: np.ndarray, reference_m: np.ndarray, labels: np.ndarray, clip_negative: bool
) -> np.ndarray:
    """``hf = hs - href``, zero on open water, optionally clipped at zero."""
    freeboard = height_m - reference_m
    # Open water is the reference surface itself.
    freeboard = np.where(labels == CLASS_OPEN_WATER, 0.0, freeboard)
    if clip_negative:
        freeboard = np.clip(freeboard, 0.0, None)
    return freeboard


def freeboard_from_sea_surface(
    segments: SegmentArray,
    labels: np.ndarray,
    surface: TrackSeaSurface,
    clip_negative: bool = True,
) -> FreeboardResult:
    """Subtract an already-estimated sea surface: ``hf = hs - href``."""
    labels = np.asarray(labels)
    ensure_same_length(segments.center_along_track_m, labels, names=("segments", "labels"))
    freeboard = subtract_sea_surface(
        segments.height_mean_m, surface.reference_m, labels, clip_negative
    )
    return FreeboardResult(
        along_track_m=segments.center_along_track_m,
        freeboard_m=freeboard,
        sea_surface_m=surface.reference_m,
        labels=labels,
        sea_surface=surface.estimate,
        clip_negative=clip_negative,
    )


def compute_freeboard(
    segments: SegmentArray,
    labels: np.ndarray,
    method: str = "nasa",
    config: SeaSurfaceConfig = DEFAULT_SEA_SURFACE,
    clip_negative: bool = True,
) -> FreeboardResult:
    """Compute per-segment freeboard from classified 2 m segments.

    Steps (paper Section III.D): estimate the local sea surface from the
    open-water segments in 10 km sliding windows, interpolate windows without
    open water, evaluate the sea surface at every segment and subtract it
    from the segment's surface height.  Composes
    :func:`estimate_track_sea_surface` and :func:`freeboard_from_sea_surface`,
    which the stage-graph engine also runs as separate cacheable stages.

    Parameters
    ----------
    segments:
        Resampled 2 m segments.
    labels:
        Per-segment classes from the classifier (or auto-labels).
    method:
        Sea-surface estimation method (``"nasa"`` is the paper's choice).
    clip_negative:
        Clip negative freeboards to zero (operational behaviour).
    """
    surface = estimate_track_sea_surface(segments, labels, method=method, config=config)
    return freeboard_from_sea_surface(segments, labels, surface, clip_negative=clip_negative)
