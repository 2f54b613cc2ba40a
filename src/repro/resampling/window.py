"""Fixed-length along-track resampling of ATL03 photon clouds.

This is the paper's "2 m sampling strategy": the photon cloud of a beam is
divided into contiguous, fixed-length along-track windows and each window is
summarised by robust statistics of its signal photons (mean/median/std of
height, photon counts, background rate, ...).  The implementation is
vectorised: photons are already sorted by along-track distance, so window
membership is a ``searchsorted`` over the window edges and every statistic is
computed with ``np.add.reduceat``-style grouped reductions; the median height
and the majority class come from the :mod:`repro.kernels.resampling` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.atl03.granule import BeamData
from repro.config import RESAMPLE_WINDOW_M
from repro.kernels import resampling as kresampling
from repro.utils.validation import ensure_positive


@dataclass
class SegmentArray:
    """Struct-of-arrays container for resampled along-track segments.

    All arrays have one entry per segment.  ``n_photons`` counts the signal
    photons used for the statistics; segments whose count is zero carry NaN
    statistics and are excluded by :meth:`valid_mask`.
    """

    beam_name: str
    window_length_m: float
    center_along_track_m: np.ndarray
    start_along_track_m: np.ndarray
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    x_m: np.ndarray
    y_m: np.ndarray
    height_mean_m: np.ndarray
    height_median_m: np.ndarray
    height_std_m: np.ndarray
    height_min_m: np.ndarray
    height_max_m: np.ndarray
    n_photons: np.ndarray
    n_high_conf: np.ndarray
    photon_rate: np.ndarray
    background_rate_hz: np.ndarray
    delta_time_s: np.ndarray
    truth_class: np.ndarray

    def __post_init__(self) -> None:
        n = self.center_along_track_m.shape[0]
        for name in (
            "start_along_track_m", "lat_deg", "lon_deg", "x_m", "y_m",
            "height_mean_m", "height_median_m", "height_std_m", "height_min_m",
            "height_max_m", "n_photons", "n_high_conf", "photon_rate",
            "background_rate_hz", "delta_time_s", "truth_class",
        ):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"segment field {name} has inconsistent length")

    @property
    def n_segments(self) -> int:
        return int(self.center_along_track_m.shape[0])

    def valid_mask(self, min_photons: int = 1) -> np.ndarray:
        """Segments containing at least ``min_photons`` signal photons."""
        return self.n_photons >= min_photons

    def height_error_m(self, ranging_noise_m: float = 0.10) -> np.ndarray:
        """Standard error of each segment's mean height.

        The per-photon spread is the larger of the measured in-segment
        standard deviation and the instrument ranging noise (a one-photon
        segment has a sample std of zero but is still uncertain at the
        ranging-noise level); the error of the mean divides by ``sqrt(n)``.
        Empty segments get NaN.
        """
        if ranging_noise_m < 0:
            raise ValueError("ranging_noise_m must be non-negative")
        n = np.maximum(self.n_photons, 1).astype(float)
        spread = np.maximum(np.nan_to_num(self.height_std_m, nan=ranging_noise_m), ranging_noise_m)
        error = spread / np.sqrt(n)
        return np.where(self.n_photons > 0, error, np.nan)

    def select(self, mask: np.ndarray) -> "SegmentArray":
        """Subset of segments where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.n_segments,):
            raise ValueError("mask must be boolean with one entry per segment")
        kwargs = {}
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray):
                kwargs[name] = value[mask]
            else:
                kwargs[name] = value
        return SegmentArray(**kwargs)

    def as_dict(self) -> dict[str, np.ndarray]:
        """Array fields as a plain dictionary (metadata excluded)."""
        return {
            name: value
            for name, value in self.__dict__.items()
            if isinstance(value, np.ndarray)
        }


def concatenate_segments(
    arrays: "Sequence[SegmentArray]", beam_name: str | None = None
) -> SegmentArray:
    """Concatenate several :class:`SegmentArray`\\ s into one.

    Used to pool beams (and, in the campaign layer, whole granules) for
    classifier training.  All inputs must have been resampled with the same
    ``window_length_m`` — mixing resolutions would silently corrupt the
    photon-rate and sequence features, so a mismatch raises ``ValueError``.

    Parameters
    ----------
    arrays:
        One or more segment arrays, concatenated in the given order.
    beam_name:
        Name of the combined array; defaults to the input names joined
        with ``"+"``.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("need at least one SegmentArray to concatenate")
    windows = {float(a.window_length_m) for a in arrays}
    if len(windows) > 1:
        per_beam = [(a.beam_name, float(a.window_length_m)) for a in arrays]
        raise ValueError(
            "cannot concatenate segments resampled with different window lengths "
            f"{sorted(windows)} (per beam: {per_beam}); resample every beam with "
            "the same window_length_m before combining"
        )
    name = beam_name if beam_name is not None else "+".join(a.beam_name for a in arrays)
    if len(arrays) == 1:
        single = arrays[0]
        if name == single.beam_name:
            return single
        return SegmentArray(
            beam_name=name, window_length_m=single.window_length_m, **single.as_dict()
        )
    fields = {
        field_name: np.concatenate([a.as_dict()[field_name] for a in arrays])
        for field_name in arrays[0].as_dict()
    }
    return SegmentArray(beam_name=name, window_length_m=arrays[0].window_length_m, **fields)


def _grouped_reduce(values: np.ndarray, boundaries: np.ndarray, func: str) -> np.ndarray:
    """Grouped reduction of ``values`` over contiguous slices.

    ``boundaries`` has length ``n_groups + 1`` and gives slice limits into
    ``values`` (photons sorted by segment).  Empty groups yield NaN.
    """
    n_groups = boundaries.shape[0] - 1
    counts = np.diff(boundaries)
    out = np.full(n_groups, np.nan)
    non_empty = counts > 0
    if not non_empty.any():
        return out
    if func == "sum":
        sums = np.add.reduceat(values, boundaries[:-1][non_empty])
        out[non_empty] = sums
        return out
    if func == "mean":
        sums = np.add.reduceat(values, boundaries[:-1][non_empty])
        out[non_empty] = sums / counts[non_empty]
        return out
    if func == "min":
        out[non_empty] = np.minimum.reduceat(values, boundaries[:-1][non_empty])
        return out
    if func == "max":
        out[non_empty] = np.maximum.reduceat(values, boundaries[:-1][non_empty])
        return out
    if func == "median":
        return kresampling.grouped_median(values, boundaries)
    raise ValueError(f"unsupported reduction {func!r}")


def resample_fixed_window(
    beam: BeamData,
    window_length_m: float = RESAMPLE_WINDOW_M,
    min_confidence: int = 3,
) -> SegmentArray:
    """Resample one beam's photons into fixed-length along-track segments.

    Parameters
    ----------
    beam:
        Photon data of one beam (sorted by along-track distance).
    window_length_m:
        Segment length in metres (2 m in the paper).
    min_confidence:
        Minimum ATL03 signal confidence of photons used for the height
        statistics.  Lower-confidence photons still contribute to the
        background estimate.

    Returns
    -------
    SegmentArray
        One record per window covering the beam's along-track extent,
        including empty windows (NaN statistics, zero photon count) so that
        consecutive segments remain equidistant — required by the LSTM's
        sequence construction.
    """
    ensure_positive(window_length_m, "window_length_m")
    if beam.n_photons == 0:
        raise ValueError("cannot resample an empty beam")

    along = beam.along_track_m
    start = float(np.floor(along[0] / window_length_m) * window_length_m)
    stop = float(along[-1])
    n_segments = max(int(np.ceil((stop - start) / window_length_m)), 1)
    # Windows are half-open, [edge, next edge): a last photon on the final
    # edge (an exact multiple of the window length, or rounding) needs one
    # more window.
    if start + n_segments * window_length_m <= stop:
        n_segments += 1
    edges = start + np.arange(n_segments + 1) * window_length_m
    centers = 0.5 * (edges[:-1] + edges[1:])

    # Signal photons used for surface statistics.
    signal_mask = beam.signal_conf >= min_confidence
    sig_along = along[signal_mask]
    sig_height = beam.height_m[signal_mask]
    sig_lat = beam.lat_deg[signal_mask]
    sig_lon = beam.lon_deg[signal_mask]
    sig_x = beam.x_m[signal_mask]
    sig_y = beam.y_m[signal_mask]
    sig_time = beam.delta_time_s[signal_mask]
    sig_truth = beam.truth_class[signal_mask]
    sig_bg = beam.background_rate_hz[signal_mask]

    boundaries = np.searchsorted(sig_along, edges)
    counts = np.diff(boundaries).astype(np.int64)

    height_mean = _grouped_reduce(sig_height, boundaries, "mean")
    height_median = _grouped_reduce(sig_height, boundaries, "median")
    height_min = _grouped_reduce(sig_height, boundaries, "min")
    height_max = _grouped_reduce(sig_height, boundaries, "max")
    # Std via E[x^2] - E[x]^2 on grouped sums (guarding tiny negatives).
    mean_sq = _grouped_reduce(sig_height**2, boundaries, "mean")
    variance = np.clip(mean_sq - height_mean**2, 0.0, None)
    height_std = np.sqrt(variance)

    lat = _grouped_reduce(sig_lat, boundaries, "mean")
    lon = _grouped_reduce(sig_lon, boundaries, "mean")
    x = _grouped_reduce(sig_x, boundaries, "mean")
    y = _grouped_reduce(sig_y, boundaries, "mean")
    delta_time = _grouped_reduce(sig_time, boundaries, "mean")
    background = _grouped_reduce(sig_bg, boundaries, "mean")

    # High-confidence photon count per segment over *all* photons.
    high_conf_mask = beam.signal_conf >= 4
    hc_boundaries = np.searchsorted(along[high_conf_mask], edges)
    n_high_conf = np.diff(hc_boundaries).astype(np.int64)

    # Photon rate: signal photons per laser shot in the window.
    shots_per_window = window_length_m / 0.7
    photon_rate = counts / shots_per_window

    # Majority ground-truth class per segment (evaluation only).
    truth = kresampling.grouped_majority(sig_truth, boundaries)
    non_empty = counts > 0

    # Geolocate empty segments by interpolating along the window centres so
    # downstream windowing still has coordinates for every segment.
    if (~non_empty).any() and non_empty.any():
        for arr in (lat, lon, x, y, delta_time, background):
            arr[~non_empty] = np.interp(
                centers[~non_empty], centers[non_empty], arr[non_empty]
            )

    return SegmentArray(
        beam_name=beam.name,
        window_length_m=float(window_length_m),
        center_along_track_m=centers,
        start_along_track_m=edges[:-1],
        lat_deg=lat,
        lon_deg=lon,
        x_m=x,
        y_m=y,
        height_mean_m=height_mean,
        height_median_m=height_median,
        height_std_m=height_std,
        height_min_m=height_min,
        height_max_m=height_max,
        n_photons=counts,
        n_high_conf=n_high_conf,
        photon_rate=photon_rate,
        background_rate_hz=background,
        delta_time_s=delta_time,
        truth_class=truth,
    )
