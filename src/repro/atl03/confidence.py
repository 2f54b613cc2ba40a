"""ATL03-style signal-confidence classification.

The operational ATL03 algorithm assigns each photon a confidence level
(0 = likely noise .. 4 = high-confidence signal) using histogram-based
surface finding: photons concentrated in a narrow height band around the
dominant return are signal, isolated photons spread over the telemetry window
are background.  This module implements a vectorised equivalent: for each
along-track bin the modal height is located with a coarse histogram and
photons are graded by their distance from that mode.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import confidence as _kernels
from repro.utils.validation import ensure_1d, ensure_same_length

#: Confidence grades used by the pipeline (subset of ATL03's 0..4 scale).
SIGNAL_CONF_NOISE = 0
SIGNAL_CONF_LOW = 2
SIGNAL_CONF_MEDIUM = 3
SIGNAL_CONF_HIGH = 4


def _modal_height_per_bin(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    bin_edges: np.ndarray,
    height_resolution_m: float,
) -> np.ndarray:
    """Modal photon height for each along-track bin.

    Heights are histogrammed at ``height_resolution_m`` inside each bin and
    the centre of the most populated height cell (the first such cell on
    ties) is returned.  Degenerate bins are handled explicitly, in this
    order:

    * photons with non-finite heights are excluded from surface finding, so
      a NaN photon can never poison a bin's histogram range;
    * bins with no (finite) photons get NaN;
    * a bin with a single photon returns that photon's height directly and
      never reaches ``np.histogram`` (whose range would be zero-width);
    * a bin whose total height span is below ``height_resolution_m`` returns
      the median height — histogramming below the resolution cannot separate
      a mode.

    The heavy lifting is delegated to :mod:`repro.kernels.confidence`: one
    ``np.bincount`` over composite ``(bin, height-cell)`` keys, tested
    against the original per-bin ``np.histogram`` loop
    (:mod:`repro.kernels.reference`).
    """
    return _kernels.modal_height_per_bin(
        along_track_m, height_m, bin_edges, height_resolution_m
    )


def classify_confidence(
    along_track_m: np.ndarray,
    height_m: np.ndarray,
    surface_window_m: float = 0.5,
    bin_length_m: float = 20.0,
    height_resolution_m: float = 0.25,
) -> np.ndarray:
    """Assign an ATL03-like signal confidence to every photon.

    Parameters
    ----------
    along_track_m, height_m:
        Photon coordinates (must be the same length; along-track need not be
        sorted).
    surface_window_m:
        Photons within this distance of the local modal height are graded
        high confidence; within twice the distance, medium; within four
        times, low; otherwise noise.
    bin_length_m:
        Along-track extent of the histogramming bins.
    height_resolution_m:
        Vertical resolution of the surface-finding histogram.

    Returns
    -------
    numpy.ndarray
        ``int8`` array of confidence values (0, 2, 3 or 4).
    """
    along = ensure_1d(np.asarray(along_track_m, dtype=float), "along_track_m")
    height = ensure_1d(np.asarray(height_m, dtype=float), "height_m")
    ensure_same_length(along, height, names=("along_track_m", "height_m"))
    if surface_window_m <= 0 or bin_length_m <= 0 or height_resolution_m <= 0:
        raise ValueError("window, bin length and height resolution must be positive")
    if along.size == 0:
        return np.empty(0, dtype=np.int8)

    start = float(along.min())
    stop = float(along.max())
    n_bins = max(int(np.ceil((stop - start) / bin_length_m)), 1)
    bin_edges = start + np.arange(n_bins + 1) * bin_length_m

    modal = _modal_height_per_bin(along, height, bin_edges, height_resolution_m)
    bin_idx = np.clip(
        np.searchsorted(bin_edges, along, side="right") - 1, 0, n_bins - 1
    )
    local_mode = modal[bin_idx]
    # Bins that somehow have no modal height fall back to the global median
    # of the finite heights (photons with non-finite heights are excluded
    # from surface finding and always grade as noise).
    finite = np.isfinite(height)
    global_median = np.median(height[finite]) if finite.any() else np.nan
    local_mode = np.where(np.isnan(local_mode), global_median, local_mode)

    dist = np.abs(height - local_mode)
    conf = np.full(along.shape, SIGNAL_CONF_NOISE, dtype=np.int8)
    conf[dist <= 4.0 * surface_window_m] = SIGNAL_CONF_LOW
    conf[dist <= 2.0 * surface_window_m] = SIGNAL_CONF_MEDIUM
    conf[dist <= surface_window_m] = SIGNAL_CONF_HIGH
    return conf
