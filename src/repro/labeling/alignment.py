"""Sea-ice drift estimation and S2 image re-alignment.

Between the IS2 overpass and the S2 acquisition the pack ice drifts, so the
S2 labels are displaced relative to the photon track.  The paper corrects
this by shifting the S2 image (Table I gives distance and compass direction).

Here the shift is *estimated* by maximising the agreement between the IS2
elevation signature and the S2 labels along the track: open-water segments
should have low elevation and low roughness, thick ice high elevation.  The
estimator scans candidate (dx, dy) offsets on a coarse-to-fine grid and
scores each by the class-conditional elevation separation, which is exactly
the consistency criterion the authors describe using.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import drift as kdrift
from repro.sentinel2.scene import S2Image
from repro.utils.validation import ensure_1d, ensure_same_length

#: Half-width of the drift search window in metres: the default
#: ``max_shift_m`` of :func:`estimate_drift`, and the reach of the corridor
#: that the ``segmentation`` stage segments around the tracks.  The paper's
#: shifts are at most 550 m.
MAX_SHIFT_M = 800.0


@dataclass(frozen=True)
class DriftEstimate:
    """Result of the drift search."""

    dx_m: float
    dy_m: float
    score: float
    n_candidates: int

    @property
    def distance_m(self) -> float:
        return float(np.hypot(self.dx_m, self.dy_m))

    @property
    def direction(self) -> str:
        """Nearest 8-point compass direction of the shift (empty if zero)."""
        if self.distance_m == 0.0:
            return ""
        angle = np.degrees(np.arctan2(self.dx_m, self.dy_m)) % 360.0
        names = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
        return names[int(((angle + 22.5) % 360.0) // 45.0)]


def estimate_drift(
    image: S2Image,
    class_map: np.ndarray,
    seg_x_m: np.ndarray,
    seg_y_m: np.ndarray,
    seg_height_m: np.ndarray,
    max_shift_m: float = MAX_SHIFT_M,
    coarse_step_m: float = 50.0,
    fine_step_m: float = 25.0,
    min_improvement: float = 0.01,
) -> DriftEstimate:
    """Estimate the (dx, dy) shift of the S2 image relative to the IS2 track.

    Parameters
    ----------
    image:
        The (possibly drift-displaced) S2 acquisition.
    class_map:
        Segmented per-pixel classes of the image (from
        :func:`repro.sentinel2.segment_image`).
    seg_x_m, seg_y_m, seg_height_m:
        Projected coordinates and mean heights of the IS2 2 m segments.
    max_shift_m:
        Half-width of the search window (the paper's shifts are <= 550 m).
        A corridor segmentation covers shifts up to :data:`MAX_SHIFT_M`; a
        wider search reads unsegmented pixels and raises ``ValueError``.
    coarse_step_m, fine_step_m:
        Grid spacings of the two-stage search.
    min_improvement:
        The shift is only accepted when its consistency score beats the
        zero-shift score by at least this margin; otherwise the estimator
        returns a zero shift ("do no harm").  The paper's small drifts barely
        change the overlay when floes are large, and in that regime chasing a
        noisy score optimum would degrade the labels.

    Returns
    -------
    DriftEstimate
        The shift to apply to the image (via :func:`apply_shift`) so it
        aligns with the track.
    """
    seg_x = ensure_1d(np.asarray(seg_x_m, dtype=float), "seg_x_m")
    seg_y = ensure_1d(np.asarray(seg_y_m, dtype=float), "seg_y_m")
    seg_h = ensure_1d(np.asarray(seg_height_m, dtype=float), "seg_height_m")
    ensure_same_length(seg_x, seg_y, seg_h, names=("seg_x_m", "seg_y_m", "seg_height_m"))
    if max_shift_m < 0 or coarse_step_m <= 0 or fine_step_m <= 0:
        raise ValueError("shift limits and steps must be positive")
    finite = np.isfinite(seg_h)
    seg_x, seg_y, seg_h = seg_x[finite], seg_y[finite], seg_h[finite]
    if seg_x.size == 0:
        raise ValueError("no finite segments available for drift estimation")

    def search(center: tuple[float, float], half_width: float, step: float) -> tuple[float, float, float, int]:
        offsets = np.arange(-half_width, half_width + step * 0.5, step)
        dxs = np.clip(offsets + center[0], -max_shift_m, max_shift_m)
        dys = np.clip(offsets + center[1], -max_shift_m, max_shift_m)
        return kdrift.drift_search(class_map, image, seg_x, seg_y, seg_h, dxs, dys)

    zero_score = kdrift.alignment_score(class_map, image, seg_x, seg_y, seg_h, 0.0, 0.0)
    dx0, dy0, _, n0 = search((0.0, 0.0), max_shift_m, coarse_step_m)
    dx1, dy1, score, n1 = search((dx0, dy0), coarse_step_m, fine_step_m)
    # Querying the image at (x - dx) is exactly what the image would return
    # at x after being shifted by (dx, dy), so the best candidate is the
    # shift to apply directly — but only if it is convincingly better than
    # not shifting at all.
    if not np.isfinite(score) or score < zero_score + min_improvement:
        return DriftEstimate(dx_m=0.0, dy_m=0.0, score=float(zero_score), n_candidates=n0 + n1)
    return DriftEstimate(dx_m=dx1, dy_m=dy1, score=score, n_candidates=n0 + n1)


def apply_shift(image: S2Image, estimate: DriftEstimate) -> S2Image:
    """Shift an S2 image by an estimated drift so it aligns with the IS2 track."""
    return image.shifted(estimate.dx_m, estimate.dy_m)
