"""Label transfer from segmented Sentinel-2 imagery to ATL03 segments.

Both datasets are expressed in the same Antarctic polar stereographic
projection, so the overlay is a nearest-pixel lookup of each 2 m segment's
projected centre in the segmented S2 class map (paper Fig. 2).  Segments that
fall outside the image, or under detected cloud/shadow, are marked so the
manual-correction stage can fix or drop them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CLASS_UNLABELED, CLASS_UNSEGMENTED
from repro.geodesy.grid import GridDefinition
from repro.resampling.window import SegmentArray
from repro.sentinel2.scene import S2Image
from repro.sentinel2.segmentation import SegmentationResult


@dataclass
class AutoLabelResult:
    """Labels transferred from an S2 image onto IS2 segments."""

    labels: np.ndarray
    in_image: np.ndarray
    cloudy: np.ndarray
    shadowed: np.ndarray

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.labels != CLASS_UNLABELED))

    @property
    def n_segments(self) -> int:
        return int(self.labels.shape[0])

    def label_fractions(self) -> dict[int, float]:
        """Fraction of segments per transferred label (excluding unlabeled)."""
        valid = self.labels[self.labels != CLASS_UNLABELED]
        if valid.size == 0:
            return {}
        values, counts = np.unique(valid, return_counts=True)
        return {int(v): float(c) / float(valid.size) for v, c in zip(values, counts)}


def overlay_labels(
    image: S2Image,
    segmentation: SegmentationResult,
    x_m: np.ndarray,
    y_m: np.ndarray,
) -> AutoLabelResult:
    """Look up the S2 class of each projected point.

    Points outside the image footprint receive :data:`CLASS_UNLABELED`; the
    cloud and shadow masks are sampled at the same pixels so callers know
    which labels are suspect.
    """
    x = np.asarray(x_m, dtype=float)
    y = np.asarray(y_m, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x_m and y_m must have the same shape")
    if segmentation.class_map.shape != image.shape:
        raise ValueError("segmentation class_map does not match the image grid")
    seg = segmentation
    return lookup_labels(image.grid, seg.class_map, seg.cloud_mask, seg.shadow_mask, x, y)


def lookup_labels(
    grid: GridDefinition,
    class_map: np.ndarray,
    cloud_mask: np.ndarray,
    shadow_mask: np.ndarray,
    x_m: np.ndarray,
    y_m: np.ndarray,
) -> AutoLabelResult:
    """The core of :func:`overlay_labels`, over the arrays it reads.

    The Table II map-reduce job calls it per partition with the three planes
    it reads; it skips :func:`overlay_labels`' grid-shape check, which that
    job makes once on the driver.  A point on a pixel that a corridor
    segmentation did not compute raises ``ValueError``.
    """
    inside = grid.contains(x_m, y_m) & np.isfinite(x_m) & np.isfinite(y_m)
    labels = np.full(x_m.shape, CLASS_UNLABELED, dtype=np.int8)
    cloudy = np.zeros(x_m.shape, dtype=bool)
    shadowed = np.zeros(x_m.shape, dtype=bool)

    if inside.any():
        row, col = grid.cell_index(x_m[inside], y_m[inside], clip=True)
        found = class_map[row, col]
        if (found == CLASS_UNSEGMENTED).any():
            raise ValueError(
                "auto-labeling read a Sentinel-2 pixel outside the segmented corridor"
            )
        labels[inside] = found
        cloudy[inside] = cloud_mask[row, col]
        shadowed[inside] = shadow_mask[row, col]

    return AutoLabelResult(labels=labels, in_image=inside, cloudy=cloudy, shadowed=shadowed)


def auto_label_segments(
    segments: SegmentArray,
    image: S2Image,
    segmentation: SegmentationResult,
) -> AutoLabelResult:
    """Auto-label resampled 2 m segments from a segmented S2 image.

    The segment's mean projected position (x, y) — the average of its signal
    photons' coordinates — is used for the lookup, mirroring the paper's
    point-on-image overlay.
    """
    return overlay_labels(image, segmentation, segments.x_m, segments.y_m)
