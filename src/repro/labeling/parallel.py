"""Map-reduce-parallel auto-labeling (the paper's Table II workload).

Auto-labeling is "highly data-parallel, albeit fine-grained" (paper
Section IV.B): every 2 m segment's label is an independent pixel lookup in
the segmented S2 image.  The job below checks the segmentation against the
image on the driver, partitions the segment arrays, maps each partition
through the serial :func:`~repro.labeling.autolabel.lookup_labels`, and
reduces by concatenation — the same structure as the paper's PySpark job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.mapreduce import MapReduceEngine, MapReduceResult, concat_partitions
from repro.geodesy.grid import GridDefinition
from repro.labeling.autolabel import AutoLabelResult, lookup_labels
from repro.resampling.window import SegmentArray
from repro.sentinel2.scene import S2Image
from repro.sentinel2.segmentation import SegmentationResult


@dataclass
class _AutoLabelMap:
    """Picklable per-partition map function: :func:`lookup_labels` on one chunk."""

    grid: GridDefinition
    class_map: np.ndarray
    cloud_mask: np.ndarray
    shadow_mask: np.ndarray

    def __call__(self, chunk: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        result = lookup_labels(
            self.grid, self.class_map, self.cloud_mask, self.shadow_mask, chunk["x_m"], chunk["y_m"]
        )
        return vars(result)


def parallel_autolabel(
    segments: SegmentArray,
    image: S2Image,
    segmentation: SegmentationResult,
    engine: MapReduceEngine,
) -> tuple[AutoLabelResult, MapReduceResult]:
    """Auto-label 2 m segments with the map-reduce engine.

    Returns exactly the same :class:`AutoLabelResult` as the serial
    :func:`repro.labeling.auto_label_segments` (verified in tests) plus the
    per-stage map-reduce timings used by the Table II benchmark.  Like the
    serial overlay, it rejects a segmentation that does not match the image
    grid with ``ValueError``.
    """
    if segmentation.class_map.shape != image.shape:
        raise ValueError("segmentation class_map does not match the image grid")
    arrays = {"x_m": segments.x_m, "y_m": segments.y_m}
    map_fn = _AutoLabelMap(
        image.grid, segmentation.class_map, segmentation.cloud_mask, segmentation.shadow_mask
    )
    mr_result = engine.map_arrays(arrays, map_fn, concat_partitions)
    return AutoLabelResult(**mr_result.value), mr_result
