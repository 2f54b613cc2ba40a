"""Map-reduce-parallel freeboard computation (the paper's Table V workload).

The freeboard stage is data-parallel across along-track chunks: the sea
surface is estimated once per track (it needs the whole track's open-water
segments), then subtracting it from segment heights partitions trivially.
The job below mirrors the paper's PySpark formulation: the driver estimates
the window-level surface (:func:`~repro.freeboard.freeboard.estimate_track_windows`),
the *map* runs the serial evaluation and subtraction
(:func:`~repro.freeboard.interpolation.sea_surface_at`,
:func:`~repro.freeboard.freeboard.subtract_sea_surface`) on a partition of
segments, and the *reduce* concatenates partitions back in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_SEA_SURFACE, SeaSurfaceConfig
from repro.distributed.mapreduce import MapReduceEngine, MapReduceResult, concat_partitions
from repro.freeboard.freeboard import FreeboardResult, estimate_track_windows, subtract_sea_surface
from repro.freeboard.interpolation import sea_surface_at
from repro.freeboard.sea_surface import SeaSurfaceEstimate
from repro.resampling.window import SegmentArray


@dataclass
class _FreeboardMap:
    """Picklable per-partition map function: the serial subtraction on one chunk.

    Holds the (small) window-level sea-surface estimate; each partition
    evaluates it at its own segments (:func:`sea_surface_at`) and subtracts
    (:func:`subtract_sea_surface`).
    """

    estimate: SeaSurfaceEstimate
    clip_negative: bool

    def __call__(self, chunk: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        reference = sea_surface_at(self.estimate, chunk["along_track_m"])
        return {
            "along_track_m": chunk["along_track_m"],
            "freeboard_m": subtract_sea_surface(
                chunk["height_m"], reference, chunk["labels"], self.clip_negative
            ),
            "sea_surface_m": reference,
            "labels": chunk["labels"],
        }


def parallel_freeboard(
    segments: SegmentArray,
    labels: np.ndarray,
    engine: MapReduceEngine,
    method: str = "nasa",
    config: SeaSurfaceConfig = DEFAULT_SEA_SURFACE,
    clip_negative: bool = True,
) -> tuple[FreeboardResult, MapReduceResult]:
    """Compute freeboard with the map-reduce engine.

    Returns the assembled :class:`FreeboardResult` (identical to the serial
    :func:`repro.freeboard.compute_freeboard` output — verified by tests) and
    the :class:`MapReduceResult` with the per-stage timings used by the
    Table V scaling benchmark.
    """
    estimate = estimate_track_windows(segments, labels, method=method, config=config)
    arrays = {
        "along_track_m": segments.center_along_track_m,
        "height_m": segments.height_mean_m,
        "labels": np.asarray(labels, dtype=np.int8),
    }
    mr_result = engine.map_arrays(arrays, _FreeboardMap(estimate, clip_negative), concat_partitions)
    result = FreeboardResult(**mr_result.value, sea_surface=estimate, clip_negative=clip_negative)
    return result, mr_result
