"""Tests for the map-reduce-parallel auto-labeling job."""

import numpy as np
import pytest

from repro.distributed.mapreduce import MapReduceEngine
from repro.labeling.autolabel import auto_label_segments
from repro.labeling.parallel import parallel_autolabel
from repro.sentinel2.segmentation import SegmentationResult


class TestParallelAutolabel:
    @pytest.mark.parametrize("n_partitions", [1, 2, 4, 7])
    def test_matches_serial_reference(self, segments, s2_image, s2_segmentation, n_partitions):
        serial = auto_label_segments(segments, s2_image, s2_segmentation)
        engine = MapReduceEngine(n_partitions=n_partitions, executor="serial")
        parallel, mr = parallel_autolabel(segments, s2_image, s2_segmentation, engine)
        np.testing.assert_array_equal(parallel.labels, serial.labels)
        np.testing.assert_array_equal(parallel.in_image, serial.in_image)
        np.testing.assert_array_equal(parallel.cloudy, serial.cloudy)
        assert mr.n_partitions == n_partitions

    def test_thread_executor_matches(self, segments, s2_image, s2_segmentation):
        serial = auto_label_segments(segments, s2_image, s2_segmentation)
        for executor in ("thread", "process"):
            with MapReduceEngine(n_partitions=3, executor=executor, max_workers=2) as engine:
                parallel, _ = parallel_autolabel(segments, s2_image, s2_segmentation, engine)
            for field in ("labels", "in_image", "cloudy", "shadowed"):
                np.testing.assert_array_equal(
                    getattr(parallel, field), getattr(serial, field), err_msg=executor
                )

    def test_mismatched_segmentation_rejected_like_serial(
        self, segments, s2_image, s2_segmentation
    ):
        padded = SegmentationResult(
            **{
                name: np.pad(getattr(s2_segmentation, name), ((0, 3), (0, 3)))
                for name in ("class_map", "cloud_mask", "shadow_mask")
            }
        )
        with pytest.raises(ValueError, match="image grid"):
            auto_label_segments(segments, s2_image, padded)
        engine = MapReduceEngine(n_partitions=2, executor="serial")
        with pytest.raises(ValueError, match="image grid"):
            parallel_autolabel(segments, s2_image, padded, engine)

    def test_timing_stages_recorded(self, segments, s2_image, s2_segmentation):
        engine = MapReduceEngine(n_partitions=2, executor="serial")
        _, mr = parallel_autolabel(segments, s2_image, s2_segmentation, engine)
        assert mr.load_seconds >= 0.0
        assert mr.map_seconds > 0.0
        assert mr.reduce_seconds >= 0.0
        assert mr.total_seconds == pytest.approx(
            mr.load_seconds + mr.map_seconds + mr.reduce_seconds
        )
