"""Tests for the map-reduce-parallel freeboard job."""

import numpy as np
import pytest

from repro.distributed.mapreduce import MapReduceEngine
from repro.freeboard.freeboard import compute_freeboard
from repro.freeboard.parallel import parallel_freeboard


class TestParallelFreeboard:
    @pytest.mark.parametrize("n_partitions", [1, 3, 8])
    def test_matches_serial_reference(self, segments, n_partitions):
        labels = segments.truth_class
        serial = compute_freeboard(segments, labels)
        engine = MapReduceEngine(n_partitions=n_partitions, executor="serial")
        parallel, mr = parallel_freeboard(segments, labels, engine)
        np.testing.assert_allclose(parallel.freeboard_m, serial.freeboard_m, atol=1e-12)
        np.testing.assert_allclose(parallel.sea_surface_m, serial.sea_surface_m, atol=1e-12)
        np.testing.assert_array_equal(parallel.labels, serial.labels)
        assert mr.n_partitions == n_partitions

    def test_thread_executor_matches(self, segments):
        labels = segments.truth_class
        serial = compute_freeboard(segments, labels)
        for executor in ("thread", "process"):
            with MapReduceEngine(n_partitions=4, executor=executor, max_workers=2) as engine:
                parallel, _ = parallel_freeboard(segments, labels, engine)
            np.testing.assert_array_equal(
                parallel.freeboard_m, serial.freeboard_m, err_msg=executor
            )
            np.testing.assert_array_equal(
                parallel.sea_surface_m, serial.sea_surface_m, err_msg=executor
            )

    def test_timings_recorded(self, segments):
        engine = MapReduceEngine(n_partitions=2, executor="serial")
        _, mr = parallel_freeboard(segments, segments.truth_class, engine)
        assert mr.map_seconds > 0.0
        assert mr.load_seconds >= 0.0

    def test_label_length_mismatch_rejected(self, segments):
        engine = MapReduceEngine(n_partitions=2, executor="serial")
        with pytest.raises(ValueError):
            parallel_freeboard(segments, segments.truth_class[:-1], engine)

    def test_order_preserved(self, segments):
        engine = MapReduceEngine(n_partitions=5, executor="serial")
        parallel, _ = parallel_freeboard(segments, segments.truth_class, engine)
        np.testing.assert_array_equal(parallel.along_track_m, segments.center_along_track_m)
