"""Tests for the mini map-reduce engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.mapreduce import MapReduceEngine, partition_indices
from repro.obs.core import Obs


def _sum_of_squares_job(n_items=1000):
    items = list(range(n_items))

    def load():
        return items

    def map_fn(partition):
        return sum(x * x for x in partition)

    def reduce_fn(parts):
        return sum(parts)

    expected = sum(x * x for x in items)
    return load, map_fn, reduce_fn, expected


def _square_chunk(chunk):
    """Module-level map function so the process executor can pickle it."""
    return {"squared": chunk["values"] ** 2}


def _concat_squared(parts):
    return np.concatenate([p["squared"] for p in parts])


class TestPartitionIndices:
    def test_balanced_contiguous(self):
        parts = partition_indices(10, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        np.testing.assert_array_equal(np.concatenate(parts), np.arange(10))

    def test_more_partitions_than_items(self):
        parts = partition_indices(2, 5)
        assert len(parts) == 5
        assert sum(len(p) for p in parts) == 2

    def test_zero_items(self):
        parts = partition_indices(0, 3)
        assert all(len(p) == 0 for p in parts)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_indices(-1, 2)
        with pytest.raises(ValueError):
            partition_indices(5, 0)

    @given(n=st.integers(min_value=0, max_value=500), k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_property_partition_is_exact_cover(self, n, k):
        parts = partition_indices(n, k)
        assert len(parts) == k
        combined = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        np.testing.assert_array_equal(combined, np.arange(n))
        assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1


class TestMapReduceEngine:
    @pytest.mark.parametrize("n_partitions", [1, 2, 5, 16])
    def test_result_independent_of_partition_count(self, n_partitions):
        load, map_fn, reduce_fn, expected = _sum_of_squares_job()
        engine = MapReduceEngine(n_partitions=n_partitions, executor="serial")
        result = engine.run(load, map_fn, reduce_fn)
        assert result.value == expected

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executors_agree(self, executor):
        load, map_fn, reduce_fn, expected = _sum_of_squares_job()
        engine = MapReduceEngine(n_partitions=4, executor=executor)
        assert engine.run(load, map_fn, reduce_fn).value == expected

    def test_process_executor_with_picklable_map(self):
        values = np.arange(200, dtype=float)
        engine = MapReduceEngine(n_partitions=2, executor="process", max_workers=2)
        result = engine.map_arrays({"values": values}, _square_chunk, _concat_squared)
        np.testing.assert_allclose(result.value, values**2)

    @pytest.mark.parametrize("obs", [Obs(), Obs.disabled()], ids=["enabled", "disabled"])
    def test_timing_stages_present(self, obs):
        load, map_fn, reduce_fn, _ = _sum_of_squares_job(100)
        result = MapReduceEngine(2, "serial", obs=obs).run(load, map_fn, reduce_fn)
        assert result.load_seconds >= 0.0
        assert result.map_seconds > 0.0
        assert result.reduce_seconds >= 0.0
        assert result.total_seconds == (
            result.load_seconds + result.map_seconds + result.reduce_seconds
        )

    def test_map_arrays_matches_direct_computation(self, rng):
        x = rng.normal(size=2000)
        y = rng.normal(size=2000)
        arrays = {"x": x, "y": y}

        def map_fn(chunk):
            return float(np.dot(chunk["x"], chunk["y"]))

        def reduce_fn(parts):
            return sum(parts)

        result = MapReduceEngine(7, "serial").map_arrays(arrays, map_fn, reduce_fn)
        assert result.value == pytest.approx(float(np.dot(x, y)))

    def test_map_arrays_rejects_ragged_input(self, rng):
        with pytest.raises(ValueError):
            MapReduceEngine(2, "serial").map_arrays(
                {"a": np.zeros(5), "b": np.zeros(4)}, lambda c: 0, sum
            )

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MapReduceEngine(n_partitions=0)
        with pytest.raises(ValueError):
            MapReduceEngine(executor="spark")
        with pytest.raises(ValueError):
            MapReduceEngine(max_workers=0)

    def test_empty_input(self):
        engine = MapReduceEngine(3, "serial")
        result = engine.run(lambda: [], lambda p: len(p), lambda parts: sum(parts))
        assert result.value == 0
