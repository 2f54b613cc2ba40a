"""Tests for the shared-memory array transport (:mod:`repro.distributed.shm`).

The invariants under test, in rough order of importance:

* **byte identity** — results through the shm process path equal the serial
  reference bit for bit (Hypothesis-driven across executors);
* **no leaks** — no ``/dev/shm/repro_shm_*`` segment survives a job, a
  worker exception, or an engine close;
* **read-only views** — workers (and in-process attachers) can never mutate
  the driver's pages through an attached view;
* **safe eviction** — the worker attachment cache never closes a segment
  that still has live views on it (the silent-corruption regression).
"""

import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import shm
from repro.distributed.mapreduce import MapReduceEngine
from repro.distributed.shm import (
    DEFAULT_MIN_SHARED_BYTES,
    SHM_PREFIX,
    ArrayDescriptor,
    SharedArrayStore,
    attach_view,
    dumps_shared,
)
from repro.obs.core import Obs

_DEV_SHM = Path("/dev/shm")

needs_dev_shm = pytest.mark.skipif(
    not _DEV_SHM.is_dir(), reason="requires a /dev/shm filesystem to audit"
)


#: float64 rows whose slice reaches the engine's shared-memory threshold: a
#: partition of at least this many rows per float64 array crosses /dev/shm.
_SHM_ROWS = DEFAULT_MIN_SHARED_BYTES // 8


def _published(obs: Obs) -> float:
    """Bytes an engine reporting to ``obs`` has put into shared memory."""
    return obs.registry.value("mapreduce_shm_published_bytes_total")


def _live_segments() -> set[str]:
    """Names of every repro-owned shared-memory segment currently linked."""
    if not _DEV_SHM.is_dir():
        return set()
    return {p.name for p in _DEV_SHM.glob(f"{SHM_PREFIX}*")}


# -- module-level map/reduce functions (process executor needs picklables) --


def _sum_chunk(chunk):
    return {name: float(np.sum(np.asarray(a, dtype=np.float64))) for name, a in chunk.items()}


def _merge_sums(parts):
    out: dict = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0.0) + value
    return out


def _identity_chunk(chunk):
    return {name: np.array(a, copy=True) for name, a in chunk.items()}


def _concat_chunks(parts):
    return {
        name: np.concatenate([p[name] for p in parts])
        for name in (parts[0] if parts else {})
    }


def _raise_chunk(chunk):
    raise ValueError("intentional worker failure")


def _attempt_write(chunk):
    flags = {}
    for name, a in chunk.items():
        flags[name] = bool(a.flags.writeable)
        try:
            a[...] = 0
        except (ValueError, TypeError):
            pass
    return flags


def _die_abruptly(chunk):
    os._exit(17)


class TestSharedArrayStore:
    def test_put_round_trip_bytes_identical(self):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((64, 33))
        with SharedArrayStore() as store:
            desc = store.put(arr)
            view = attach_view(desc)
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape
            assert view.tobytes() == arr.tobytes()
            del view

    def test_put_copies_input(self):
        arr = np.arange(100.0)
        with SharedArrayStore() as store:
            desc = store.put(arr)
            arr[...] = -1.0  # mutate the original after publishing
            view = attach_view(desc)
            np.testing.assert_array_equal(view, np.arange(100.0))
            del view

    def test_put_rejects_object_and_empty_arrays(self):
        with SharedArrayStore() as store:
            with pytest.raises(ValueError):
                store.put(np.array([{"a": 1}], dtype=object))
            with pytest.raises(ValueError):
                store.put(np.empty((0, 3)))

    @needs_dev_shm
    def test_close_unlinks_and_is_idempotent(self):
        store = SharedArrayStore()
        store.put(np.ones(2048))
        names = set(store.segment_names)
        assert names <= _live_segments()
        store.close()
        assert not (names & _live_segments())
        store.close()  # idempotent

    @needs_dev_shm
    def test_finalizer_unlinks_on_garbage_collection(self):
        store = SharedArrayStore()
        store.put(np.ones(2048))
        names = set(store.segment_names)
        assert names <= _live_segments()
        del store
        assert not (names & _live_segments())

    @needs_dev_shm
    def test_close_with_live_driver_view_still_unlinks(self):
        store = SharedArrayStore()
        view = attach_view(store.put(np.arange(4096.0)))
        names = set(store.segment_names)
        store.close()
        # The file is unlinked even though this process still maps it; the
        # mapping stays valid until the view dies.
        assert not (names & _live_segments())
        np.testing.assert_array_equal(view, np.arange(4096.0))
        del view


class TestAttachView:
    def test_views_are_read_only(self):
        with SharedArrayStore() as store:
            view = attach_view(store.put(np.ones(512)))
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 2.0
            del view

    def test_eviction_never_closes_segments_with_live_views(self):
        """Regression: evicting an attached segment under live views silently
        remapped their pages to the *next* attached segment's data."""
        n = shm._ATTACH_CAPACITY * 2
        with SharedArrayStore() as store:
            descriptors = [store.put(np.full(1024, float(i))) for i in range(n)]
            views = [attach_view(d) for d in descriptors]
            # Every view must still read its own segment's data, even though
            # attachments exceeded the cache capacity while all were live.
            for i, view in enumerate(views):
                np.testing.assert_array_equal(view, np.full(1024, float(i)))
            assert len(shm._ATTACHED) >= n  # nothing evictable was evicted
            del views
            # With the views dead, a fresh attach shrinks the cache back.
            extra = attach_view(store.put(np.zeros(1024)))
            assert len(shm._ATTACHED) <= shm._ATTACH_CAPACITY
            del extra

    def test_attach_same_segment_twice_reuses_mapping(self):
        with SharedArrayStore() as store:
            desc = store.put(np.arange(256.0))
            before = len(shm._ATTACHED)
            v1 = attach_view(desc)
            v2 = attach_view(desc)
            assert len(shm._ATTACHED) <= before + 1
            np.testing.assert_array_equal(v1, v2)
            del v1, v2

    def test_descriptor_nbytes(self):
        desc = ArrayDescriptor(segment="x", dtype="<f8", shape=(10, 3))
        assert desc.nbytes == 240
        empty = ArrayDescriptor(segment="x", dtype="<f8", shape=(0, 3))
        assert empty.nbytes == 0


class TestDumpsShared:
    def test_round_trip_nested_payload(self):
        rng = np.random.default_rng(3)
        payload = {
            "big": rng.standard_normal(4096),
            "small": np.arange(4.0),
            "meta": ("granule", 17, {"nested": rng.standard_normal((64, 64))}),
        }
        with SharedArrayStore() as store:
            blob = dumps_shared(payload, store, min_bytes=1024)
            out = pickle.loads(blob)
            np.testing.assert_array_equal(out["big"], payload["big"])
            np.testing.assert_array_equal(out["small"], payload["small"])
            np.testing.assert_array_equal(
                out["meta"][2]["nested"], payload["meta"][2]["nested"]
            )
            # Large leaves travelled as descriptors → reattached read-only;
            # small ones were pickled by value and stay writable.
            assert not out["big"].flags.writeable
            assert out["small"].flags.writeable
            del out

    def test_min_bytes_threshold_controls_routing(self):
        arr = np.ones(100)  # 800 bytes
        with SharedArrayStore() as store:
            dumps_shared({"a": arr}, store, min_bytes=10_000)
            assert store.segment_names == ()
            dumps_shared({"a": arr}, store, min_bytes=1)
            assert len(store.segment_names) == 1


@needs_dev_shm
class TestNoLeaks:
    def test_map_arrays_process_leaves_no_segments(self):
        before = _live_segments()
        obs = Obs()
        with MapReduceEngine(
            n_partitions=3, executor="process", max_workers=2, obs=obs
        ) as engine:
            rng = np.random.default_rng(5)
            n = 3 * _SHM_ROWS
            arrays = {"x": rng.standard_normal(n), "y": rng.standard_normal(n)}
            result = engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            assert result.value["x"] == pytest.approx(float(arrays["x"].sum()))
        assert _published(obs) > 0
        assert _live_segments() <= before

    def test_worker_exception_leaves_no_segments(self):
        before = _live_segments()
        obs = Obs()
        with MapReduceEngine(
            n_partitions=3, executor="process", max_workers=2, obs=obs
        ) as engine:
            arrays = {"x": np.ones(3 * _SHM_ROWS)}
            with pytest.raises(ValueError, match="intentional worker failure"):
                engine.map_arrays(arrays, _raise_chunk, _merge_sums)
            assert _published(obs) > 0
            # The engine survives the failure and still computes correctly.
            result = engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            assert result.value["x"] == pytest.approx(3.0 * _SHM_ROWS)
        assert _live_segments() <= before

    def test_run_with_array_items_leaves_no_segments(self):
        before = _live_segments()
        items = [np.full(_SHM_ROWS, float(i)) for i in range(6)]
        obs = Obs()
        with MapReduceEngine(
            n_partitions=3, executor="process", max_workers=2, obs=obs
        ) as engine:
            result = engine.run(
                lambda: items,
                _sum_items,
                sum,
            )
            assert result.value == pytest.approx(sum(float(a.sum()) for a in items))
        assert _published(obs) > 0
        assert _live_segments() <= before

    def test_broken_pool_recovers_and_leaves_no_segments(self):
        before = _live_segments()
        from concurrent.futures.process import BrokenProcessPool

        obs = Obs()
        with MapReduceEngine(
            n_partitions=2, executor="process", max_workers=2, obs=obs
        ) as engine:
            arrays = {"x": np.ones(2 * _SHM_ROWS)}
            with pytest.raises(BrokenProcessPool):
                engine.map_arrays(arrays, _die_abruptly, _merge_sums)
            assert _published(obs) > 0
            # The broken pool was discarded; the next job respawns and works.
            result = engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            assert result.value["x"] == pytest.approx(2.0 * _SHM_ROWS)
        assert _live_segments() <= before


def _sum_items(partition):
    return sum(float(np.sum(a)) for a in partition)


class TestEngineIntegration:
    def test_workers_see_read_only_views(self):
        obs = Obs()
        with MapReduceEngine(
            n_partitions=2, executor="process", max_workers=2, obs=obs
        ) as engine:
            arrays = {"x": np.ones(2 * _SHM_ROWS)}
            result = engine.map_arrays(arrays, _attempt_write, _keep_parts)
            assert all(not flags["x"] for flags in result.value)
            assert _published(obs) > 0
            # The driver's copy was never corrupted through the view.
            np.testing.assert_array_equal(arrays["x"], np.ones(2 * _SHM_ROWS))

    def test_map_function_arrays_arrive_as_read_only_views(self):
        """An array the map function holds travels through shared memory too,
        once per task, like the partition's own slices."""
        table = np.arange(float(_SHM_ROWS))
        obs = Obs()
        with MapReduceEngine(
            n_partitions=2, executor="process", max_workers=2, obs=obs
        ) as engine:
            result = engine.map_arrays({"x": np.ones(4)}, _TableProbe(table), _keep_parts)
        assert result.value == [(False, float(table.sum()))] * 2
        assert _published(obs) == 2 * table.nbytes

    def test_pool_reused_across_jobs(self):
        obs = Obs()
        with MapReduceEngine(
            n_partitions=2, executor="process", max_workers=2, obs=obs
        ) as engine:
            arrays = {"x": np.ones(2 * _SHM_ROWS)}
            engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            pool_first = engine._pool_box[0]
            engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            assert engine._pool_box[0] is pool_first
        assert _published(obs) > 0

    def test_closed_engine_respawns(self):
        obs = Obs()
        engine = MapReduceEngine(n_partitions=2, executor="process", max_workers=2, obs=obs)
        try:
            arrays = {"x": np.ones(2 * _SHM_ROWS)}
            first = engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            engine.close()
            assert engine._pool_box == []
            second = engine.map_arrays(arrays, _sum_chunk, _merge_sums)
            assert second.value == first.value
        finally:
            engine.close()
        assert _published(obs) > 0

    @pytest.mark.parametrize(
        ("n_rows", "n_partitions", "published"),
        [
            (3 * (_SHM_ROWS - 1), 3, 0),
            (3 * _SHM_ROWS, 3, 3 * 2 * DEFAULT_MIN_SHARED_BYTES),
            (2, 5, 0),
        ],
        ids=["below-threshold", "at-threshold", "more-partitions-than-rows"],
    )
    def test_shm_off_matches_shm_on(self, n_rows, n_partitions, published):
        """Every executor and transport gives the serial bytes; only partitions
        of at least the threshold per array cross shared memory."""
        rng = np.random.default_rng(23)
        arrays = {
            "x": rng.standard_normal(n_rows),
            "y": rng.integers(0, 100, size=n_rows, dtype=np.int64),
        }
        obs = Obs()
        with MapReduceEngine(n_partitions, "serial") as serial, MapReduceEngine(
            n_partitions, "thread", max_workers=2
        ) as thread, MapReduceEngine(
            n_partitions, "process", max_workers=2, obs=obs
        ) as shm_engine, MapReduceEngine(
            n_partitions, "process", max_workers=2, use_shm=False
        ) as plain_engine:
            reference = serial.map_arrays(arrays, _identity_chunk, _concat_chunks).value
            for engine in (thread, shm_engine, plain_engine):
                out = engine.map_arrays(arrays, _identity_chunk, _concat_chunks).value
                for name in arrays:
                    assert out[name].dtype == reference[name].dtype
                    assert out[name].tobytes() == reference[name].tobytes()
        assert _published(obs) == published


def _keep_parts(parts):
    return list(parts)


class _TableProbe:
    """Picklable map function holding an array; reports how the worker got it."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table

    def __call__(self, chunk):
        return bool(self.table.flags.writeable), float(self.table.sum())


# -- Hypothesis: executor equivalence through the shm path -------------------

_ENGINES: dict[str, MapReduceEngine] = {}


@pytest.fixture(scope="module")
def engines():
    """Persistent engines shared across Hypothesis examples (pool reuse)."""
    if not _ENGINES:
        _ENGINES["serial"] = MapReduceEngine(n_partitions=3, executor="serial")
        _ENGINES["thread"] = MapReduceEngine(n_partitions=3, executor="thread", max_workers=2)
        _ENGINES["process"] = MapReduceEngine(
            n_partitions=3, executor="process", max_workers=2, obs=Obs()
        )
    yield _ENGINES
    for engine in _ENGINES.values():
        engine.close()
    _ENGINES.clear()


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=0,
        max_size=400,
    ),
    dtype=st.sampled_from(["float64", "float32", "int32"]),
    n_partitions=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_property_executors_byte_identical(engines, values, dtype, n_partitions):
    """serial == thread == process(+shm) on the exact output bytes.

    The drawn values run as drawn (small partitions pickle by value) and
    tiled to at least 64 KiB per partition and array, which must cross
    shared memory whenever the job fans out.
    """
    small = np.asarray(values, dtype=np.float64).astype(dtype)
    n_large = 2 * _SHM_ROWS * n_partitions + small.shape[0]
    large = np.resize(small, n_large) if small.size else np.zeros(n_large, dtype)
    process_obs = engines["process"].obs
    for data in (small, large):
        arrays = {"v": data, "w": np.arange(data.shape[0], dtype=np.float64)}
        published = _published(process_obs)
        outputs = {}
        for name, engine in engines.items():
            result = engine.map_arrays(
                arrays, _identity_chunk, _concat_chunks, n_partitions=n_partitions
            )
            outputs[name] = result.value
        reference = outputs["serial"]
        for name in ("thread", "process"):
            for key in arrays:
                assert outputs[name][key].dtype == reference[key].dtype
                assert outputs[name][key].tobytes() == reference[key].tobytes()
        crossed = _published(process_obs) > published
        assert crossed == (data is large and n_partitions > 1)


@needs_dev_shm
def test_property_runs_leaked_nothing():
    """Companion to the property test above: the module leaves /dev/shm clean.

    Runs after the Hypothesis test in file order; any segment named with our
    prefix still linked at this point escaped a store's lifetime.
    """
    assert not _live_segments()
