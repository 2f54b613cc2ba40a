"""Metrics registry: identity, bucket boundaries, thread safety, pickling."""

from __future__ import annotations

import asyncio
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("events_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("events_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_pickle_round_trip_drops_lock(self):
        c = Counter("events_total", (("stage", "map"),))
        c.inc(7)
        clone = pickle.loads(pickle.dumps(c))
        assert clone.value == 7
        clone.inc()  # the restored lock works
        assert clone.value == 8


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(4)
        g.add(-1.5)
        assert g.value == 2.5

    def test_updates_apply_in_call_order(self):
        g = Gauge("depth")
        g.add(5)
        g.set(1)  # replaces everything before it
        g.add(2)
        assert g.value == 3.0
        for _ in range(100):  # past the fold threshold, same order
            g.add(1)
            g.set(0)
        g.add(0.5)
        assert g.value == 0.5


UPDATES = st.lists(
    st.one_of(
        st.floats(min_value=-1e3, max_value=1e3),
        st.sampled_from([0.01, 0.1, 1.0, float("nan"), float("inf"), float("-inf")]),
    ),
    max_size=150,
)


class TestBufferedUpdates:
    """Queued updates fold into exactly what one-at-a-time updates give."""

    @given(UPDATES)
    @settings(max_examples=100, deadline=None)
    def test_histogram_matches_searchsorted_and_a_sequential_sum(self, values):
        edges = (0.01, 0.1, 1.0)
        h = Histogram("lat", edges=edges)
        for v in values:
            h.observe(v)
        expected = np.bincount(
            np.searchsorted(np.asarray(edges), np.asarray(values, dtype=float), side="left"),
            minlength=len(edges) + 1,
        )
        assert h.bucket_counts().tolist() == expected.tolist()
        total = 0.0
        for v in values:
            total += v
        assert np.float64(h.sum).tobytes() == np.float64(total).tobytes()
        assert h.count == len(values)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=150))
    @settings(max_examples=100, deadline=None)
    def test_counter_sum_is_the_sequential_sum(self, increments):
        c = Counter("work_seconds_total")
        total = 0.0
        for v in increments:
            c.inc(v)
            total += v
        assert c.value == total

    def test_no_update_is_lost_under_thread_switching(self):
        """More threads than cores, switching every microsecond, each both
        updating and reading (so folds race appends): a lost or doubled
        update would break one of the exact totals."""
        counter = Counter("hits_total")
        gauge = Gauge("depth")
        hist = Histogram("lat", edges=(0.5,))
        n_threads, per_thread = 8, 2_000
        seen = []

        def worker(index):
            for i in range(per_thread):
                counter.inc()
                gauge.add(1)
                hist.observe(0.1 if index % 2 else 0.9)
                if i % 97 == 0:
                    seen.append(counter.value)
                    hist.bucket_counts()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        total = n_threads * per_thread
        assert counter.value == total
        assert gauge.value == total
        assert hist.count == total
        assert hist.bucket_counts().tolist() == [total // 2, total // 2]
        assert all(0 < v <= total for v in seen)


class TestHistogramBuckets:
    def test_value_on_edge_lands_in_that_le_bucket(self):
        # Prometheus `le` semantics: an observation equal to an upper bound
        # belongs to that bound's bucket.
        h = Histogram("lat", edges=(0.01, 0.1, 1.0))
        h.observe(0.01)
        h.observe(0.1)
        h.observe(1.0)
        assert h.bucket_counts().tolist() == [1, 1, 1, 0]

    def test_below_first_edge_and_overflow(self):
        h = Histogram("lat", edges=(0.01, 0.1))
        h.observe(0.0)
        h.observe(0.005)
        h.observe(5.0)  # +Inf bucket
        assert h.bucket_counts().tolist() == [2, 0, 1]

    def test_cumulative_counts_are_monotone_and_end_at_count(self):
        h = Histogram("lat", edges=(0.01, 0.1, 1.0))
        for v in (0.001, 0.05, 0.05, 0.5, 2.0):
            h.observe(v)
        cum = h.cumulative_counts()
        assert cum.tolist() == [1, 3, 4, 5]
        assert cum[-1] == h.count == 5

    def test_sum_count_and_mean(self):
        h = Histogram("lat", edges=(1.0,))
        h.observe(0.25)
        h.observe(0.75)
        assert h.count == 2
        assert h.sum == pytest.approx(1.0)
        assert h.value == pytest.approx(0.5)

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("lat", edges=(0.1, 0.1))
        with pytest.raises(ValueError):
            Histogram("lat", edges=())

    def test_observe_does_not_allocate_bucket_array(self):
        h = Histogram("lat", edges=(0.01, 0.1))
        before = h._counts
        h.observe(0.05)
        assert h._counts is before  # preallocated, mutated in place


class TestRegistryIdentity:
    def test_same_name_and_labels_return_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("serve_requests_total", shard="0")
        b = reg.counter("serve_requests_total", shard="0")
        assert a is b

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a="1", b="2")
        b = reg.counter("x", b="2", a="1")
        assert a is b

    def test_different_labels_are_different_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x", shard="0")
        b = reg.counter("x", shard="1")
        assert a is not b
        a.inc(3)
        assert reg.value("x", shard="0") == 3
        assert reg.value("x", shard="1") == 0
        assert reg.total("x") == 3

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counters_survive_holder_replacement(self):
        # The QueryStats-survival property in miniature: a "rebuilt
        # component" re-requesting its counter continues the series.
        reg = MetricsRegistry()
        reg.counter("requests_total", shard="2").inc(10)
        again = reg.counter("requests_total", shard="2")
        again.inc(5)
        assert reg.value("requests_total", shard="2") == 15

    def test_default_buckets_flow_into_histograms(self):
        reg = MetricsRegistry(default_buckets=(0.5, 1.0))
        assert reg.histogram("lat").edges == (0.5, 1.0)
        assert reg.histogram("lat2", edges=(2.0,)).edges == (2.0,)

    def test_as_dict_and_collect(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b", k="v").set(7)
        flat = reg.as_dict()
        assert flat["a"] == 2
        assert flat['b{k="v"}'] == 7
        assert len(reg) == 2
        assert [m.name for m in reg.collect()] == ["a", "b"]

    def test_registry_pickles(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(4)
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.value("a") == 4
        assert clone.histogram("h").count == 1

    def test_drop_forgets_every_series_carrying_the_labels(self):
        reg = MetricsRegistry()
        owned = reg.counter("router_requests_total", router="r1")
        owned.inc(3)
        reg.histogram("serve_batch_seconds", router="r1", shard="0")
        kept = reg.counter("router_requests_total", router="r2")
        reg.counter("trace_spans_dropped_total")
        assert reg.drop(router="r1") == 2
        assert len(reg) == 2
        assert reg.counter("router_requests_total", router="r2") is kept
        # The holder still reads its counter; the registry starts afresh.
        assert owned.value == 3
        assert reg.counter("router_requests_total", router="r1").value == 0
        assert reg.drop(router="r9") == 0

    def test_drop_needs_a_label(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="label"):
            reg.drop()
        assert len(reg) == 1


class TestThreadSafety:
    def test_threads_and_asyncio_share_one_registry(self):
        """Asyncio tasks and pool threads hammer the same metric series."""
        reg = MetricsRegistry()
        counter = reg.counter("hits_total")
        hist = reg.histogram("lat", edges=(0.5,))
        n_threads, per_thread = 8, 2_000

        def worker():
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.1)

        async def async_side():
            async def task():
                for _ in range(per_thread):
                    counter.inc()
                    hist.observe(0.9)
                    await asyncio.sleep(0)

            await asyncio.gather(*(task() for _ in range(4)))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        asyncio.run(async_side())
        for t in threads:
            t.join()

        expected = (n_threads + 4) * per_thread
        assert counter.value == expected
        assert hist.count == expected
        assert hist.bucket_counts().tolist() == [
            n_threads * per_thread,
            4 * per_thread,
        ]


class TestNullRegistry:
    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.counter("a", any="label").inc(5)
        reg.gauge("b").set(3)
        reg.histogram("c").observe(1.0)
        assert reg.value("a") == 0.0
        assert reg.total("a") == 0.0
        assert len(reg) == 0
        assert reg.collect() == []
        assert reg.as_dict() == {}
        assert reg.drop(any="label") == 0
        assert not reg.enabled

    def test_null_metrics_are_shared_singletons(self):
        reg = NullRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.histogram("a") is reg.histogram("b")

    def test_default_buckets_constant_matches_config(self):
        from repro.config import DEFAULT_OBS

        assert tuple(DEFAULT_BUCKETS) == tuple(DEFAULT_OBS.latency_buckets_s)
        assert np.all(np.diff(DEFAULT_BUCKETS) > 0)
