"""Cross-process trace propagation: harvest, graft, and the merged tree."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.distributed.mapreduce import MapReduceEngine
from repro.obs.core import Obs, default_obs
from repro.obs.export import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import (
    TraceContext,
    TracedTask,
    WorkerTelemetry,
    current_context,
    merge_worker_telemetry,
)


def _instrumented_sum(partition):
    """Module-level (picklable) map function feeding the worker-local obs."""
    obs = default_obs()
    with obs.span("worker.compute"):
        obs.counter("worker_items_total").inc(len(partition))
        obs.histogram("worker_batch_size", edges=(2.0, 8.0)).observe(len(partition))
        return sum(partition)


def _load_items():
    return list(range(12))


def _sum_parts(parts):
    return sum(parts)


class TestCurrentContext:
    def test_none_outside_any_span(self):
        obs = Obs(clock=VirtualClock())
        assert current_context(obs.tracer) is None

    def test_captures_innermost_open_span(self):
        obs = Obs(clock=VirtualClock())
        with obs.span("outer"), obs.span("inner") as inner:
            ctx = current_context(obs.tracer)
        assert ctx == TraceContext(trace_id=inner.trace_id, span_id=inner.span_id)


class TestTracedTask:
    def test_returns_value_and_relative_telemetry(self):
        value, telemetry = TracedTask(lambda: 41 + 1)()
        assert value == 42
        assert isinstance(telemetry, WorkerTelemetry)
        names = [row[2] for row in telemetry.spans]
        assert "mapreduce.task" in names
        # Times are relative to the task root: the root starts at 0.
        root = next(row for row in telemetry.spans if row[2] == "mapreduce.task")
        assert root[3] == pytest.approx(0.0)
        assert root[5]["pid"] > 0

    def test_worker_obs_is_default_during_task_and_restored_after(self):
        before = default_obs()

        def probe():
            return default_obs()

        value, _ = TracedTask(probe)()
        assert value is not before
        assert default_obs() is before

    def test_harvest_collects_only_touched_metrics(self):
        def work():
            obs = default_obs()
            obs.counter("touched_total").inc(3)
            obs.counter("untouched_total")  # created, never incremented
            obs.gauge("level").set(7.0)
            return None

        _, telemetry = TracedTask(work)()
        counters = {name: value for name, _, value in telemetry.counters}
        assert counters == {"touched_total": 3}
        assert ("level", (), 7.0) in telemetry.gauges


class TestMergeWorkerTelemetry:
    def run_task_and_merge(self, driver, **extra):
        value, telemetry = TracedTask(
            lambda: _instrumented_sum([1, 2, 3]),
            context=current_context(driver.tracer),
        )()
        return value, merge_worker_telemetry(driver, telemetry, **extra)

    def test_metrics_fold_into_driver_registry(self):
        driver = Obs(clock=VirtualClock())
        driver.counter("worker_items_total").inc(10)  # pre-existing count
        self.run_task_and_merge(driver)
        assert driver.registry.total("worker_items_total") == 13
        hist = driver.registry.find("worker_batch_size")[0]
        assert hist.count == 1 and hist.sum == pytest.approx(3.0)

    def test_spans_graft_under_current_driver_span(self):
        driver = Obs(clock=VirtualClock())
        with driver.span("mapreduce.map") as map_span:
            self.run_task_and_merge(driver)
        spans = {s.name: s for s in driver.tracer.spans()}
        task = spans["mapreduce.task"]
        compute = spans["worker.compute"]
        assert task.parent_id == map_span.span_id
        assert task.trace_id == map_span.trace_id
        assert compute.parent_id == task.span_id
        # Fresh driver ids, not the worker's locals.
        assert task.span_id != compute.span_id

    def test_graft_root_takes_extra_attributes(self):
        driver = Obs(clock=VirtualClock())
        with driver.span("mapreduce.map"):
            self.run_task_and_merge(driver, shard=4)
        spans = {s.name: s for s in driver.tracer.spans()}
        assert spans["mapreduce.task"].attributes["shard"] == 4
        assert "shard" not in spans["worker.compute"].attributes

    def test_merge_without_open_span_falls_back_to_shipped_context(self):
        driver = Obs(clock=VirtualClock())
        with driver.span("mapreduce.map") as map_span:
            value, telemetry = TracedTask(
                lambda: 1, context=current_context(driver.tracer)
            )()
        # The map span already closed; the shipped context still anchors it.
        merge_worker_telemetry(driver, telemetry)
        task = next(s for s in driver.tracer.spans() if s.name == "mapreduce.task")
        assert task.trace_id == map_span.trace_id
        assert task.parent_id == map_span.span_id

    def test_subtree_reanchored_on_driver_clock(self):
        clock = VirtualClock()
        driver = Obs(clock=clock)
        clock.tick(100.0)
        _, telemetry = TracedTask(lambda: None)()
        with driver.span("mapreduce.map"):
            merge_worker_telemetry(driver, telemetry)
        task = next(s for s in driver.tracer.spans() if s.name == "mapreduce.task")
        # The grafted subtree ends "now" on the driver clock and keeps its
        # shipped duration.
        assert task.end == pytest.approx(clock.now())
        assert task.duration == pytest.approx(telemetry.duration)

    def test_disabled_driver_merges_nothing_quietly(self):
        from repro.config import ObsConfig

        driver = Obs(ObsConfig(enabled=False))
        _, telemetry = TracedTask(lambda: None)()
        assert merge_worker_telemetry(driver, telemetry) == ()


class TestEngineThreadPropagation:
    def test_thread_tasks_are_children_of_map_span(self):
        from repro.obs.core import set_default_obs

        obs = Obs(clock=VirtualClock())
        # Threads share the driver's obs: point the module-level map
        # function's default_obs() at it for the duration.
        previous = set_default_obs(obs)
        try:
            engine = MapReduceEngine(n_partitions=3, executor="thread", obs=obs)
            with engine:
                result = engine.run(_load_items, _instrumented_sum, _sum_parts)
        finally:
            set_default_obs(previous)
        assert result.value == sum(range(12))
        spans = obs.tracer.spans()
        map_span = next(s for s in spans if s.name == "mapreduce.map")
        tasks = [s for s in spans if s.name == "mapreduce.task"]
        assert len(tasks) == 3
        for task in tasks:
            assert task.parent_id == map_span.span_id
            assert task.trace_id == map_span.trace_id
        computes = [s for s in spans if s.name == "worker.compute"]
        assert {c.parent_id for c in computes} == {t.span_id for t in tasks}


class TestEngineProcessPropagation:
    def test_worker_spans_merge_as_children_of_map_span(self):
        obs = Obs(clock=VirtualClock())
        engine = MapReduceEngine(
            n_partitions=3, executor="process", max_workers=2, obs=obs
        )
        with engine:
            result = engine.run(_load_items, _instrumented_sum, _sum_parts)
        assert result.value == sum(range(12))
        spans = obs.tracer.spans()
        map_span = next(s for s in spans if s.name == "mapreduce.map")
        tasks = [s for s in spans if s.name == "mapreduce.task"]
        assert len(tasks) == 3
        for task in tasks:
            assert task.parent_id == map_span.span_id
            assert task.trace_id == map_span.trace_id
            assert task.attributes["pid"] > 0
        computes = [s for s in spans if s.name == "worker.compute"]
        assert {c.parent_id for c in computes} == {t.span_id for t in tasks}
        # Worker metric deltas landed in the driver registry.
        assert obs.registry.total("worker_items_total") == 12

    def test_chrome_export_lays_workers_on_process_tracks(self):
        obs = Obs(clock=VirtualClock())
        engine = MapReduceEngine(
            n_partitions=2, executor="process", max_workers=2, obs=obs
        )
        with engine:
            engine.run(_load_items, _instrumented_sum, _sum_parts)
        doc = chrome_trace(obs.tracer.spans(), process_name="repro")
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        span_events = [e for e in events if e["ph"] == "X"]
        by_name = {}
        for e in span_events:
            by_name.setdefault(e["name"], []).append(e)
        driver_pid = by_name["mapreduce.map"][0]["pid"]
        worker_pids = {e["pid"] for e in by_name["mapreduce.task"]}
        assert driver_pid == 1
        assert worker_pids and 1 not in worker_pids
        # Worker tasks remain true children of the driver's map span.
        map_id = by_name["mapreduce.map"][0]["args"]["span_id"]
        assert all(
            e["args"]["parent_id"] == map_id for e in by_name["mapreduce.task"]
        )
        labels = {
            (e["pid"], e["args"]["name"])
            for e in meta
            if e["name"] == "process_name"
        }
        assert (1, "repro driver") in labels
        for pid in worker_pids:
            assert (pid, f"repro worker pid={pid}") in labels
        assert any(e["name"] == "thread_name" for e in meta)


class TestMergeMetricsOnly:
    def test_histogram_delta_merges_bucketwise(self):
        worker = Obs(clock=VirtualClock())
        h = worker.histogram("lat", edges=(0.1, 1.0))
        for v in (0.05, 0.5, 3.0):
            h.observe(v)
        from repro.obs.propagate import harvest_worker_telemetry

        with worker.span("root") as root:
            pass
        telemetry = harvest_worker_telemetry(worker, root)
        driver = Obs(clock=VirtualClock())
        driver.histogram("lat", edges=(0.1, 1.0)).observe(0.05)
        merge_worker_telemetry(driver, telemetry)
        merged = driver.registry.find("lat")[0]
        assert merged.count == 4
        assert list(merged.bucket_counts()) == [2, 1, 1]
        assert merged.sum == pytest.approx(3.6)

    def test_disabled_registry_ignores_deltas(self):
        from repro.config import ObsConfig

        telemetry = WorkerTelemetry(counters=(("c_total", (), 5.0),))
        driver = Obs(ObsConfig(enabled=False))
        merge_worker_telemetry(driver, telemetry)
        assert driver.registry.total("c_total") == 0.0


def test_registry_survives_pickling_for_worker_payloads():
    import pickle

    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.total("c") == 2
