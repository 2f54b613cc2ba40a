"""Tracer: nesting, deterministic ids, virtual-clock durations, ring buffer, clocks."""

from __future__ import annotations

import asyncio

import pytest

import ast
from pathlib import Path

from repro.clock import MonotonicClock, VirtualClock, WallClock
from repro.config import ObsConfig
from repro.obs.core import Obs, default_obs, set_default_obs
from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEvaluator
from repro.obs.trace import NullTracer, Tracer
from repro.serve.catalog import ProductCatalog
from repro.serve.router import RequestRouter

SRC = Path(__file__).resolve().parents[1] / "src"


class TestSpanNesting:
    def test_child_inherits_trace_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_ids_are_deterministic(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        assert (a.span_id, a.trace_id) == ("s0001", "t0001")
        assert (b.span_id, b.trace_id) == ("s0002", "t0001")

    def test_exception_is_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("boom"):
                raise KeyError("x")
        (span,) = tracer.spans("boom")
        assert span.attributes["error"] == "KeyError"
        assert span.finished

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("op", a=1) as span:
            span.set(b=2).set(c=3)
        assert span.attributes == {"a": 1, "b": 2, "c": 3}

    def test_nesting_follows_asyncio_awaits(self):
        tracer = Tracer()

        async def handler():
            with tracer.span("request"):
                await asyncio.sleep(0)
                with tracer.span("stage"):
                    await asyncio.sleep(0)

        asyncio.run(handler())
        (stage,) = tracer.spans("stage")
        (request,) = tracer.spans("request")
        assert stage.parent_id == request.span_id

    def test_concurrent_tasks_do_not_cross_parent(self):
        tracer = Tracer()

        async def one(name):
            with tracer.span(name):
                await asyncio.sleep(0)
                with tracer.span(f"{name}.child"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(one("a"), one("b"))

        asyncio.run(main())
        (a,) = tracer.spans("a")
        (a_child,) = tracer.spans("a.child")
        (b,) = tracer.spans("b")
        (b_child,) = tracer.spans("b.child")
        assert a_child.parent_id == a.span_id
        assert b_child.parent_id == b.span_id
        assert a.trace_id != b.trace_id


class TestVirtualClockDurations:
    def test_durations_are_exact(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.tick(0.010)
            with tracer.span("inner"):
                clock.tick(0.004)
        (inner,) = tracer.spans("inner")
        (outer,) = tracer.spans("outer")
        assert inner.duration == 0.004
        assert outer.duration == 0.014
        assert inner.start == 0.010


class TestRingBuffer:
    def test_oldest_spans_drop_and_are_counted(self):
        tracer = Tracer(buffer_size=3)
        for i in range(5):
            with tracer.span(f"op{i}"):
                pass
        assert [s.name for s in tracer.spans()] == ["op2", "op3", "op4"]
        assert tracer.n_dropped == 2

    def test_clear(self):
        tracer = Tracer(buffer_size=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.clear()
        assert tracer.spans() == ()
        assert tracer.n_dropped == 0

    def test_buffer_size_validated(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)

    def test_trace_and_children_lookup(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("left"):
                pass
            with tracer.span("right"):
                pass
        spans = tracer.trace(root.trace_id)
        assert [s.name for s in spans] == ["left", "right", "root"]
        assert {s.name for s in tracer.children(root)} == {"left", "right"}


class TestObsFacade:
    def test_disabled_obs_uses_null_twins(self):
        obs = Obs.disabled()
        assert not obs.enabled
        assert isinstance(obs.tracer, NullTracer)
        with obs.span("anything") as span:
            span.set(ignored=True)
        assert obs.tracer.spans() == ()
        obs.counter("x").inc()
        assert obs.registry.total("x") == 0.0

    def test_null_span_context_is_reusable_singleton(self):
        obs = Obs.disabled()
        assert obs.span("a") is obs.span("b")

    def test_default_obs_swap_restores(self):
        original = default_obs()
        private = Obs(ObsConfig(trace_buffer_size=8))
        previous = set_default_obs(private)
        try:
            assert default_obs() is private
        finally:
            set_default_obs(previous)
        assert default_obs() is original

    def test_obs_config_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(trace_buffer_size=0)
        with pytest.raises(ValueError):
            ObsConfig(latency_buckets_s=(0.1, 0.1))


class TestClockDefaults:
    def test_one_clock_module_supplies_every_default(self):
        assert isinstance(Tracer().clock, MonotonicClock)
        assert isinstance(SloEvaluator(MetricsRegistry()).clock, MonotonicClock)
        router = RequestRouter(ProductCatalog(), obs=Obs.disabled())
        assert isinstance(router.clock, MonotonicClock)
        enabled, disabled = Obs(), Obs.disabled()
        assert isinstance(enabled.clock, MonotonicClock)
        assert enabled.tracer.clock is enabled.clock
        assert enabled.log.clock is enabled.clock
        assert isinstance(disabled.clock, MonotonicClock)
        # Standalone log records keep wall-clock timestamps.
        assert isinstance(EventLog().clock, WallClock)

        clock_classes: dict[str, set[str]] = {}
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "now"
                    for item in node.body
                ):
                    module = path.relative_to(SRC).as_posix()
                    clock_classes.setdefault(module, set()).add(node.name)
        assert clock_classes == {
            "repro/clock.py": {"MonotonicClock", "VirtualClock", "WallClock"}
        }
