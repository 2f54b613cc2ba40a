"""Structured logging: ring, dedup, sink, severity, trace correlation."""

from __future__ import annotations

import json

import pytest

from repro.clock import VirtualClock
from repro.config import LogConfig, ObsConfig
from repro.obs.core import Obs
from repro.obs.log import EventLog, NullEventLog
from repro.obs.trace import Tracer


def make_log(config=None, tracer=None):
    clock = VirtualClock()
    log = EventLog(
        config if config is not None else LogConfig(),
        clock=clock,
        tracer=tracer,
    )
    return log, clock


class TestEmission:
    def test_record_carries_clock_time_level_and_fields(self):
        log, clock = make_log()
        clock.tick(12.5)
        record = log.info("router.shard_quarantined", shard=7)
        assert record.ts == 12.5
        assert record.level == "info"
        assert record.event == "router.shard_quarantined"
        assert record.fields == {"shard": 7}

    def test_level_helpers_map_to_levels(self):
        log, _ = make_log()
        for helper, level in [
            (log.debug, "debug"),
            (log.info, "info"),
            (log.warning, "warning"),
            (log.error, "error"),
        ]:
            assert helper("e").level == level

    def test_unknown_level_raises(self):
        log, _ = make_log()
        with pytest.raises(ValueError, match="level must be one of"):
            log.emit("fatal", "boom")

    def test_min_level_filters_quietly(self):
        log, _ = make_log(config=LogConfig(min_level="warning"))
        assert log.info("chatty") is None
        assert log.warning("real") is not None
        assert [r.event for r in log.events()] == ["real"]

    def test_ring_is_bounded_oldest_dropped(self):
        log, clock = make_log(config=LogConfig(ring_size=3, dedup_window_s=0.0))
        for i in range(5):
            clock.tick(1.0)
            log.info(f"e{i}")
        assert [r.event for r in log.events()] == ["e2", "e3", "e4"]
        assert log.n_records == 5  # lifetime count keeps the true total
        assert len(log) == 3


class TestDedup:
    def test_twins_within_window_suppressed_and_summarised(self):
        log, clock = make_log(config=LogConfig(dedup_window_s=5.0))
        assert log.warning("router.shard_quarantined", shard=1) is not None
        for shard in (2, 3, 4):
            clock.tick(1.0)
            assert log.warning("router.shard_quarantined", shard=shard) is None
        assert log.n_suppressed == 3
        # Outside the window the next twin lands, carrying the count.
        clock.tick(5.0)
        record = log.warning("router.shard_quarantined", shard=5)
        assert record.fields == {"shard": 5, "suppressed": 3}
        assert len(log.events(event="router.shard_quarantined")) == 2

    def test_dedup_keys_on_level_and_event(self):
        log, _ = make_log(config=LogConfig(dedup_window_s=5.0))
        assert log.warning("shed") is not None
        assert log.error("shed") is not None  # different level: not a twin
        assert log.warning("other") is not None  # different event: not a twin

    def test_zero_window_disables_dedup(self):
        log, _ = make_log(config=LogConfig(dedup_window_s=0.0))
        assert log.info("e") is not None
        assert log.info("e") is not None
        assert log.n_suppressed == 0


class TestSink:
    def test_sink_receives_one_json_line_per_record(self, tmp_path):
        log, clock = make_log(config=LogConfig(dedup_window_s=0.0))
        path = log.attach_sink(tmp_path / "logs" / "events.jsonl")
        log.info("a", n=1)
        clock.tick(1.0)
        log.warning("b")
        log.close()
        lines = path.read_text().strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["event"] for row in rows] == ["a", "b"]
        assert rows[0] == {
            "ts": 0.0,
            "level": "info",
            "event": "a",
            "trace_id": None,
            "span_id": None,
            "n": 1,
        }

    def test_sink_appends_across_attachments(self, tmp_path):
        log, _ = make_log(config=LogConfig(dedup_window_s=0.0))
        path = tmp_path / "events.jsonl"
        log.attach_sink(path)
        log.info("first")
        log.close()
        log.attach_sink(path)
        log.info("second")
        log.close()
        assert len(path.read_text().strip().splitlines()) == 2

    def test_suppressed_records_never_reach_the_sink(self, tmp_path):
        log, _ = make_log(config=LogConfig(dedup_window_s=60.0))
        path = log.attach_sink(tmp_path / "events.jsonl")
        log.info("e")
        log.info("e")
        log.close()
        assert len(path.read_text().strip().splitlines()) == 1


class TestTraceCorrelation:
    def test_records_carry_current_span_ids(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        log = EventLog(LogConfig(dedup_window_s=0.0), clock=clock, tracer=tracer)
        log.info("outside")
        with tracer.span("request") as span:
            record = log.warning("inside")
        assert log.events()[0].trace_id is None
        assert record.trace_id == span.trace_id
        assert record.span_id == span.span_id

    def test_events_filter_by_trace_id(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        log = EventLog(LogConfig(dedup_window_s=0.0), clock=clock, tracer=tracer)
        with tracer.span("a") as a:
            log.info("ev")
        with tracer.span("b"):
            log.info("ev")
        assert len(log.events(event="ev")) == 2
        assert len(log.events(trace_id=a.trace_id)) == 1

    def test_obs_wires_log_to_its_tracer_and_clock(self):
        obs = Obs(clock=VirtualClock())
        with obs.span("op") as span:
            record = obs.log.info("hello")
        assert record.trace_id == span.trace_id
        assert obs.log.clock is obs.clock


class TestInspection:
    def test_tail_returns_newest_dicts(self):
        log, clock = make_log(config=LogConfig(dedup_window_s=0.0))
        for i in range(4):
            clock.tick(1.0)
            log.info(f"e{i}")
        tail = log.tail(2)
        assert [row["event"] for row in tail] == ["e2", "e3"]
        assert all(isinstance(row, dict) for row in tail)

    def test_tail_of_zero_is_empty_and_negative_is_rejected(self):
        log, _ = make_log(config=LogConfig(dedup_window_s=0.0))
        for i in range(3):
            log.info(f"e{i}")
        assert log.tail(0) == []
        with pytest.raises(ValueError, match="n >= 0"):
            log.tail(-1)

    def test_clear_resets_ring_and_dedup_state(self):
        log, _ = make_log(config=LogConfig(dedup_window_s=60.0))
        log.info("e")
        log.info("e")
        log.clear()
        assert len(log) == 0 and log.n_records == 0 and log.n_suppressed == 0
        assert log.info("e") is not None  # dedup window forgotten


class TestNullEventLog:
    def test_disabled_obs_gets_the_null_log(self):
        obs = Obs(ObsConfig(enabled=False))
        assert isinstance(obs.log, NullEventLog)

    def test_null_log_is_inert(self, tmp_path):
        log = NullEventLog()
        log.attach_sink(tmp_path / "never.jsonl")
        assert log.error("boom") is None
        assert log.events() == ()
        assert log.tail() == []
        assert log.tail(0) == []
        with pytest.raises(ValueError, match="n >= 0"):
            log.tail(-1)
        assert len(log) == 0
        log.close()
        assert not (tmp_path / "never.jsonl").exists()
