"""Black-box flight recorder: triggers, rate limits and bounded memory.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import DittoEngine
from repro.obs import FlightRecorder, NullSink, RingBufferSink
from repro.obs.trace import TeeSink
from repro.structures import OrderedIntList, is_ordered


def _build_list(size: int) -> OrderedIntList:
    lst = OrderedIntList()
    for v in range(size):
        lst.insert(v)
    return lst


@pytest.fixture
def recorder_engine(engine_factory, tmp_path):
    engine = engine_factory(is_ordered, trace_sink=NullSink())
    recorder = FlightRecorder(str(tmp_path), name="t0").attach(engine)
    return recorder, engine, tmp_path


class TestAttachment:
    def test_null_sink_replaced_by_ring(self, recorder_engine):
        """With no sink, the recorder's bounded ring is the engine's only
        observer; the ``trace_sink`` door stays empty."""
        recorder, engine, _ = recorder_engine
        assert engine.observer is recorder
        assert isinstance(engine.trace_sink, NullSink)

    def test_existing_sink_preserved_via_tee(self, engine_factory,
                                             tmp_path):
        user_sink = RingBufferSink()
        engine = engine_factory(is_ordered, trace_sink=user_sink)
        recorder = FlightRecorder(str(tmp_path)).attach(engine)
        tee = engine.observer
        assert isinstance(tee, TeeSink)
        assert tee.members == (user_sink, recorder)
        assert engine.trace_sink is user_sink
        lst = _build_list(5)
        engine.run(lst.head)
        # Both the user's sink and the black-box ring saw the run.
        assert user_sink.events_emitted > 0
        assert recorder.trace_events()
        recorder.detach()
        assert engine.trace_sink is user_sink
        assert engine.observer is user_sink

    def test_setting_the_sink_keeps_the_recorder(self, recorder_engine):
        """Setting ``trace_sink`` after attach replaces only the sink: the
        recorder's ring keeps receiving every event."""
        recorder, engine, _ = recorder_engine
        lst = _build_list(5)
        engine.run(lst.head)
        before = len(recorder.trace_events())
        user_sink = RingBufferSink()
        engine.trace_sink = user_sink
        lst.insert(3)
        engine.run(lst.head)
        assert user_sink.events_emitted > 0
        assert len(recorder.trace_events()) == before + len(user_sink)

    def test_detach_keeps_a_sink_set_after_attach(self, recorder_engine):
        """Detaching removes the recorder alone, never a sink the user set
        while it was attached."""
        recorder, engine, _ = recorder_engine
        user_sink = RingBufferSink()
        engine.trace_sink = user_sink
        recorder.detach()
        assert engine.trace_sink is user_sink
        assert engine.observer is user_sink
        assert recorder.engine is None

    def test_double_attach_rejected(self, recorder_engine,
                                    engine_factory, tmp_path):
        recorder, _, _ = recorder_engine
        other = engine_factory(is_ordered)
        with pytest.raises(ValueError, match="already attached"):
            recorder.attach(other)

    def test_observe_requires_attachment(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        with pytest.raises(ValueError, match="not attached"):
            recorder.observe()

    def test_rejects_bad_limits(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(str(tmp_path), capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(str(tmp_path), max_dumps=0)


class TestTriggers:
    def test_counter_delta_triggers_dump(self, recorder_engine):
        recorder, engine, tmp_path = recorder_engine
        lst = _build_list(10)
        engine.run(lst.head)
        assert recorder.observe() is None  # healthy run: no dump
        # Simulate the engine falling back to scratch.
        engine.stats.scratch_fallbacks += 1
        path = recorder.observe()
        assert path is not None and os.path.exists(path)
        assert "scratch_fallback" in os.path.basename(path)
        # The delta was consumed: the next observation is quiet again.
        assert recorder.observe() is None

    def test_explicit_trigger_reasons(self, recorder_engine):
        recorder, engine, _ = recorder_engine
        lst = _build_list(5)
        engine.run(lst.head)
        path = recorder.trigger("qa_divergence", detail="status=error")
        assert path is not None
        doc = json.load(open(path))
        assert doc["reason"] == "qa_divergence"
        assert doc["detail"] == "status=error"
        with pytest.raises(ValueError, match="unknown trigger reason"):
            recorder.trigger("disk_full")

    def test_dump_is_self_contained(self, recorder_engine):
        recorder, engine, _ = recorder_engine
        lst = _build_list(10)
        engine.run(lst.head)
        recorder.observe()
        lst.insert(4)
        engine.run(lst.head)
        recorder.observe()
        path = recorder.trigger("manual")
        doc = json.load(open(path))
        assert doc["kind"] == "flight_dump"
        assert doc["schema"] == 1
        assert doc["check"] == "is_ordered"
        assert doc["name"] == "t0"
        assert doc["stats"]["runs"] == 2
        assert len(doc["runs"]) == 2
        assert doc["runs"][-1]["duration_s"] >= 0
        assert doc["runs"][-1]["delta"]  # incremental run moved counters
        assert doc["trace"]  # the ring captured span events
        assert "timers_s" in doc and "fallback_events" in doc

    def test_dump_emits_flight_dump_instant(self, recorder_engine):
        recorder, engine, _ = recorder_engine
        lst = _build_list(5)
        engine.run(lst.head)
        recorder.trigger("manual")
        ring_events = [e for e in recorder.trace_events()
                       if e.name == "flight_dump"]
        assert len(ring_events) == 1
        assert ring_events[0].args["reason"] == "manual"


class TestRateLimits:
    def test_max_dumps_cap(self, recorder_engine):
        recorder, engine, _ = recorder_engine
        recorder.max_dumps = 2
        lst = _build_list(5)
        engine.run(lst.head)
        assert recorder.trigger("manual") is not None
        assert recorder.trigger("manual") is not None
        assert recorder.trigger("manual") is None
        assert len(recorder.dumps) == 2
        assert recorder.dumps_suppressed == 1

    def test_min_dump_interval(self, engine_factory, tmp_path):
        fake_now = [0.0]
        recorder = FlightRecorder(
            str(tmp_path), min_dump_interval=5.0,
            clock=lambda: fake_now[0],
        )
        engine = engine_factory(is_ordered)
        recorder.attach(engine)
        engine.run(_build_list(5).head)
        assert recorder.trigger("manual") is not None
        fake_now[0] = 2.0  # inside the window
        assert recorder.trigger("manual") is None
        assert recorder.dumps_suppressed == 1
        fake_now[0] = 6.0  # past it
        assert recorder.trigger("manual") is not None


class TestBoundedMemory:
    def test_rings_constant_over_10k_runs(self, engine_factory, tmp_path):
        """Satellite: the black box must be constant-memory no matter how
        long the engine lives."""
        recorder = FlightRecorder(
            str(tmp_path), capacity=32, trace_capacity=128,
        )
        engine = engine_factory(is_ordered, trace_sink=NullSink())
        recorder.attach(engine)
        lst = _build_list(50)
        engine.run(lst.head)
        for i in range(10_000):
            if i % 100 == 0:  # real incremental runs, sparsely
                lst.insert(i)
                engine.run(lst.head)
            recorder.observe()
        assert len(recorder) == 32
        assert len(recorder.runs()) == 32
        assert len(recorder.trace_events()) <= 128
        assert recorder.dumps == []  # healthy soak: not one artifact
        # The ring holds the *latest* summaries.
        assert recorder.runs()[-1]["run_index"] == engine.stats.runs
