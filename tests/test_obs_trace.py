"""Structured tracing: sinks, engine span/instant emission, serializers."""

from __future__ import annotations

import io
import json

import pytest

from repro import TrackedObject, check
from repro.core.stats import PHASES
from repro.obs import (
    INSTANT_NAMES,
    SPAN_NAMES,
    ChromeTraceSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    TeeSink,
    TraceEvent,
    TraceSink,
    validate_chrome_trace,
)


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def trace_len(e):
    if e is None:
        return 0
    return 1 + trace_len(e.next)


def _chain(n):
    head = None
    for v in range(n, 0, -1):
        head = Elem(v, head)
    return head


class TestSinkPrimitives:
    def test_events_emitted_counts(self):
        sink = RingBufferSink()
        sink.span("exec", 1.0, 0.5)
        sink.instant("reuse", 1.2)
        assert sink.events_emitted == 2
        assert len(sink) == 2

    def test_base_sink_requires_record(self):
        sink = TraceSink()
        with pytest.raises(NotImplementedError):
            sink.span("exec", 0.0, 0.0)

    def test_ring_buffer_capacity(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.instant(f"e{i}", float(i))
        assert len(sink) == 3
        assert [e.name for e in sink] == ["e7", "e8", "e9"]
        assert sink.events_emitted == 10  # counter is not windowed

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_span_instant_filters(self):
        sink = RingBufferSink()
        sink.span("exec", 0.0, 1.0, {"n": 1})
        sink.span("prune", 1.0, 0.5)
        sink.instant("reuse", 2.0)
        assert [e.name for e in sink.spans()] == ["exec", "prune"]
        assert sink.spans("exec")[0].args == {"n": 1}
        assert [e.name for e in sink.instants()] == ["reuse"]
        sink.clear()
        assert len(sink) == 0

    def test_event_shape(self):
        sink = RingBufferSink()
        sink.instant("x", 3.0)
        event = sink.events()[0]
        assert isinstance(event, TraceEvent)
        assert event.kind == "instant"
        assert event.dur is None


class TestEngineEmission:
    def test_default_engine_does_not_trace(self, engine_factory):
        engine = engine_factory(trace_len, trace_sink=NullSink())
        assert engine.observer is None
        engine.run(_chain(5))
        assert engine.trace_sink.events_emitted == 0

    def test_initial_run_emits_exec_span(self, engine_factory):
        sink = RingBufferSink()
        engine = engine_factory(trace_len, trace_sink=sink)
        assert engine.observer is sink
        engine.run(_chain(5))
        exec_spans = sink.spans("exec")
        assert len(exec_spans) == 1
        assert exec_spans[0].dur >= 0
        # One node per element; the None call is leaf-inlined.
        assert len(sink.instants("node_exec")) == 5
        assert len(sink.instants("leaf_exec")) == 1

    def test_incremental_run_emits_phase_spans(self, engine_factory):
        sink = RingBufferSink()
        engine = engine_factory(trace_len, trace_sink=sink)
        head = _chain(8)
        engine.run(head)
        sink.clear()
        head.next.next = Elem(99, head.next.next)
        engine.run(head)
        names = {e.name for e in sink.spans()}
        assert {"barrier_drain", "dirty_mark", "exec"} <= names
        assert names <= set(PHASES)
        # The repair reused the unaffected suffix.
        assert sink.instants("reuse")

    def test_sink_swappable_at_runtime(self, engine_factory):
        engine = engine_factory(trace_len, trace_sink=NullSink())
        head = _chain(4)
        engine.run(head)
        ring = RingBufferSink()
        engine.trace_sink = ring
        assert engine.observer is ring
        head.next.next = None
        engine.run(head)
        assert ring.events_emitted > 0
        engine.trace_sink = NullSink()
        assert engine.observer is None

    def test_prune_span_carries_removed_count(self, engine_factory):
        sink = RingBufferSink()
        engine = engine_factory(trace_len, trace_sink=sink)
        head = _chain(6)
        engine.run(head)
        sink.clear()
        head.next.next = None  # drop a 4-node suffix
        engine.run(head)
        prune_spans = sink.spans("prune")
        assert prune_spans
        assert sum(s.args["removed"] for s in prune_spans) == 4


class TestJsonlSink:
    def test_lines_are_json_with_rebased_micros(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.span("exec", 10.0, 0.001, {"n": 2})
        sink.instant("reuse", 10.002)
        sink.close()
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert lines[0]["name"] == "exec"
        assert lines[0]["ts_us"] == 0.0
        assert lines[0]["dur_us"] == pytest.approx(1000.0)
        assert lines[0]["args"] == {"n": 2}
        assert lines[1]["ts_us"] == pytest.approx(2000.0)
        assert "dur_us" not in lines[1]

    def test_path_target_owned(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.instant("x", 1.0)
        sink.close()
        assert json.loads(path.read_text())["name"] == "x"


class TestJsonlFlushAndRotation:
    def test_explicit_flush_makes_lines_visible(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.instant("a", 1.0)
        sink.flush()
        # Visible on disk before close (a tail -f would see it).
        assert path.read_text().count("\n") == 1
        sink.instant("b", 2.0)
        sink.close()
        assert path.read_text().count("\n") == 2

    def test_flush_every_autoflushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), flush_every=3)
        for i in range(5):
            sink.instant("e", float(i))
        # 3 flushed at the threshold; 2 still buffered (at most).
        assert path.read_text().count("\n") >= 3
        sink.close()
        assert path.read_text().count("\n") == 5

    def test_rotation_shifts_backups_and_caps_disk(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), max_bytes=200, backups=2)
        for i in range(40):
            sink.instant("tick", float(i), args={"i": i})
        sink.close()
        assert sink.rotations >= 2
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "events.jsonl", "events.jsonl.1", "events.jsonl.2"
        ]  # nothing past `backups` survives
        # Every surviving file is whole JSON lines under the cap...
        newest_i = None
        for name in ("events.jsonl.2", "events.jsonl.1", "events.jsonl"):
            body = (tmp_path / name).read_bytes()
            assert len(body) <= 200
            for line in body.decode().splitlines():
                event = json.loads(line)
                # ...with timestamps monotone across the concatenation:
                # one clock from the capture's first event.
                if newest_i is not None:
                    assert event["args"]["i"] > newest_i
                newest_i = event["args"]["i"]
        assert newest_i == 39  # the newest event is in the live file

    def test_oversized_line_lands_whole(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), max_bytes=64, backups=1)
        sink.instant("small", 0.0)
        sink.instant("big", 1.0, args={"blob": "x" * 500})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1  # rotated first, then written unsplit
        assert json.loads(lines[0])["args"]["blob"] == "x" * 500

    def test_rotation_rejects_file_objects_and_bad_params(self, tmp_path):
        with pytest.raises(ValueError, match="path target"):
            JsonlSink(io.StringIO(), max_bytes=100)
        with pytest.raises(ValueError, match="max_bytes"):
            JsonlSink(str(tmp_path / "x"), max_bytes=0)
        with pytest.raises(ValueError, match="backups"):
            JsonlSink(str(tmp_path / "x"), max_bytes=10, backups=0)
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(str(tmp_path / "x"), flush_every=0)


class TestTeeSink:
    def test_fans_out_to_all_children(self):
        a, b = RingBufferSink(), RingBufferSink()
        tee = TeeSink([a, b])
        tee.span("exec", 0.0, 1.0, {"n": 1})
        tee.instant("reuse", 2.0)
        for child in (a, b):
            assert [e.name for e in child.events()] == ["exec", "reuse"]
            assert child.spans("exec")[0].args == {"n": 1}
        assert tee.events_emitted == 2

    def test_rejects_non_sinks_and_empty(self):
        with pytest.raises(ValueError):
            TeeSink([])
        with pytest.raises(TypeError):
            TeeSink([RingBufferSink(), "not a sink"])

    def test_close_closes_children(self, tmp_path):
        path = tmp_path / "events.jsonl"
        jsonl = JsonlSink(str(path))
        ring = RingBufferSink()
        tee = TeeSink([jsonl, ring])
        tee.instant("x", 0.0)
        tee.close()
        assert json.loads(path.read_text())["name"] == "x"


class TestNameRegistries:
    def test_span_names_are_engine_phases(self):
        assert SPAN_NAMES == frozenset(PHASES)

    def test_instant_names_include_observability_events(self):
        assert {"profile_sample", "flight_dump",
                "node_exec", "reuse", "misprediction"} <= INSTANT_NAMES
        assert "regression_alert" not in INSTANT_NAMES


class TestChromeTraceSink:
    def test_trace_file_round_trip(self, tmp_path, engine_factory):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(str(path))
        engine = engine_factory(trace_len, trace_sink=sink)
        head = _chain(6)
        engine.run(head)
        head.next.next = None
        engine.run(head)
        sink.close()
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        events = data["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert {"exec"} <= {e["name"] for e in complete}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)

    def test_file_like_target(self):
        buffer = io.StringIO()
        sink = ChromeTraceSink(buffer)
        sink.span("exec", 5.0, 0.25)
        sink.close()
        data = json.loads(buffer.getvalue())
        assert validate_chrome_trace(data) == []


class TestValidateChromeTrace:
    def test_accepts_bare_array(self):
        assert validate_chrome_trace(
            [{"name": "a", "ph": "i", "ts": 0, "s": "t"}]
        ) == []

    def test_flags_bad_ph(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "a", "ph": "Z", "ts": 0}]}
        )
        assert any("bad 'ph'" in p for p in problems)

    def test_flags_missing_dur_on_complete_event(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "a", "ph": "X", "ts": 0}]}
        )
        assert any("'dur'" in p for p in problems)

    def test_flags_negative_ts_and_bad_top_level(self):
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "a", "ph": "i", "ts": -1}]}
        )
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace({"traceEvents": []})  # no events

    def test_strict_raises(self):
        with pytest.raises(ValueError, match="invalid Chrome trace"):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]},
                                  strict=True)

    def test_known_names_checks_registries(self):
        good = {"traceEvents": [
            {"name": "exec", "ph": "X", "ts": 0, "dur": 1},
            {"name": "flight_dump", "ph": "i", "ts": 1, "s": "t"},
        ]}
        assert validate_chrome_trace(good, known_names=True) == []
        bad = {"traceEvents": [
            {"name": "bogus_span", "ph": "X", "ts": 0, "dur": 1},
            {"name": "bogus_instant", "ph": "i", "ts": 1, "s": "t"},
        ]}
        assert validate_chrome_trace(bad) == []  # off by default
        problems = validate_chrome_trace(bad, known_names=True)
        assert len(problems) == 2
        assert any("unknown span name" in p for p in problems)
        assert any("unknown instant name" in p for p in problems)

    def test_unreadable_path(self, tmp_path):
        problems = validate_chrome_trace(str(tmp_path / "missing.json"))
        assert any("unreadable" in p for p in problems)
