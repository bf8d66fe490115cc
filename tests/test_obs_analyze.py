"""Offline analyzer: document classification, summaries, bench-history
gating, and the acceptance path — the flight artifact of a real scratch
fallback read back and summarized by ``python -m repro.obs analyze``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import FlightRecorder
from repro.obs.analyze import (
    analyze,
    diff_bench,
    diff_traces,
    load_document,
    summarize_flight_dump,
    summarize_profile,
    summarize_trace,
)
from repro.structures import OrderedIntList, is_ordered

BENCH = {
    "benchmark": "serving",
    "p50_ms": 3.0,
    "p99_ms": 90.0,
    "serve_seconds": 2.0,
    "setup_seconds": 5.0,
    "nested": {"filter_on": {"seconds": 0.5}},
    "speedup": 18.0,
    "statuses": {"ok": 100},
}


class TestClassification:
    def test_kinds_by_document(self, tmp_path):
        cases = {
            "flight.json": ({"kind": "flight_dump"}, "flight_dump"),
            "profile.json": ({"kind": "repair_profile"},
                             "repair_profile"),
            "report.json": ({"kind": "regression_report"}, "unknown"),
            "BENCH_x.json": (BENCH, "bench"),
            "chrome.json": ({"traceEvents": []}, "chrome_trace"),
            "other.json": ({"hello": 1}, "unknown"),
        }
        for name, (doc, expected) in cases.items():
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            kind, _ = load_document(str(path))
            assert kind == expected, name

    def test_jsonl_by_extension_and_content(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "span", "name": "exec", "ts_us": 0, "dur_us": 5}\n'
            '{"kind": "instant", "name": "reuse", "ts_us": 6}\n'
        )
        kind, events = load_document(str(path))
        assert kind == "trace_jsonl"
        assert len(events) == 2
        # Same content without the extension still classifies by shape.
        path2 = tmp_path / "trace.log"
        path2.write_text(path.read_text())
        kind2, events2 = load_document(str(path2))
        assert kind2 == "trace_jsonl"
        assert events2 == events

    def test_corrupt_jsonl_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_document(str(path))


class TestSummaries:
    def test_trace_summary_aggregates_spans(self):
        events = [
            {"kind": "span", "name": "exec", "dur_us": 1000.0},
            {"kind": "span", "name": "exec", "dur_us": 3000.0},
            {"kind": "instant", "name": "reuse"},
        ]
        text = summarize_trace(events)
        assert "span exec: 2 x" in text
        assert "total 4.000ms" in text
        assert "mean 2.0000ms" in text
        assert "instant reuse: 1 x" in text

    def test_summaries_tolerate_minimal_documents(self):
        assert "flight dump" in summarize_flight_dump(
            {"kind": "flight_dump"}
        )
        assert "repair profile" in summarize_profile(
            {"kind": "repair_profile"}
        )


class TestDiffBench:
    def test_lower_better_drift(self):
        current = dict(BENCH, p99_ms=270.0)
        (drift,) = diff_bench(current, BENCH, threshold=1.5)
        assert drift["metric"] == "p99_ms"
        assert drift["ratio"] == pytest.approx(3.0)
        assert drift["direction"] == "lower-is-better"

    def test_higher_better_drift(self):
        current = dict(BENCH, speedup=6.0)
        (drift,) = diff_bench(current, BENCH, threshold=1.5)
        assert drift["metric"] == "speedup"
        assert drift["direction"] == "higher-is-better"

    def test_nested_keys_and_ungated_noise(self):
        current = json.loads(json.dumps(BENCH))
        current["nested"]["filter_on"]["seconds"] = 2.0   # 4x: gated
        current["setup_seconds"] = 100.0                  # noisy: ignored
        current["statuses"]["ok"] = 1                     # count: ignored
        drifts = diff_bench(current, BENCH, threshold=1.5)
        assert [d["metric"] for d in drifts] == [
            "nested.filter_on.seconds"
        ]

    def test_within_threshold_is_quiet(self):
        current = dict(BENCH, p99_ms=120.0)  # 1.33x < 1.5x
        assert diff_bench(current, BENCH, threshold=1.5) == []

    def test_identity_is_quiet(self):
        assert diff_bench(BENCH, BENCH, threshold=1.5) == []


class TestDiffTraces:
    def test_span_total_drift(self):
        before = [{"kind": "span", "name": "exec", "dur_us": 100.0}]
        after = [
            {"kind": "span", "name": "exec", "dur_us": 180.0},
            {"kind": "instant", "name": "reuse"},
        ]
        (drift,) = diff_traces(before, after, threshold=1.5)
        assert drift["metric"] == "span.exec.total_us"
        assert drift["ratio"] == pytest.approx(1.8)
        # Shrinkage past the inverse threshold reports too.
        (shrink,) = diff_traces(after, before, threshold=1.5)
        assert shrink["ratio"] == pytest.approx(1 / 1.8)


class TestCli:
    def test_usage_errors_exit_2(self, capsys, tmp_path):
        assert analyze([]) == 2
        missing = str(tmp_path / "missing.json")
        assert analyze([missing]) == 2
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps(BENCH))
        assert analyze([str(bench), "--threshold", "0.9"]) == 2

    def test_gate_passes_and_fails(self, capsys, tmp_path):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        (baseline_dir / "BENCH_x.json").write_text(json.dumps(BENCH))
        current = tmp_path / "BENCH_x.json"
        current.write_text(json.dumps(BENCH))
        assert analyze([str(current), "--against", str(baseline_dir),
                        "--gate"]) == 0
        assert "no drift" in capsys.readouterr().out
        current.write_text(json.dumps(dict(BENCH, p99_ms=500.0)))
        assert analyze([str(current), "--against", str(baseline_dir),
                        "--gate"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT p99_ms" in out
        assert "GATE FAILURE" in out
        # Without --gate the drift is reported but does not fail.
        assert analyze([str(current), "--against",
                        str(baseline_dir)]) == 0

    def test_missing_baseline_is_skipped(self, capsys, tmp_path):
        current = tmp_path / "BENCH_new.json"
        current.write_text(json.dumps(BENCH))
        empty = tmp_path / "empty"
        empty.mkdir()
        assert analyze([str(current), "--against", str(empty),
                        "--gate"]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_json_record(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps(dict(BENCH, p99_ms=500.0)))
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "BENCH_x.json").write_text(json.dumps(BENCH))
        out_path = tmp_path / "analysis.json"
        analyze([str(bench), "--against", str(baseline_dir),
                 "--json", str(out_path)])
        record = json.loads(out_path.read_text())
        assert record["documents"][0]["kind"] == "bench"
        assert record["drifts"][0]["metric"] == "p99_ms"

    def test_module_entrypoint(self, tmp_path):
        import subprocess
        import sys

        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps(BENCH))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "analyze", str(bench)],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "bench record: serving" in proc.stdout


class TestAcceptance:
    def test_step_limit_fallback_artifact_reads_back(
        self, capsys, engine_factory, tmp_path
    ):
        """A real engine fault writes a flight artifact the analyzer
        summarizes: a tight step limit forces a scratch fallback, and the
        recorder's next observation dumps it."""
        engine = engine_factory(is_ordered, step_limit=1)
        recorder = FlightRecorder(str(tmp_path), name="t0").attach(engine)
        lst = OrderedIntList()
        for value in range(0, 40, 2):
            lst.insert(value)
        assert engine.run(lst.head) is True  # full runs are never limited
        assert recorder.observe() is None
        lst.insert(21)
        assert engine.run(lst.head) is is_ordered(lst.head) is True
        assert engine.stats.fallback_reasons == {"step_limit": 1}
        path = recorder.observe()
        assert path is not None
        assert analyze([path]) == 0
        out = capsys.readouterr().out
        assert "[flight_dump]" in out
        assert "trigger: scratch_fallback" in out
        assert "black box:" in out
        assert "is_ordered" in out
