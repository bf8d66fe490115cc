"""Continuous regression detection: EWMA streaks, frozen-p99
corroboration, and emission into sinks/metrics.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    RegressionAlert,
    RegressionDetector,
    RingBufferSink,
    parse_prometheus_text,
)


def _warm(det: RegressionDetector, check: str, value: float, n: int):
    for _ in range(n):
        assert det.observe(check, value) == []


class TestEwmaDetector:
    def test_consecutive_breaches_alert_once(self):
        det = RegressionDetector(min_samples=5, consecutive=3, window=16,
                                 p99_threshold=1e9)
        _warm(det, "c", 0.001, 10)
        assert det.observe("c", 0.010) == []   # streak 1
        assert det.observe("c", 0.010) == []   # streak 2
        alerts = det.observe("c", 0.010)       # streak 3 -> alert
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.kind == "ewma"
        assert alert.check == "c"
        assert alert.ratio == pytest.approx(10.0, rel=0.01)
        assert alert.wall_time > 0
        # Re-seeded at the plateau: staying there never re-alerts.
        for _ in range(20):
            assert det.observe("c", 0.010) == []

    def test_single_outlier_never_alerts(self):
        det = RegressionDetector(min_samples=5, consecutive=3, window=16)
        _warm(det, "c", 0.001, 10)
        assert det.observe("c", 0.050) == []   # GC pause
        _warm(det, "c", 0.001, 20)             # streak reset

    def test_further_jump_alerts_again(self):
        det = RegressionDetector(min_samples=5, consecutive=2,
                                 window=256, p99_threshold=1e9)
        _warm(det, "c", 0.001, 10)
        det.observe("c", 0.010)
        assert det.observe("c", 0.010)          # first plateau
        _warm(det, "c", 0.010, 10)
        det.observe("c", 0.100)
        assert det.observe("c", 0.100)          # second plateau

    def test_checks_are_independent(self):
        det = RegressionDetector(min_samples=3, consecutive=1, window=8)
        _warm(det, "a", 0.001, 6)
        _warm(det, "b", 1.000, 6)               # slow but *stable*
        assert det.observe("b", 1.000) == []
        assert det.observe("a", 0.010)          # only a regressed


class TestP99Detector:
    def test_plateau_alerts_lone_outlier_does_not(self):
        det = RegressionDetector(
            min_samples=8, consecutive=3, window=8,
            threshold=100.0,  # park the EWMA detector out of the way
        )
        _warm(det, "c", 0.001, 8)  # freezes p99 at 0.001
        # One outlier rolls through the window: p99(max) breaches but the
        # 3rd-largest sample does not -> corroboration holds it back.
        assert det.observe("c", 0.050) == []
        for _ in range(7):
            assert det.observe("c", 0.001) == []
        # A genuine plateau: three window samples above the bar.
        det.observe("c", 0.050)
        det.observe("c", 0.050)
        alerts = det.observe("c", 0.050)
        assert [a.kind for a in alerts] == ["p99"]
        assert alerts[0].baseline == pytest.approx(0.001)
        # Refrozen at the new level: the same plateau stays quiet.
        for _ in range(16):
            assert det.observe("c", 0.050) == []

    def test_no_alert_before_min_samples(self):
        det = RegressionDetector(min_samples=50, consecutive=1, window=8)
        for _ in range(30):
            assert det.observe("c", 0.001) == []
        assert det.observe("c", 1.0) == []  # still warming up


class TestEmission:
    def test_sink_instant_and_metrics(self):
        sink = RingBufferSink()
        registry = MetricsRegistry()
        det = RegressionDetector(
            min_samples=3, consecutive=1, window=8,
            sink=sink, metrics=registry,
        )
        _warm(det, "c", 0.001, 6)
        assert det.observe("c", 0.010)
        (instant,) = sink.instants("regression_alert")
        assert instant.args["check"] == "c"
        assert instant.args["kind"] == "ewma"
        text = registry.to_prometheus_text()
        parsed = parse_prometheus_text(text)
        total = parsed["ditto_regression_alerts_total"]["samples"]
        assert total["ditto_regression_alerts_total"] == 1.0
        ewma = parsed["ditto_regression_alerts_total_ewma"]["samples"]
        assert ewma["ditto_regression_alerts_total_ewma"] == 1.0

    def test_alert_log_bounded(self):
        from repro.obs.regression import MAX_ALERTS

        det = RegressionDetector(min_samples=2, consecutive=1, window=4)
        value = 0.001
        for _ in range(MAX_ALERTS + 50):
            _warm(det, "c", value, 3)
            value *= 3.0
            det.observe("c", value)
        assert len(det.alerts) == MAX_ALERTS


class TestValidationAndIntrospection:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RegressionDetector(alpha=0.0)
        with pytest.raises(ValueError):
            RegressionDetector(threshold=1.0)
        with pytest.raises(ValueError):
            RegressionDetector(p99_threshold=0.5)
        with pytest.raises(ValueError):
            RegressionDetector(consecutive=0)
        with pytest.raises(ValueError):
            RegressionDetector(min_samples=0)
        with pytest.raises(ValueError):
            RegressionDetector(window=1)

    def test_baseline_and_to_json(self):
        det = RegressionDetector(min_samples=4, consecutive=1, window=8)
        assert det.baseline("c") is None
        _warm(det, "c", 0.002, 6)
        base = det.baseline("c")
        assert base["samples"] == 6
        assert base["ewma_s"] == pytest.approx(0.002)
        assert base["frozen_p99_s"] == pytest.approx(0.002)
        doc = det.to_json()
        assert doc["kind"] == "regression_report"
        assert doc["samples_seen"] == 6
        assert doc["baselines"][0]["check"] == "c"
        assert doc["alerts"] == []
        assert doc["thresholds"]["consecutive"] == 1

    def test_observe_thread_safe(self):
        det = RegressionDetector(min_samples=5, consecutive=3,
                                 window=32)

        def feed():
            for _ in range(500):
                det.observe("c", 0.001)

        threads = [threading.Thread(target=feed) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert det.samples_seen == 2000
        assert det.baseline("c")["samples"] == 2000
        assert list(det.alerts) == []  # constant latency: no alerts


class TestAlertRecord:
    def test_to_dict_shape(self):
        alert = RegressionAlert(
            check="c", kind="ewma", observed=0.01, baseline=0.001,
            ratio=10.0, samples=42, wall_time=123.0,
        )
        assert alert.to_dict() == {
            "check": "c",
            "kind": "ewma",
            "observed_s": 0.01,
            "baseline_s": 0.001,
            "ratio": 10.0,
            "samples": 42,
            "wall_time": 123.0,
        }
