"""Continuous regression detection: rolling baselines over repair latency.

The benchmarks catch regressions at PR time; this module catches them *in
flight* — a structure whose repair cost quietly drifts from O(Δ) toward
O(n) (the exact failure mode DITTO exists to prevent, paper §5) shows up
as a latency trend long before a gate trips.  Two complementary
detectors run per check name:

* **EWMA** — an exponentially-weighted moving average of repair latency
  (``alpha`` per sample).  A sample breaching ``threshold ×`` the current
  average starts a streak; ``consecutive`` breaches in a row raise an
  alert (single outliers — a GC pause, a cold cache — never do).  After
  alerting, the average re-seeds at the breaching level so a persistent
  plateau alerts once, not forever.
* **p99 vs frozen baseline** — a rolling window's p99 compared against
  the p99 *frozen at warmup*.  The EWMA tracks drift and therefore
  forgives slow creep; the frozen p99 does not.  After alerting, the
  baseline re-freezes at the new level (same once-per-plateau rule).

Both detectors gate on ``min_samples`` so cold starts (graph build, JIT
warmup of the interpreter's caches) never alert.  Alerts are
:class:`RegressionAlert` records, kept in a bounded log, optionally
emitted as ``regression_alert`` trace instants and mirrored into a
:class:`~repro.obs.metrics.MetricsRegistry`.

``observe()`` is thread-safe (one lock).  Feed it whatever latency is
most meaningful — ``engine.last_duration`` standalone, or service time
(duration minus queue wait) behind a request queue, so queueing under
load doesn't masquerade as a repair-cost regression.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import MetricsRegistry
    from .trace import TraceSink

#: Alerts retained per detector; oldest dropped first.
MAX_ALERTS = 256


@dataclass
class RegressionAlert:
    """One breached baseline."""

    check: str
    #: ``"ewma"`` or ``"p99"``.
    kind: str
    #: The latency (seconds) that breached.
    observed: float
    #: The baseline it breached against (EWMA value or frozen p99).
    baseline: float
    #: ``observed / baseline``.
    ratio: float
    #: Samples seen for this check when the alert fired.
    samples: int
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "kind": self.kind,
            "observed_s": self.observed,
            "baseline_s": self.baseline,
            "ratio": self.ratio,
            "samples": self.samples,
            "wall_time": self.wall_time,
        }


def _p99(samples: list[float]) -> float:
    """Nearest-rank p99 (no interpolation: deterministic, and exact for
    the small windows used here)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(0.99 * len(ordered))))
    return ordered[rank]


class _CheckBaseline:
    """Per-check detector state."""

    __slots__ = ("ewma", "count", "streak", "window", "frozen_p99")

    def __init__(self, window: int) -> None:
        self.ewma: Optional[float] = None
        self.count = 0
        self.streak = 0
        self.window: deque[float] = deque(maxlen=window)
        self.frozen_p99: Optional[float] = None


class RegressionDetector:
    """Rolling EWMA + frozen-p99 latency baselines, keyed by check name."""

    def __init__(
        self,
        *,
        alpha: float = 0.2,
        threshold: float = 2.0,
        consecutive: int = 3,
        p99_threshold: float = 2.0,
        min_samples: int = 20,
        window: int = 128,
        sink: Optional["TraceSink"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        namespace: str = "ditto",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if threshold <= 1.0 or p99_threshold <= 1.0:
            raise ValueError("thresholds must exceed 1.0")
        if consecutive < 1:
            raise ValueError(f"consecutive must be >= 1, got {consecutive}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.alpha = alpha
        self.threshold = threshold
        self.consecutive = consecutive
        self.p99_threshold = p99_threshold
        self.min_samples = min_samples
        self.window = window
        self.sink = sink
        self.namespace = namespace
        self._clock = clock
        self._metrics = metrics
        self._lock = threading.Lock()
        self._checks: dict[str, _CheckBaseline] = {}
        self.alerts: deque[RegressionAlert] = deque(maxlen=MAX_ALERTS)
        self.samples_seen = 0

    def observe(
        self, check: str, duration: float
    ) -> list[RegressionAlert]:
        """Feed one repair latency; returns the alerts it raised (usually
        empty, at most one per detector kind)."""
        raised: list[RegressionAlert] = []
        with self._lock:
            self.samples_seen += 1
            state = self._checks.get(check)
            if state is None:
                state = _CheckBaseline(self.window)
                self._checks[check] = state
            state.count += 1
            state.window.append(duration)

            # EWMA detector.
            if state.ewma is None:
                state.ewma = duration
            elif state.count <= self.min_samples:
                state.ewma += self.alpha * (duration - state.ewma)
            else:
                baseline = state.ewma
                if baseline > 0 and duration > self.threshold * baseline:
                    state.streak += 1
                    if state.streak >= self.consecutive:
                        raised.append(
                            RegressionAlert(
                                check=check,
                                kind="ewma",
                                observed=duration,
                                baseline=baseline,
                                ratio=duration / baseline,
                                samples=state.count,
                            )
                        )
                        state.streak = 0
                        # Re-seed at the plateau so the same level alerts
                        # once; a *further* jump alerts again.
                        state.ewma = duration
                else:
                    state.streak = 0
                    state.ewma += self.alpha * (duration - state.ewma)

            # Frozen-p99 detector: freeze at warmup, compare when the
            # window is full.
            if state.frozen_p99 is None:
                if state.count >= self.min_samples:
                    state.frozen_p99 = _p99(list(state.window))
            elif len(state.window) == state.window.maxlen:
                ordered = sorted(state.window)
                current = _p99(ordered)
                # Corroboration: on windows this small the nearest-rank
                # p99 *is* the max, so a lone outlier would breach it.
                # Require the `consecutive`-th largest sample to breach
                # too — i.e. at least `consecutive` window samples sit
                # above the bar, the same plateau rule the EWMA uses.
                kth = ordered[-min(self.consecutive, len(ordered))]
                bar = self.p99_threshold * state.frozen_p99
                if state.frozen_p99 > 0 and current > bar and kth > bar:
                    raised.append(
                        RegressionAlert(
                            check=check,
                            kind="p99",
                            observed=current,
                            baseline=state.frozen_p99,
                            ratio=current / state.frozen_p99,
                            samples=state.count,
                        )
                    )
                    state.frozen_p99 = current

            for alert in raised:
                alert.wall_time = time.time()
                self.alerts.append(alert)

        # Emission outside the lock: sinks and registries have their own
        # synchronization story and must not be held under ours.
        for alert in raised:
            self._emit(alert)
        return raised

    def _emit(self, alert: RegressionAlert) -> None:
        sink = self.sink
        if sink is not None:
            sink.instant(
                "regression_alert", self._clock(), alert.to_dict()
            )
        registry = self._metrics
        if registry is not None:
            ns = self.namespace
            registry.counter(
                f"{ns}_regression_alerts_total",
                "Repair-latency baseline breaches (all checks)",
            ).inc()
            registry.counter(
                f"{ns}_regression_alerts_total_{alert.kind}",
                f"Baseline breaches from the {alert.kind} detector",
            ).inc()

    # Introspection. --------------------------------------------------------

    def baseline(self, check: str) -> Optional[dict]:
        """Current baseline state for ``check`` (``None`` before the
        first sample)."""
        with self._lock:
            state = self._checks.get(check)
            if state is None:
                return None
            return {
                "check": check,
                "samples": state.count,
                "ewma_s": state.ewma,
                "frozen_p99_s": state.frozen_p99,
                "window": len(state.window),
                "streak": state.streak,
            }

    def to_json(self) -> dict:
        with self._lock:
            return {
                "kind": "regression_report",
                "samples_seen": self.samples_seen,
                "thresholds": {
                    "alpha": self.alpha,
                    "ewma": self.threshold,
                    "consecutive": self.consecutive,
                    "p99": self.p99_threshold,
                    "min_samples": self.min_samples,
                    "window": self.window,
                },
                "baselines": [
                    {
                        "check": name,
                        "samples": state.count,
                        "ewma_s": state.ewma,
                        "frozen_p99_s": state.frozen_p99,
                    }
                    for name, state in sorted(self._checks.items())
                ],
                "alerts": [a.to_dict() for a in self.alerts],
            }
