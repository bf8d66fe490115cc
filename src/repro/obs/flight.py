"""Black-box flight recorder: bounded always-on capture, dumped on faults.

The interesting run is the one where an engine just fell back to scratch
or diverged from the QA oracle — and by the time a human looks, the
evidence is gone.  The flight recorder keeps a *bounded* ring of recent
run summaries plus a trace slice per engine (constant memory, no I/O on
the happy path) and writes a self-contained JSON artifact the moment a
trigger fires:

* ``scratch_fallback`` — the engine degraded to a from-scratch rebuild
  (detected from the ``scratch_fallbacks`` counter delta);
* ``qa_divergence`` — a differential harness observed the incremental
  answer disagreeing with its oracle (the harness calls :meth:`trigger`).

Artifacts are rate-limited (``max_dumps`` per recorder plus an optional
``min_dump_interval``) so a persistently-sick engine cannot fill a disk,
and each one carries everything ``python -m repro.obs analyze`` needs to
summarize the incident offline: engine identity, cumulative stats and
timers, the fallback-event log, the run-summary ring, and the trace
slice.

The recorder is itself a :class:`~repro.obs.trace.TraceSink` whose trace
slice is a bounded ring: attaching adds it to the engine's observers next
to whatever sink the user installed, and detaching removes it alone.  It
is single-threaded by design: use one recorder per engine, from the
thread that runs the engine.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from .trace import RingBufferSink, TraceEvent, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine

#: Trigger reasons detected from stats deltas, mapped to the counter
#: that reveals them.
_WATCHED_COUNTERS: tuple[tuple[str, str], ...] = (
    ("scratch_fallback", "scratch_fallbacks"),
)

#: All trigger reasons a dump can carry.
TRIGGER_REASONS: frozenset[str] = frozenset(
    {"scratch_fallback", "qa_divergence", "manual"}
)


class FlightRecorder(TraceSink):
    """Bounded black-box capture for one engine.

    Parameters
    ----------
    dump_dir:
        Directory artifacts are written into (created on first dump).
    name:
        Identity embedded in artifact filenames and payloads.
    capacity:
        Run summaries retained (ring; oldest evicted).
    trace_capacity:
        Trace events retained (ring; oldest evicted).
    max_dumps:
        Hard cap on artifacts this recorder will ever write.
    min_dump_interval:
        Minimum seconds between dumps; triggers inside the window are
        counted in ``dumps_suppressed`` instead of written.
    """

    def __init__(
        self,
        dump_dir: str,
        *,
        name: str = "engine",
        capacity: int = 32,
        trace_capacity: int = 512,
        max_dumps: int = 16,
        min_dump_interval: float = 0.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_dumps <= 0:
            raise ValueError(f"max_dumps must be positive, got {max_dumps}")
        self.dump_dir = dump_dir
        self.name = name
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.min_dump_interval = min_dump_interval
        self._clock = clock

        self.engine: Optional["DittoEngine"] = None
        self._ring = RingBufferSink(trace_capacity)
        self._runs: deque[dict] = deque(maxlen=capacity)
        self._watch: dict[str, int] = {}
        self._last_snapshot: dict[str, int] = {}

        #: Paths of artifacts written, oldest first (bounded by
        #: ``max_dumps``).
        self.dumps: list[str] = []
        #: Triggers that fired past the rate limit.
        self.dumps_suppressed = 0
        self._last_dump_at: Optional[float] = None
        self._seq = 0

    # Attachment. -----------------------------------------------------------

    def attach(self, engine: "DittoEngine") -> "FlightRecorder":
        """Add the recorder to ``engine``'s observers and baseline its
        counters.  One engine per recorder."""
        return engine.attach(self)

    def detach(self) -> None:
        """Remove the recorder from its engine, leaving every other
        observer attached."""
        if self.engine is not None:
            self.engine.detach(self)

    def attached(self, engine: "DittoEngine") -> None:
        if self.engine is not None:
            raise ValueError("flight recorder is already attached")
        self.engine = engine
        snapshot = engine.stats.snapshot()
        self._watch = {
            reason: snapshot[counter]
            for reason, counter in _WATCHED_COUNTERS
        }
        self._last_snapshot = snapshot

    def detached(self, engine: "DittoEngine") -> None:
        self.engine = None

    def _record(self, event: TraceEvent) -> None:
        self._ring._record(event)

    # Per-run observation. --------------------------------------------------

    def observe(self) -> Optional[str]:
        """Record a summary of the engine's most recent run and fire any
        stats-delta triggers.  Call after every ``engine.run()``.
        Returns the artifact path if this observation
        triggered a dump, else ``None``."""
        engine = self.engine
        if engine is None:
            raise ValueError("flight recorder is not attached")
        snapshot = engine.stats.snapshot()
        delta = {
            key: snapshot[key] - self._last_snapshot.get(key, 0)
            for key in snapshot
            if snapshot[key] != self._last_snapshot.get(key, 0)
        }
        self._last_snapshot = snapshot
        self._runs.append(
            {
                "ts": self._clock(),
                "run_index": snapshot.get("runs", 0),
                "duration_s": engine.last_duration,
                "phase_times_s": dict(engine.last_phase_times),
                "delta": delta,
                "graph_size": len(engine.table),
            }
        )
        path: Optional[str] = None
        for reason, counter in _WATCHED_COUNTERS:
            current = snapshot[counter]
            if current > self._watch[reason]:
                jumped = current - self._watch[reason]
                self._watch[reason] = current
                attempt = self.trigger(
                    reason, detail=f"{counter} +{jumped}"
                )
                if path is None:
                    path = attempt
        return path

    # Triggers and dumping. -------------------------------------------------

    def trigger(self, reason: str, detail: str = "") -> Optional[str]:
        """Request a dump for ``reason``; honours the rate limits.
        Returns the artifact path, or ``None`` if suppressed."""
        if reason not in TRIGGER_REASONS:
            raise ValueError(
                f"unknown trigger reason {reason!r}; expected one of "
                f"{sorted(TRIGGER_REASONS)}"
            )
        if len(self.dumps) >= self.max_dumps:
            self.dumps_suppressed += 1
            return None
        now = self._clock()
        if (
            self._last_dump_at is not None
            and self.min_dump_interval > 0
            and now - self._last_dump_at < self.min_dump_interval
        ):
            self.dumps_suppressed += 1
            return None
        self._last_dump_at = now
        return self._dump(reason, detail)

    def _dump(self, reason: str, detail: str) -> str:
        engine = self.engine
        if engine is None:
            raise ValueError("flight recorder is not attached")
        os.makedirs(self.dump_dir, exist_ok=True)
        self._seq += 1
        filename = f"flight_{self.name}_{self._seq:03d}_{reason}.json"
        path = os.path.join(self.dump_dir, filename)
        payload = {
            "kind": "flight_dump",
            "schema": 1,
            "name": self.name,
            "reason": reason,
            "detail": detail,
            "wall_time": time.time(),
            "check": engine.entry.name,
            "mode": engine.mode,
            "graph_size": len(engine.table),
            "stats": engine.stats.snapshot(),
            "timers_s": engine.stats.timers(),
            "fallback_events": [
                {
                    "reason": event.reason,
                    "run_index": event.run_index,
                    "duration_s": event.duration,
                    "rebuilt": event.rebuilt,
                    "cooldown": event.cooldown,
                    "detail": event.detail,
                }
                for event in engine.stats.fallback_events
            ],
            "runs": list(self._runs),
            "trace": [
                {
                    "kind": event.kind,
                    "name": event.name,
                    "ts": event.ts,
                    "dur": event.dur,
                    "args": event.args,
                }
                for event in self._ring.events()
            ],
            "dumps_suppressed": self.dumps_suppressed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        self.dumps.append(path)
        engine.observer.instant(
            "flight_dump",
            self._clock(),
            {"reason": reason, "path": path, "detail": detail},
        )
        return path

    # Introspection. --------------------------------------------------------

    def runs(self) -> list[dict]:
        """Retained run summaries, oldest first."""
        return list(self._runs)

    def trace_events(self) -> list[TraceEvent]:
        """Retained trace events, oldest first."""
        return self._ring.events()

    def __len__(self) -> int:
        return len(self._runs)
