"""Structured tracing: the event model and the in-memory sinks.

The engine emits two kinds of events while it runs:

* **spans** — one per run phase (``barrier_drain``, ``dirty_mark``,
  ``exec``, ``propagate``, ``prune``, ``retry``, ``fallback``, ``audit``,
  ``verify``, ``degraded``), carrying a start timestamp and a duration;
* **instants** — point events for the interesting moments inside a phase:
  a node re-execution (``node_exec``), an optimistic reuse (``reuse``), a
  leaf-call execution (``leaf_exec``), a misprediction (``misprediction``),
  and a graceful-degradation episode (``degradation``).

Timestamps are ``time.perf_counter()`` seconds; sinks that serialize
(see :mod:`repro.obs.sinks`) rebase them against the first event so traces
start at zero.

The hot-path contract: the engine checks a single boolean before building
any event, so with the default :class:`NullSink` **no event object is ever
allocated** — ``events_emitted`` staying at zero is the test suite's proof.
Attaching any other sink flips the boolean and every event reaches the
sink's :meth:`TraceSink._record`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple, Optional

from ..core.stats import PHASES

#: Canonical span names: exactly the engine's run phases.
SPAN_NAMES: frozenset[str] = frozenset(PHASES)

#: Canonical instant names.  ``validate_chrome_trace(known_names=True)``
#: checks emitted events against these, so additions here are the single
#: point of schema evolution:
#:
#: * engine hot path — ``barrier_drain`` (drain counters), ``node_exec``,
#:   ``reuse``, ``leaf_exec``, ``misprediction``, ``degradation``;
#: * profiler (:mod:`repro.obs.profiler`) — ``profile_sample``, one per
#:   recorded run;
#: * flight recorder (:mod:`repro.obs.flight`) — ``flight_dump``, one per
#:   triggered artifact.
INSTANT_NAMES: frozenset[str] = frozenset(
    {
        "barrier_drain",
        "node_exec",
        "reuse",
        "leaf_exec",
        "misprediction",
        "degradation",
        "profile_sample",
        "flight_dump",
    }
)


class TraceEvent(NamedTuple):
    """One trace record.  ``dur`` is ``None`` for instant events."""

    kind: str  # "span" | "instant"
    name: str
    ts: float  # perf_counter seconds
    dur: Optional[float]  # seconds; None for instants
    args: Optional[dict]


class TraceSink:
    """Base class for trace consumers.

    Subclasses implement :meth:`_record`; the public :meth:`span` /
    :meth:`instant` entry points count every event in ``events_emitted``
    so overhead tests can assert exactly how many events a workload
    produced (zero, for a disabled engine)."""

    def __init__(self) -> None:
        self.events_emitted = 0

    def span(
        self,
        name: str,
        ts: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed phase: began at ``ts``, took ``dur``."""
        self.events_emitted += 1
        self._record(TraceEvent("span", name, ts, dur, args))

    def instant(
        self, name: str, ts: float, args: Optional[dict] = None
    ) -> None:
        """Record a point event."""
        self.events_emitted += 1
        self._record(TraceEvent("instant", name, ts, None, args))

    def _record(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release whatever the sink holds (default: nothing)."""


class NullSink(TraceSink):
    """The default sink: discards everything.

    The engine special-cases it — hot paths never even call into a
    ``NullSink`` (they check ``engine.tracing`` first), so attaching the
    default sink costs one boolean test per phase and nothing per node."""

    def _record(self, event: TraceEvent) -> None:  # pragma: no cover
        pass


class RingBufferSink(TraceSink):
    """Keep the most recent ``capacity`` events in memory.

    The flight-recorder sink: cheap enough to leave attached in a soak
    (bounded memory, no I/O), and the test suite's standard sink for
    asserting *what* the engine emitted."""

    def __init__(self, capacity: int = 4096):
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def _record(self, event: TraceEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self) -> list[TraceEvent]:
        """All retained events, oldest first."""
        return list(self._events)

    def spans(self, name: Optional[str] = None) -> list[TraceEvent]:
        """Retained span events, optionally filtered by phase name."""
        return [
            e
            for e in self._events
            if e.kind == "span" and (name is None or e.name == name)
        ]

    def instants(self, name: Optional[str] = None) -> list[TraceEvent]:
        """Retained instant events, optionally filtered by name."""
        return [
            e
            for e in self._events
            if e.kind == "instant" and (name is None or e.name == name)
        ]

    def clear(self) -> None:
        self._events.clear()


class TeeSink(TraceSink):
    """Fan every event out to several child sinks.

    The flight recorder uses this to splice its bounded ring into an
    engine without displacing whatever sink the user already attached:
    ``engine.trace_sink = TeeSink([user_sink, ring])``.  Children count
    their own ``events_emitted``; closing the tee closes every child."""

    def __init__(self, sinks: Iterable[TraceSink]):
        super().__init__()
        self.sinks: tuple[TraceSink, ...] = tuple(sinks)
        if not self.sinks:
            raise ValueError(
                "TeeSink needs at least one child sink (an empty tee "
                "would silently discard every event)"
            )
        for sink in self.sinks:
            if not isinstance(sink, TraceSink):
                raise TypeError(
                    f"TeeSink children must be TraceSinks, got "
                    f"{type(sink).__name__}"
                )

    def span(
        self,
        name: str,
        ts: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        self.events_emitted += 1
        for sink in self.sinks:
            sink.span(name, ts, dur, args)

    def instant(
        self, name: str, ts: float, args: Optional[dict] = None
    ) -> None:
        self.events_emitted += 1
        for sink in self.sinks:
            sink.instant(name, ts, args)

    def _record(self, event: TraceEvent) -> None:  # pragma: no cover
        for sink in self.sinks:
            sink._record(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
