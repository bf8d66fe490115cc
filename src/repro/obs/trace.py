"""The observer protocol, the event model and the in-memory sinks.

Every observer of an engine subclasses :class:`Observer`.  The engine holds
one slot, ``engine.observer`` (``None``, the observer, or a :class:`TeeSink`
fan-out over several), changed only by ``engine.attach()`` and
``engine.detach()``; every hot-path guard tests that slot, so with nothing
attached **no hook is called and no event object is ever allocated**.

A :class:`TraceSink` turns the hooks into two kinds of events:

* **spans** — one per run phase (``barrier_drain``, ``dirty_mark``,
  ``exec``, ``propagate``, ``prune``, ``retry``, ``fallback``, ``audit``,
  ``verify``, ``degraded``), carrying a start timestamp and a duration;
* **instants** — the drain's counters (``barrier_drain``), a node
  re-execution (``node_exec``), an optimistic reuse (``reuse``), a
  leaf-call execution (``leaf_exec``), a misprediction (``misprediction``),
  a graceful-degradation episode (``degradation``), and the events
  observers emit themselves (``profile_sample``, ``flight_dump``).

Timestamps are ``time.perf_counter()`` seconds; sinks that serialize
(see :mod:`repro.obs.sinks`) rebase them against the first event so traces
start at zero.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from ..core.stats import PHASES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from ..core.node import ComputationNode
    from ..instrument.registry import CheckFunction


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


class Observer:
    """What an engine calls while it runs.  Every hook does nothing by
    default, so a subclass overrides only the hooks it uses.

    ``attached`` runs before the observer joins an engine's slot (raise
    to refuse), ``detached`` after it left; ``engine.close()`` detaches
    every observer.  Hooks run on the engine's thread, inside its run."""

    __slots__ = ()

    def attached(self, engine: "DittoEngine") -> None:
        """``engine.attach(self)`` is about to add this observer."""

    def detached(self, engine: "DittoEngine") -> None:
        """``engine.detach(self)`` removed this observer."""

    def run_begin(self, engine: "DittoEngine", pending: list, dirty: set,
                  incremental: bool) -> None:
        """The write log drained: ``pending`` locations dirtied ``dirty``."""

    def run_end(self, engine: "DittoEngine", aborted: bool) -> None:
        """The run ended; ``engine.last_duration`` and ``last_phase_times``
        are final."""

    def span(self, name: str, ts: float, dur: float, args=None) -> None:
        """A phase began at ``ts`` and took ``dur`` seconds."""

    def node_begin(self, node: "ComputationNode") -> None:
        """``node``'s body is about to (re-)execute."""

    def node_end(self, node: "ComputationNode", ok: bool, phase: str) -> None:
        """``node``'s body returned (``ok``) or raised, in ``phase``."""

    def reuse(self, node: "ComputationNode") -> None:
        """A call was answered from ``node``'s cached return value."""

    def leaf_call(self, func: "CheckFunction") -> None:
        """A §4 leaf call of ``func`` ran outright, with no node."""

    def misprediction(self, node: "ComputationNode", error: Exception) -> None:
        """``node``'s incremental re-execution raised ``error`` (§3.5)."""

    def pruned(self, nodes: list) -> None:
        """``nodes`` left the graph."""

    def degradation(self, reason: str, cause: BaseException) -> None:
        """The engine fell back to a from-scratch answer."""

    def instant(self, name: str, ts: float, args=None) -> None:
        """A point event observers emit themselves (``profile_sample``,
        ``flight_dump``) through ``engine.observer``."""

    def close(self) -> None:
        """Flush/release whatever the observer holds (default: nothing)."""


class TraceSink(Observer):
    """Base class for trace consumers: turns the hooks into spans and
    instants.

    Subclasses implement :meth:`_record`; :meth:`span` and :meth:`instant`
    count every event in ``events_emitted`` so overhead tests can assert
    exactly how many events a workload produced."""

    def __init__(self) -> None:
        self.events_emitted = 0

    def span(self, name: str, ts: float, dur: float, args=None) -> None:
        """Record a completed phase: began at ``ts``, took ``dur``."""
        self.events_emitted += 1
        self._record(TraceEvent("span", name, ts, dur, args))

    def instant(self, name: str, ts: float, args=None) -> None:
        """Record a point event."""
        self.events_emitted += 1
        self._record(TraceEvent("instant", name, ts, None, args))

    def run_begin(self, engine, pending, dirty, incremental):
        counters = engine.tracking.barrier_counters()
        counters["pending"] = len(pending)
        counters["dirtied"] = len(dirty)
        self.instant("barrier_drain", perf_counter(), counters)

    def node_end(self, node, ok, phase):
        if ok:
            self.instant("node_exec", perf_counter(),
                         {"node": node.func.name, "phase": phase})

    def reuse(self, node):
        self.instant("reuse", perf_counter(), {"node": node.func.name})

    def leaf_call(self, func):
        self.instant("leaf_exec", perf_counter(), {"func": func.name})

    def misprediction(self, node, error):
        self.instant("misprediction", perf_counter(),
                     {"node": node.func.name, "error": repr(error)})

    def degradation(self, reason, cause):
        self.instant("degradation", perf_counter(),
                     {"reason": reason, "cause": repr(cause)})

    def _record(self, event: TraceEvent) -> None:
        raise NotImplementedError


class NullSink(TraceSink):
    """The ``trace_sink`` default: discards everything.

    Setting ``engine.trace_sink`` to a ``NullSink`` (or ``None``) detaches
    the sink instead of attaching this one, so the default costs the hot
    paths nothing."""

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
        return self._select("span", name)

    def instants(self, name: Optional[str] = None) -> list[TraceEvent]:
        """Retained instant events, optionally filtered by name."""
        return self._select("instant", name)

    def _select(self, kind: str, name: Optional[str]) -> list[TraceEvent]:
        return [e for e in self._events
                if e.kind == kind and (name is None or e.name == name)]

    def clear(self) -> None:
        self._events.clear()


class TeeSink(Observer):
    """The fan-out an engine's observer slot holds when several observers
    are attached: every hook goes to each member, in attach order.

    ``events_emitted`` counts the spans and instants it forwarded; closing
    it closes every member."""

    __slots__ = ("members", "events_emitted")

    def __init__(self, members: Iterable[Observer]):
        self.members: tuple[Observer, ...] = tuple(members)
        if not self.members:
            raise ValueError(
                "TeeSink needs at least one member (an empty fan-out "
                "would silently discard every event)"
            )
        for member in self.members:
            if not isinstance(member, Observer):
                raise TypeError(
                    f"TeeSink members must be Observers, got "
                    f"{type(member).__name__}"
                )
        self.events_emitted = 0

    def span(self, name, ts, dur, args=None):
        self.events_emitted += 1
        for member in self.members:
            member.span(name, ts, dur, args)

    def instant(self, name, ts, args=None):
        self.events_emitted += 1
        for member in self.members:
            member.instant(name, ts, args)


def _forward(hook: str):
    def forward(self, *args):
        for member in self.members:
            getattr(member, hook)(*args)

    forward.__name__ = hook
    return forward


# Every other hook fans out unchanged.
for _hook in ("attached", "detached", "run_begin", "run_end", "node_begin",
              "node_end", "reuse", "leaf_call", "misprediction", "pruned",
              "degradation", "close"):
    setattr(TeeSink, _hook, _forward(_hook))


def members(slot: Optional[Observer]) -> tuple[Observer, ...]:
    """The observers attached through an engine's ``observer`` slot."""
    if slot is None:
        return ()
    return slot.members if isinstance(slot, TeeSink) else (slot,)


def fan_out(observers: tuple[Observer, ...]) -> Optional[Observer]:
    """The slot value for ``observers``: ``None``, the lone observer, or a
    :class:`TeeSink` over them (a lone ``TeeSink`` is wrapped, so that
    :func:`members` gives back exactly what was attached)."""
    if len(observers) == 1 and not isinstance(observers[0], TeeSink):
        return observers[0]
    return TeeSink(observers) if observers else None


def find(slot: Optional[Observer], kind: type) -> Optional[Observer]:
    """The first observer of type ``kind`` attached through ``slot``."""
    return next((m for m in members(slot) if isinstance(m, kind)), None)
