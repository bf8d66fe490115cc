"""Fault injection: prove detection and recovery instead of assuming them.

The resilience tests need to *cause* the failure modes the engine claims
to survive.  :class:`FaultPlan` describes a deterministic set of faults
and :func:`inject_faults` arms them against one engine inside a ``with``
block:

* **Dropped write barriers** — the global write log silently discards the
  next ``drop_writes`` monitored mutations (or every mutation matching
  ``drop_filter``).  The graph then goes stale without ever being marked
  dirty: the exact corruption paranoia verification exists to catch.
* **Corrupted cached returns** — ``corrupt_returns`` memoized return
  values (deepest nodes first, never the anchor) are rewritten in place
  with ``corrupt_value``; optimistic reuse will serve them verbatim.
* **Exceptions mid-repair** — the engine's compiled check functions are
  wrapped so that, during *incremental* runs only, invocations numbered
  in ``raise_on_calls`` (1-based, counted across the block) raise
  :class:`InjectedFault` instead of executing.  Because the raise happens
  inside ``_exec``'s compiled call, it exercises the §3.5 misprediction
  machinery first and the degradation layer only on persistent failure.

All faults are reverted on block exit; the injector reports what actually
fired via its counters so tests can assert the fault happened at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.node import ComputationNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from ..core.locations import Location


class InjectedFault(RuntimeError):
    """Raised by an armed fault plan inside the repair machinery.

    Deliberately *not* a :class:`~repro.core.errors.DittoError`: it models
    an arbitrary crash inside the incremental machinery, which the engine
    must treat as untrusted rather than understood.
    """


def _default_corruption(value: Any) -> Any:
    """Flip/perturb a primitive so it stays a primitive but compares
    unequal (type-preserving where possible, so the corruption survives
    the engine's ``_same_value`` type check)."""
    if value is True or value is False:
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "☠"
    return -1


@dataclass
class FaultPlan:
    """A deterministic set of faults to arm with :func:`inject_faults`."""

    #: Drop the next N monitored write-barrier log entries (0 = none,
    #: combine with ``drop_filter`` to drop selectively).
    drop_writes: int = 0
    #: Optional predicate ``Location -> bool``; only matching writes count
    #: against (and are dropped by) the ``drop_writes`` budget.
    drop_filter: Optional[Callable[["Location"], bool]] = None
    #: Corrupt up to N cached return values at arming time.
    corrupt_returns: int = 0
    #: How to corrupt a cached value (defaults to a type-preserving flip).
    corrupt_value: Callable[[Any], Any] = _default_corruption
    #: 1-based indices of incremental check invocations that raise
    #: :class:`InjectedFault`; e.g. ``{1, 2, 3}`` makes the first three
    #: re-executions fail (enough to exhaust misprediction retries).
    raise_on_calls: frozenset[int] = frozenset()
    #: Exception factory for the raise faults.
    raise_exception: Callable[[int], BaseException] = field(
        default=lambda n: InjectedFault(f"injected fault on call #{n}")
    )

    @classmethod
    def persistent_exceptions(cls, upto: int = 64) -> "FaultPlan":
        """Every incremental invocation up to ``upto`` raises — enough to
        exhaust the §3.5 retries and force the degradation layer."""
        return cls(raise_on_calls=frozenset(range(1, upto + 1)))


class FaultInjector:
    """Armed faults for one engine; also the record of what fired."""

    def __init__(self, engine: "DittoEngine", plan: FaultPlan):
        self.engine = engine
        self.plan = plan
        #: Write-barrier entries actually dropped.
        self.writes_dropped = 0
        #: Nodes whose cached return value was corrupted.
        self.returns_corrupted = 0
        #: Injected exceptions actually raised.
        self.faults_raised = 0
        self._incremental_calls = 0
        self._armed = False
        self._saved_compiled: dict[int, Any] = {}

    # Arming / disarming. ----------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        plan = self.plan
        if plan.drop_writes > 0:
            # The write log is shared, so every engine consuming it loses
            # the dropped writes, not only the target.
            log = self.engine.tracking.write_log
            if log.fault_hook is not None:
                raise RuntimeError("another fault hook is already armed")
            log.fault_hook = self._maybe_drop
        if plan.corrupt_returns > 0:
            self._corrupt_cached_returns()
        if plan.raise_on_calls:
            self._saved_compiled = dict(self.engine._compiled)
            for uid, compiled in self._saved_compiled.items():
                self.engine._compiled[uid] = self._wrap_compiled(compiled)
        self._armed = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if not self._armed:
            return
        self._armed = False
        if self.plan.drop_writes > 0:
            self.engine.tracking.write_log.fault_hook = None
        if self._saved_compiled:
            self.engine._compiled.update(self._saved_compiled)
            self._saved_compiled = {}

    # Fault implementations. -------------------------------------------------

    def _maybe_drop(self, location: "Location") -> bool:
        if self.writes_dropped >= self.plan.drop_writes:
            return False
        if self.plan.drop_filter is not None and not self.plan.drop_filter(
            location
        ):
            return False
        self.writes_dropped += 1
        return True

    def _corrupt_cached_returns(self) -> None:
        # Deepest nodes first: their values were optimistically reused the
        # most, so the corruption exercises the widest reuse surface.
        victims = sorted(
            (n for n in self.engine.table if n.has_result),
            key=ComputationNode.sort_token,
            reverse=True,
        )
        for node in victims[: self.plan.corrupt_returns]:
            node.return_val = self.plan.corrupt_value(node.return_val)
            self.returns_corrupted += 1

    def _wrap_compiled(self, compiled: Any) -> Any:
        def faulty(*args: Any) -> Any:
            if self._armed and self.engine.in_incremental_run:
                self._incremental_calls += 1
                if self._incremental_calls in self.plan.raise_on_calls:
                    self.faults_raised += 1
                    raise self.plan.raise_exception(self._incremental_calls)
            return compiled(*args)

        return faulty


def inject_faults(engine: "DittoEngine", plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` against ``engine``; use as a context manager::

        with inject_faults(engine, FaultPlan(drop_writes=5)) as injector:
            mutate(structure)          # barriers silently lost
            engine.run(head)           # paranoia catches the stale graph
        assert injector.writes_dropped == 5
    """
    return FaultInjector(engine, plan)
