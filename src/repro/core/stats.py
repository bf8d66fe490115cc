"""Execution statistics for a :class:`~repro.core.engine.DittoEngine`.

The counters make the incrementalizer's behaviour observable: tests assert,
for example, that inserting one element into a 1000-element ordered list
re-executes O(1) nodes, and the ablation benchmarks report how many node
executions each strategy performs.

Beyond the plain counters, the stats object is the resilience layer's
flight recorder: every graph-discarding fallback is appended to
``fallback_events`` as a :class:`FallbackEvent` (reason, run index,
recovery duration, whether the graph was rebuilt), and ``fallback_reasons``
aggregates the same events by reason string.

It is also the observability layer's accumulator: the engine adds the
wall-clock seconds of every run phase (barrier drain, dirty marking,
execution, return-value propagation, pruning, misprediction retry,
fallback recovery, audits, verification) to the ``time_*`` fields, so the
paper's overhead breakdown (Figures 11-13 measure *where* repair time
goes) can be reported without attaching a trace sink.

The contract between the counters and :meth:`EngineStats.snapshot` /
:meth:`EngineStats.delta` is a *declared* field set: ``COUNTER_FIELDS``
lists the per-run-subtractable integers, ``TIMER_FIELDS`` the wall-clock
accumulators, and ``LOG_FIELDS`` the cumulative logs.  Snapshots cover
exactly ``COUNTER_FIELDS`` — adding a field to the dataclass without
classifying it fails the test suite rather than silently changing what
``delta()`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

#: Run phases the engine times, in execution order.  ``barrier_drain``
#: through ``retry`` partition one incremental run; ``prune`` is nested
#: inside ``exec``/``propagate`` (it times the pruning cascades those
#: phases trigger); ``fallback`` wraps a whole recovery (including the
#: phases of the rebuild run it performs); ``audit``/``verify`` are the
#: paranoia-mode passes; ``degraded`` is a run served by the
#: uninstrumented check during a degradation cooldown.
PHASES = (
    "barrier_drain",
    "dirty_mark",
    "exec",
    "propagate",
    "prune",
    "retry",
    "fallback",
    "audit",
    "verify",
    "degraded",
)


@dataclass
class FallbackEvent:
    """One graceful-degradation episode: why the engine distrusted its
    graph, when, how long recovery took, and what it recovered to."""

    #: Why the graph was discarded: ``"step_limit"``, ``"repair_exception"``,
    #: ``"audit_failure"``, or ``"verify_mismatch"``.
    reason: str
    #: Value of ``stats.runs`` when the fallback fired (1-based).
    run_index: int
    #: Wall-clock seconds spent producing the replacement answer.
    duration: float
    #: True when the graph was rebuilt in place (incremental mode stays on);
    #: False when the engine answered from the uninstrumented check and
    #: entered a scratch-mode cooldown.
    rebuilt: bool
    #: Scratch-only runs scheduled before incremental mode is retried
    #: (-1 = permanent: the policy's ``give_up_after`` was exceeded).
    cooldown: int = 0
    #: ``repr()`` of the triggering exception or audit report.
    detail: str = ""


@dataclass
class EngineStats:
    """Counters accumulated over an engine's lifetime (see also
    :meth:`snapshot` / :meth:`delta` for per-run accounting)."""

    runs: int = 0
    full_runs: int = 0
    incremental_runs: int = 0
    #: Node (re-)executions, total and split by phase.
    execs: int = 0
    initial_execs: int = 0
    dirty_execs: int = 0
    propagation_execs: int = 0
    retry_execs: int = 0
    #: Memo-table reuse events (optimistic or validated).
    reuses: int = 0
    #: Naive-mode call replays (child return-value validations).
    replays: int = 0
    leaf_execs: int = 0
    nodes_created: int = 0
    nodes_pruned: int = 0
    dirty_marked: int = 0
    #: Re-executions that raised and were deferred to the retry phase.
    mispredictions: int = 0
    #: Graph-discarding fallbacks to a from-scratch run (all reasons).
    scratch_fallbacks: int = 0
    implicit_reads: int = 0
    #: Pure helper/method dispatches from instrumented code.
    helper_calls: int = 0
    #: Runs served by the uninstrumented check during a degradation cooldown.
    degraded_runs: int = 0
    #: Graph audits performed (``engine.audit()`` / paranoia mode) and how
    #: many of them reported findings.
    audits: int = 0
    audit_failures: int = 0
    #: Paranoia cross-checks against the uninstrumented check, and how many
    #: caught a divergent incremental result.
    verify_checks: int = 0
    verify_mismatches: int = 0
    #: Whole-program lint passes (:meth:`DittoEngine.lint` plus the
    #: construction-time pass) and the findings they produced.
    lint_runs: int = 0
    lint_errors: int = 0
    lint_warnings: int = 0
    #: Per-phase wall-clock accumulators (seconds over the engine's
    #: lifetime); one per entry of :data:`PHASES`.
    time_barrier_drain: float = 0.0
    time_dirty_mark: float = 0.0
    time_exec: float = 0.0
    time_propagate: float = 0.0
    time_prune: float = 0.0
    time_retry: float = 0.0
    time_fallback: float = 0.0
    time_audit: float = 0.0
    time_verify: float = 0.0
    time_degraded: float = 0.0
    #: Per-reason fallback totals, e.g. ``{"step_limit": 2}``.
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    #: Chronological log of degradation episodes.
    fallback_events: list[FallbackEvent] = field(default_factory=list)

    #: Cap on the ``fallback_events`` log; oldest entries are dropped first
    #: so a persistently-faulting engine cannot grow without bound.
    MAX_FALLBACK_EVENTS = 256

    #: The per-run-subtractable integer counters — exactly the keys of
    #: :meth:`snapshot` / :meth:`delta`.
    COUNTER_FIELDS: ClassVar[tuple[str, ...]] = (
        "runs",
        "full_runs",
        "incremental_runs",
        "execs",
        "initial_execs",
        "dirty_execs",
        "propagation_execs",
        "retry_execs",
        "reuses",
        "replays",
        "leaf_execs",
        "nodes_created",
        "nodes_pruned",
        "dirty_marked",
        "mispredictions",
        "scratch_fallbacks",
        "implicit_reads",
        "helper_calls",
        "degraded_runs",
        "audits",
        "audit_failures",
        "verify_checks",
        "verify_mismatches",
        "lint_runs",
        "lint_errors",
        "lint_warnings",
    )

    #: The wall-clock accumulators (floats; excluded from snapshots — a
    #: per-run time breakdown comes from ``RunReport.phase_times``).
    TIMER_FIELDS: ClassVar[tuple[str, ...]] = tuple(
        "time_" + phase for phase in PHASES
    )

    #: Cumulative logs, excluded from snapshots.
    LOG_FIELDS: ClassVar[tuple[str, ...]] = (
        "fallback_reasons",
        "fallback_events",
    )

    def record_fallback(
        self,
        reason: str,
        duration: float,
        rebuilt: bool,
        cooldown: int = 0,
        detail: str = "",
    ) -> FallbackEvent:
        """Account one degradation episode (counter, reason totals, event
        log) and return the recorded event."""
        event = FallbackEvent(
            reason=reason,
            run_index=self.runs,
            duration=duration,
            rebuilt=rebuilt,
            cooldown=cooldown,
            detail=detail,
        )
        self.scratch_fallbacks += 1
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1
        self.fallback_events.append(event)
        if len(self.fallback_events) > self.MAX_FALLBACK_EVENTS:
            del self.fallback_events[: -self.MAX_FALLBACK_EVENTS]
        return event

    def snapshot(self) -> dict[str, int]:
        """The declared integer counters only (``COUNTER_FIELDS``) — timers
        and cumulative logs are excluded so :meth:`delta` stays a pure
        subtraction."""
        own = self.__dict__
        return {name: own[name] for name in self.COUNTER_FIELDS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Difference between the current counters and a snapshot."""
        own = self.__dict__
        return {
            name: own[name] - before.get(name, 0)
            for name in self.COUNTER_FIELDS
        }

    def timers(self) -> dict[str, float]:
        """The lifetime per-phase wall-clock accumulators, keyed by phase
        name (``{"exec": 0.12, ...}``)."""
        own = self.__dict__
        return {phase: own["time_" + phase] for phase in PHASES}


@dataclass
class RunReport:
    """Per-run summary returned by ``DittoEngine.run_with_report``."""

    result: object = None
    mode: str = ""
    incremental: bool = False
    delta: dict[str, int] = field(default_factory=dict)
    graph_size: int = 0
    #: Wall-clock seconds of the whole :meth:`DittoEngine.run` call.
    duration: float = 0.0
    #: Seconds per run phase, keyed by :data:`PHASES` names.  The keys are
    #: mode-consistent: a ``scratch``-mode (or degraded-cooldown) run
    #: reports the single phase that ran (``exec`` / ``degraded``), an
    #: incremental run reports the phases of Figure 7 it entered.
    phase_times: dict[str, float] = field(default_factory=dict)
