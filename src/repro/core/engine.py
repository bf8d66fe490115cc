"""The DITTO incrementalization engine.

One :class:`DittoEngine` incrementalizes one invariant check, identified by
its entry-point function (paper §2: "we identify the check by the
entry-point function that is invoked by the main program").  Three execution
modes reproduce the paper's three strategies:

* ``"scratch"`` — run the original, un-instrumented check (the "standard
  invariant checks" curve in Figure 11);
* ``"naive"`` — the naive incrementalizer of Figure 6: reuse a cached
  invocation only after *replaying* every callee and confirming all callee
  return values are unchanged;
* ``"ditto"`` — the optimistic incrementalizer of Figure 7 (default):
  reuse any non-dirty cached invocation outright, then repair with pruning,
  return-value propagation, and misprediction retry.

Typical use::

    from repro import DittoEngine, check

    @check
    def is_ordered(e): ...

    engine = DittoEngine(is_ordered)
    lst = OrderedIntList()
    assert engine.run(lst.head)        # first run: builds the graph
    lst.insert(42)                     # write barriers log the mutations
    assert engine.run(lst.head)        # incremental: re-runs O(1) nodes

The engine validates the check against the paper's static restrictions at
construction time, registers the fields the check reads with the global
write-barrier state, and compiles instrumented versions of every function
in the check's call-graph closure.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..instrument.registry import CheckFunction, check as as_check, closure_of
from ..instrument.specialize import specialize_closure
from ..instrument.transform import instrumented_source
from .argkeys import ArgsKey, is_primitive
from .errors import (
    CheckDeadlineExceeded,
    CheckRestrictionError,
    CyclicCheckError,
    DittoError,
    EngineBusyError,
    EngineStateError,
    GraphAuditError,
    InstrumentationError,
    OptimisticMispredictionError,
    ResultTypeError,
    StepLimitExceeded,
    TenantIsolationError,
    TrackingError,
    VerificationError,
)
from .memo_table import MemoTable
from .node import ComputationNode
from .order_maintenance import OrderList
from .stats import PHASES, EngineStats, RunReport
from .tracked import TrackingState, tracking_state
from ..obs.trace import NullSink, TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profiler import RepairProfiler
    from ..obs.provenance import RunRecorder
    from ..resilience.auditor import AuditReport
    from ..resilience.degradation import DegradationPolicy

_MODES = ("ditto", "naive", "scratch")

#: Phase name -> EngineStats accumulator attribute (precomputed so the
#: per-phase accounting does no string building at run time).
_TIMER_ATTRS = {phase: "time_" + phase for phase in PHASES}

#: Deterministic usage/semantics errors a scratch re-run cannot repair (and
#: must not mask): graceful degradation forwards these to the main program
#: instead of retrying.
_UNRECOVERABLE = (
    CheckRestrictionError,
    CyclicCheckError,
    EngineStateError,
    InstrumentationError,
    ResultTypeError,
    TenantIsolationError,
    TrackingError,
)

#: Control-flow exceptions that must never be converted into a fallback.
_NEVER_CAUGHT = (KeyboardInterrupt, SystemExit, GeneratorExit)

#: Maximum misprediction-retry rounds before exceptions are forwarded to the
#: main program (§3.5: "If an exception still occurs at this stage, the
#: exception is forwarded on").
_MAX_RETRY_ROUNDS = 3

#: Valid values of the ``strategy`` engine option (see :mod:`repro.derive`):
#: ``"memo"`` always repairs through the memo graph; ``"derived"`` requires
#: the fold classifier to accept the entry (raising otherwise); ``"hybrid"``
#: picks derived maintenance where admissibility is proven and the memo
#: graph everywhere else; ``"auto"`` reads ``DITTO_STRATEGY`` (defaulting
#: to memo).
_STRATEGY_CHOICES = ("memo", "derived", "hybrid", "auto")


class _RecursionLimitScope:
    """The raised interpreter recursion limit, shared by every run in the
    process.

    ``sys.setrecursionlimit`` applies to every thread at once, and engines
    on different threads run in parallel (the serving pool runs shards on
    a thread pool).  So a run that ends must not put back the limit it
    found while another run is still going, possibly deeper than that
    limit.  The scope counts the runs inside it: any run raises the limit
    to its own ``recursion_limit`` if the current one is lower, the first
    raise records the caller's limit, and only the last run out restores
    it."""

    __slots__ = ("_lock", "_active", "_caller_limit")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        #: The limit before the first raise, while any run is inside;
        #: None when no run has raised it.
        self._caller_limit: Optional[int] = None

    def enter(self, limit: int) -> None:
        with self._lock:
            current = sys.getrecursionlimit()
            if current < limit:
                sys.setrecursionlimit(limit)
                if self._caller_limit is None:
                    self._caller_limit = current
            self._active += 1

    def exit(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._caller_limit is not None:
                sys.setrecursionlimit(self._caller_limit)
                self._caller_limit = None


_RECURSION_SCOPE = _RecursionLimitScope()


def _resolve_strategy(setting: str) -> str:
    """Map the ``strategy`` option (plus ``DITTO_STRATEGY`` under
    ``"auto"``) to the repair-strategy decision."""
    if setting == "auto":
        env = os.environ.get("DITTO_STRATEGY", "").strip().lower()
        return env if env in ("memo", "derived", "hybrid") else "memo"
    return setting


class DittoEngine:
    """Automatic incrementalizer for one data structure invariant check."""

    # Step-accounting backing fields.  Class-level defaults let the property
    # setters below run in any order during ``__init__`` (each reads its
    # siblings' backing attributes).
    _step_limit: Optional[int] = None
    _step_hook: Optional[Callable[["DittoEngine"], None]] = None
    _step_hook_interval: int = 128
    _hook_countdown: int = 128
    #: True iff a step limit or step hook is armed.  This is the single
    #: per-step test the compiled closures perform before entering
    #: :meth:`_step_tail`, so unlimited runs pay one attribute load per step
    #: instead of the limit/hook/countdown cascade.
    _step_active: bool = False

    def __init__(
        self,
        entry: CheckFunction,
        mode: str = "ditto",
        strict: bool = True,
        leaf_optimization: bool = True,
        step_limit: Optional[int] = None,
        recursion_limit: Optional[int] = 20_000,
        paranoia: int = 0,
        degradation: Optional["DegradationPolicy"] = None,
        trace_sink: Optional[TraceSink] = None,
        lint: str = "off",
        tracking: Optional[TrackingState] = None,
        step_hook: Optional[Callable[["DittoEngine"], None]] = None,
        step_hook_interval: int = 128,
        profiler: Optional["RepairProfiler"] = None,
        strategy: str = "auto",
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if strategy not in _STRATEGY_CHOICES:
            raise ValueError(
                f"strategy must be one of {_STRATEGY_CHOICES}, got "
                f"{strategy!r}"
            )
        if paranoia < 0:
            raise ValueError(f"paranoia must be >= 0, got {paranoia!r}")
        if lint not in ("off", "warn", "strict"):
            raise ValueError(
                f"lint must be 'off', 'warn', or 'strict', got {lint!r}"
            )
        #: Checks recurse once per structure element and the engine adds a
        #: few frames per invocation, so each run raises the interpreter
        #: recursion limit to at least this value; the caller's limit is
        #: restored when the last concurrent run ends (see
        #: :class:`_RecursionLimitScope`; None disables; for very deep
        #: structures run inside
        #: :func:`repro.bench.runner.run_with_big_stack`).
        self.recursion_limit = recursion_limit
        self.entry = as_check(entry)
        self.mode = mode
        self.strict = strict
        self.leaf_optimization = leaf_optimization
        self.step_limit = step_limit
        #: Audit the graph and cross-check the result against the
        #: uninstrumented check every N runs (0 disables).  See
        #: :mod:`repro.resilience` for the failure modes this catches.
        self.paranoia = paranoia
        #: How to recover when trust in the graph is lost; None preserves
        #: the classic behaviour (step-limit rebuilds, everything else is
        #: forwarded to the main program).
        self.degradation = degradation
        #: The write-barrier isolation domain this engine consumes from.
        #: Defaults to the process-wide state; the serving layer binds each
        #: tenant's engines to a private :class:`TrackingState` so tenants
        #: cannot observe each other's barriers or fault hooks.
        self.tracking = tracking if tracking is not None else tracking_state()
        # Step accounting: the interval is assigned first (its setter
        # validates and primes the countdown) so installing the hook sees
        # the requested cadence, not the class default.
        self.step_hook_interval = step_hook_interval
        self.step_hook = step_hook
        self.stats = EngineStats()
        self.table = MemoTable(self.tracking)
        self.order = OrderList()
        # Observability (repro.obs).  ``tracing`` is the single boolean the
        # hot paths test: with the default NullSink no event is ever built.
        self._sink: TraceSink = trace_sink if trace_sink is not None else NullSink()
        self.tracing = not isinstance(self._sink, NullSink)
        #: Per-run provenance recorder (repro.obs.enable_provenance).
        self.recorder: Optional["RunRecorder"] = None
        #: Repair-cost attribution profiler (repro.obs.profiler).  Hooks
        #: mirror the recorder's ``is not None`` guard; attached below
        #: (once tracking exists) or later via ``profiler.attach(engine)``.
        self.profiler: Optional["RepairProfiler"] = None
        #: Wall-clock seconds of the most recent run() call and its
        #: per-phase breakdown (reset at the start of every run).
        self.last_duration = 0.0
        self.last_phase_times: dict[str, float] = {}
        self._current_phase = ""

        # Resolve the check's function closure and validate every member
        # (analysis() raises CheckRestrictionError on a violation), then
        # build the interprocedural plan: the per-entry monitored-field set
        # (checks + reachable helpers), helper read summaries for call-site
        # attribution, and the lint diagnostics.
        self.functions: dict[int, CheckFunction] = closure_of(self.entry)
        #: How whole-program lint findings are handled at construction:
        #: ``"off"`` builds the plan silently, ``"warn"`` counts findings
        #: in the stats, ``"strict"`` additionally raises on error-severity
        #: findings and trusts statically-verified helpers at runtime.
        self.lint_mode = lint
        self.plan = None
        from ..lint.interproc import build_plan  # lazy: import cycle

        try:
            self.plan = build_plan(self.entry)
        except CheckRestrictionError:
            raise
        except Exception:  # pragma: no cover - planner bug; stay usable
            self.plan = None
        #: Helper function -> HelperSummary for depth-1 read attribution.
        self.helper_summaries: dict[Any, Any] = {}
        #: (class, method name) -> HelperSummary for registered pure
        #: methods on tracked receivers (depth-1 receiver/argument reads).
        self.method_summaries: dict[tuple[type, str], Any] = {}
        #: Helpers accepted without registration (lint="strict" only).
        self.verified_helpers: frozenset = frozenset()
        if self.plan is not None:
            self.monitored_fields = frozenset(self.plan.monitored_fields)
            self.helper_summaries = self.plan.helper_summaries
            self.method_summaries = self.plan.method_summaries
            if lint == "strict":
                self.verified_helpers = self.plan.verified_helpers
            if lint != "off":
                report = self.plan.report()
                self.stats.lint_runs += 1
                self.stats.lint_errors += len(report.errors)
                self.stats.lint_warnings += len(report.warnings)
                if lint == "strict" and report.errors:
                    raise CheckRestrictionError(
                        self.entry.name,
                        [d.format() for d in report.errors],
                    )
        else:
            fields: set[str] = set()
            for fn in self.functions.values():
                fields.update(fn.analysis().fields_read)
            self.monitored_fields = frozenset(fields)
        self.tracking.monitor_fields(self.monitored_fields)
        self._log_cid = self.tracking.write_log.register()

        # Execution state the compiled closures close over (the stack list
        # is pre-bound by them and must exist before compile).
        self._stack: list[ComputationNode] = []

        # Repair strategy (repro.derive): when the fold classifier accepts
        # the entry under strategy "derived"/"hybrid", the engine bypasses
        # the memo graph entirely and repairs through synthesized fold
        # maintainers driven off the same write-log cursor.
        #: The requested ``strategy`` option, unresolved.
        self.strategy = strategy
        #: ``"derived"`` or ``"memo"`` — what this engine actually runs.
        self.active_strategy = "memo"
        #: The :class:`~repro.derive.maintain.DerivedState` facade, or None
        #: when the memo graph is the strategy.
        self.derived = None
        resolved = _resolve_strategy(strategy) if mode == "ditto" else "memo"
        if resolved in ("derived", "hybrid"):
            from ..derive import DerivedState, classify_entry

            classification = classify_entry(self.entry)
            if classification.ok:
                self.derived = DerivedState(
                    self.entry, classification, self.tracking, self.stats,
                )
                self.active_strategy = "derived"
            elif resolved == "derived":
                raise CheckRestrictionError(
                    self.entry.name,
                    [
                        "strategy='derived' requires an admissible fold: "
                        + (classification.why_not() or "no fold found")
                    ],
                )

        # Compile instrumented versions (Figure 3) of every check function.
        # Scratch engines run the original source, and derived engines never
        # call into the memo graph, so neither compiles: construction cost
        # stays proportional to what the engine runs.
        self._compiled: dict[int, Any] = {}
        if mode != "scratch" and self.derived is None:
            self._compiled.update(specialize_closure(self))
        self._root: Optional[ComputationNode] = None
        # Artificial caller pinning the root so it is never pruned.
        self._anchor = ComputationNode(self.entry, ArgsKey(("<anchor>",)))
        self.steps = 0
        self.in_incremental_run = False
        self._final_retry = False
        # Busy guard: the lock makes the check-and-set atomic across
        # threads; the flag additionally catches same-thread re-entrancy
        # (a check body calling back into its own engine) and is what
        # tests/introspection read.
        self._running = False
        self._run_lock = threading.Lock()
        self._tick = 0
        self._to_propagate: set[ComputationNode] = set()
        self._failed: set[ComputationNode] = set()
        self._closed = False
        # Degradation state (configured by self.degradation, reset by a
        # clean incremental run): scratch-only runs left in the current
        # cooldown window, consecutive-fallback streak for backoff, and the
        # paranoia run counter.
        self._cooldown_remaining: float = 0
        self._consecutive_fallbacks = 0
        self._runs_since_audit = 0
        if profiler is not None:
            profiler.attach(self)

    # Observability plumbing (repro.obs). -------------------------------------------

    @property
    def trace_sink(self) -> TraceSink:
        """The attached :class:`~repro.obs.trace.TraceSink`.  Assigning a
        non-null sink turns tracing on; assigning ``None`` or a
        :class:`~repro.obs.trace.NullSink` turns it off."""
        return self._sink

    @trace_sink.setter
    def trace_sink(self, sink: Optional[TraceSink]) -> None:
        self._sink = sink if sink is not None else NullSink()
        self.tracing = not isinstance(self._sink, NullSink)

    # Step accounting. ---------------------------------------------------------------

    @property
    def step_limit(self) -> Optional[int]:
        """Abort an *incremental* run after this many runtime steps
        (§3.5's second remedy for optimistic non-termination); ``None``
        disables the limit."""
        return self._step_limit

    @step_limit.setter
    def step_limit(self, limit: Optional[int]) -> None:
        self._step_limit = limit
        self._step_active = limit is not None or self._step_hook is not None

    @property
    def step_hook(self) -> Optional[Callable[["DittoEngine"], None]]:
        """Cooperative cancellation hook: called with the engine every
        ``step_hook_interval`` runtime steps during instrumented execution.
        Raising :class:`CheckDeadlineExceeded` from it aborts the run
        transactionally (graph discarded, exception forwarded); the serving
        layer uses this for soft deadlines."""
        return self._step_hook

    @step_hook.setter
    def step_hook(self, hook: Optional[Callable[["DittoEngine"], None]]) -> None:
        self._step_hook = hook
        # A freshly-(re)installed hook starts a full interval from *now* —
        # the countdown must not inherit the previous hook's residue, which
        # could make the first firing up to a full interval late.
        self._hook_countdown = self._step_hook_interval
        self._step_active = hook is not None or self._step_limit is not None

    @property
    def step_hook_interval(self) -> int:
        """Steps between :attr:`step_hook` invocations (>= 1)."""
        return self._step_hook_interval

    @step_hook_interval.setter
    def step_hook_interval(self, interval: int) -> None:
        if interval < 1:
            raise ValueError(
                f"step_hook_interval must be >= 1, got {interval!r}"
            )
        self._step_hook_interval = interval
        # Re-arm immediately at the new cadence: a hook that tightens the
        # interval mid-run (deadline pressure) must not wait out the stale
        # countdown primed from the old interval.
        self._hook_countdown = interval

    def _step_tail(self) -> None:
        """Slow half of per-step accounting, entered from the compiled
        closures' inlined step sequence only when ``_step_active`` (a limit
        or hook is armed)."""
        if (
            self._step_limit is not None
            and self.in_incremental_run
            and self.steps > self._step_limit
        ):
            raise StepLimitExceeded(
                f"incremental run exceeded {self._step_limit} steps"
            )
        hook = self._step_hook
        if hook is not None:
            self._hook_countdown -= 1
            if self._hook_countdown <= 0:
                self._hook_countdown = self._step_hook_interval
                hook(self)

    def _phase_begin(self, name: str) -> float:
        self._current_phase = name
        return time.perf_counter()

    def _phase_end(self, name: str, start: float) -> None:
        """Account one completed phase: per-run breakdown, lifetime stats
        accumulator, and (when tracing) a span event."""
        dur = time.perf_counter() - start
        self._current_phase = ""
        times = self.last_phase_times
        times[name] = times.get(name, 0.0) + dur
        stats_dict = self.stats.__dict__
        attr = _TIMER_ATTRS[name]
        stats_dict[attr] = stats_dict[attr] + dur
        if self.tracing:
            self._sink.span(name, start, dur)

    # Public API. -----------------------------------------------------------------

    def run(self, *args: Any) -> Any:
        """Execute the invariant check on the current program state and
        return its result, reusing previous executions where possible.

        This is also the resilience boundary: step-limit blowups, repair
        exceptions (when a :class:`~repro.resilience.degradation.
        DegradationPolicy` is configured), paranoia audit failures, and
        verify mismatches are all converted here into a transactional
        graph discard plus a trustworthy from-scratch answer."""
        if self._closed:
            raise EngineStateError("engine has been closed")
        # Atomic busy guard: the non-blocking lock rejects a second thread,
        # the flag rejects same-thread re-entrancy (a check body calling
        # back into its own engine would corrupt the memo graph mid-run).
        if self._running or not self._run_lock.acquire(blocking=False):
            raise EngineBusyError(
                f"DittoEngine.run() for check {self.entry.name!r} called "
                f"while a run is already executing; check() is not "
                f"re-entrant and engines must be externally serialized "
                f"across threads (see repro.serving for a pooled front end)"
            )
        try:
            self._running = True
            self.last_phase_times = {}
            self._hook_countdown = self.step_hook_interval
            if self.mode == "scratch":
                self.stats.runs += 1
                self.stats.full_runs += 1
                start = self._phase_begin("exec")
                try:
                    return self.entry.original(*args)
                finally:
                    self._phase_end("exec", start)
                    self.last_duration = time.perf_counter() - start
            start = time.perf_counter()
            aborted = True
            # The raised recursion limit is scoped to the run, fallback
            # rebuilds included: the caller's limit is restored however
            # the run ends, once no other run is still inside the scope.
            limit = self.recursion_limit
            if limit is not None:
                _RECURSION_SCOPE.enter(limit)
            try:
                if self.derived is not None:
                    result = self._run_derived(args)
                else:
                    result = self._run_resilient(args)
                aborted = False
                return result
            finally:
                if limit is not None:
                    _RECURSION_SCOPE.exit()
                self.last_duration = time.perf_counter() - start
                if self.recorder is not None:
                    self.recorder.end_run(
                        self.last_duration, self.last_phase_times, aborted
                    )
                if self.profiler is not None:
                    self.profiler.run_finished(self, aborted)
        finally:
            self._running = False
            self._run_lock.release()

    def run_with_report(self, *args: Any) -> RunReport:
        """Like :meth:`run`, also returning per-run statistics."""
        before = self.stats.snapshot()
        incremental = self._root is not None or (
            self.derived is not None and self.derived.is_bound
        )
        result = self.run(*args)
        return RunReport(
            result=result,
            mode=self.mode,
            incremental=incremental and self.mode != "scratch",
            delta=self.stats.delta(before),
            graph_size=len(self.table),
            duration=self.last_duration,
            phase_times=dict(self.last_phase_times),
        )

    def invalidate(self) -> None:
        """Drop the computation graph; the next run starts from scratch.

        Teardown is batched: the table releases reference counts once per
        location and cuts every edge, and the order list unlinks all of its
        nodes in one walk, so nothing discarded is left in a reference
        cycle."""
        self.table.clear()
        self.order.clear()
        self._anchor.calls.clear()
        self._root = None
        self._to_propagate.clear()
        self._failed.clear()
        if self.derived is not None:
            self.derived.invalidate()
        # Discard pending log entries; the next run re-reads everything.
        self.tracking.write_log.consume(self._log_cid)

    def close(self) -> None:
        """Release global tracking resources held by this engine."""
        if self._closed:
            return
        self.invalidate()
        if self.derived is not None:
            self.derived.release()
        self.tracking.write_log.unregister(self._log_cid)
        self.tracking.unmonitor_fields(self.monitored_fields)
        self._closed = True

    def __enter__(self) -> "DittoEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def graph_size(self) -> int:
        return len(self.table)

    def graph_snapshot(self) -> dict[tuple[str, tuple], object]:
        """(function name, explicit args) → return value, for tests."""
        return self.table.snapshot()

    def validate(self) -> None:
        """Assert the engine's internal consistency invariants; raises
        ``AssertionError`` with a description on any violation.  Intended
        for tests (the property machines call it after every step) and for
        debugging engine extensions — it walks the whole graph.
        """
        table = self.table
        # Anchor and root agree.
        if self._root is not None:
            assert table.contains(self._root), "root not in table"
            assert self._root.caller_map().get(self._anchor, 0) == 1, (
                "root is not anchored exactly once"
            )
            assert self._anchor.calls.count(self._root) == 1, (
                "anchor call edge out of sync"
            )
        edge_counts: dict[tuple[int, int], int] = {}
        for node in table:
            assert not node.dirty, f"{node} left dirty after run"
            assert not node.failed, f"{node} left failed after run"
            assert not node.in_progress, f"{node} left in-progress"
            assert node.has_result, f"{node} has no result"
            assert node.owner is self.order, (
                f"{node} lost its order record"
            )
            for callee in node.calls:
                assert table.contains(callee), (
                    f"{node} calls pruned node {callee}"
                )
                key = (id(node), id(callee))
                edge_counts[key] = edge_counts.get(key, 0) + 1
            for location in node.implicits:
                assert node in table.nodes_reading(location), (
                    f"reverse map missing {location} -> {node}"
                )
        for node in table:
            for caller, count in node.caller_map().items():
                if caller is self._anchor:
                    continue
                assert table.contains(caller), (
                    f"{node} has pruned caller {caller}"
                )
                assert edge_counts.get((id(caller), id(node))) == count, (
                    f"edge multiplicity mismatch {caller} -> {node}"
                )
            if node is not self._root:
                assert node.callers, f"{node} unreachable"

    def lint(self):
        """Re-run the whole-program lint pass for this engine's entry point
        and return the :class:`~repro.lint.rules.LintReport`.

        The pass resolves against the *current* registry state, so it
        reflects helpers registered (or rebound) after construction.  The
        refreshed plan also replaces :attr:`plan` / :attr:`helper_summaries`
        (and, under ``lint="strict"``, :attr:`verified_helpers`), keeping
        runtime attribution in step with what was just verified.  Findings
        are counted in :attr:`stats` (``lint_runs`` / ``lint_errors`` /
        ``lint_warnings``) and never raise — gating is the constructor's
        job."""
        from ..lint.interproc import build_plan  # lazy: import cycle

        plan = build_plan(self.entry)
        self.plan = plan
        self.helper_summaries = plan.helper_summaries
        self.method_summaries = plan.method_summaries
        if self.lint_mode == "strict":
            self.verified_helpers = plan.verified_helpers
        report = plan.report()
        self.stats.lint_runs += 1
        self.stats.lint_errors += len(report.errors)
        self.stats.lint_warnings += len(report.warnings)
        return report

    def audit(self, raise_on_failure: bool = True) -> "AuditReport":
        """Run the :class:`~repro.resilience.auditor.GraphAuditor` over the
        computation graph and return its report.  Unlike :meth:`validate`
        (assertion-based, test-oriented), the audit collects *every*
        violation, counts itself in :attr:`stats`, and is safe to run in
        production (``paranoia`` mode calls it automatically)."""
        from ..resilience.auditor import GraphAuditor

        start = self._phase_begin("audit")
        try:
            report = GraphAuditor(self).run()
        finally:
            self._phase_end("audit", start)
        self.stats.audits += 1
        if not report.ok:
            self.stats.audit_failures += 1
            if raise_on_failure:
                raise GraphAuditError(report)
        return report

    def instrumented_source(self, func: Optional[CheckFunction] = None) -> str:
        """The Figure 3 view: instrumented source of a check function."""
        fn = as_check(func) if func is not None else self.entry
        uid_map = {
            name: callee.uid for name, callee in fn.resolve_callees().items()
        }
        return instrumented_source(fn, uid_map)

    # Run orchestration (Figure 7's ``incrementalize``). ----------------------------

    def _run_derived(self, args: tuple) -> Any:
        """One run under the derived strategy: drain the write log, let the
        fold maintainers apply deltas (or rebuild), and evaluate the
        combiner.  The original check still computes every authoritative
        value, so exceptions and result types match scratch bit-for-bit."""
        self.stats.runs += 1
        start = self._phase_begin("barrier_drain")
        try:
            pending = self.tracking.write_log.consume(self._log_cid)
        finally:
            self._phase_end("barrier_drain", start)
        start = self._phase_begin("exec")
        try:
            return self.derived.run(args, pending)
        finally:
            self._phase_end("exec", start)

    def _run_resilient(self, args: tuple) -> Any:
        """Wrap one tracked run with the degradation ladder: cooldown
        service, fault fallback, and paranoia auditing/verification."""
        policy = self.degradation
        if self._cooldown_remaining > 0:
            # Degraded: answer from the uninstrumented check while the
            # cooldown window drains; the graph was discarded at fallback
            # time, so only the write-log cursor needs to stay current.
            self._cooldown_remaining -= 1
            self.stats.runs += 1
            self.stats.degraded_runs += 1
            self.tracking.write_log.consume(self._log_cid)
            start = self._phase_begin("degraded")
            try:
                return self.entry.original(*args)
            finally:
                self._phase_end("degraded", start)
        fallbacks_before = self.stats.scratch_fallbacks
        try:
            result = self._run_tracked(args)
        except StepLimitExceeded as exc:
            # §3.5 second remedy: discard and re-run from scratch (always
            # on, with or without a policy).
            return self._fallback("step_limit", args, exc)
        except CheckDeadlineExceeded:
            # Cooperative cancellation (soft deadline): transactionally
            # discard the partially-repaired graph and forward.  The caller
            # decides whether to retry (the next run rebuilds from
            # scratch), degrade, or reject — see :mod:`repro.serving`.
            self.invalidate()
            self.stats.deadline_aborts += 1
            raise
        except _NEVER_CAUGHT:
            self.invalidate()
            raise
        except _UNRECOVERABLE:
            # Deterministic usage errors are forwarded, not retried — but
            # one thrown mid-repair (e.g. a check body re-entering its own
            # engine) leaves the graph partially repaired: discard it so
            # the next run starts from a consistent state.
            self.invalidate()
            raise
        except BaseException as exc:
            if policy is None or not policy.fallback_on_exception:
                raise
            return self._fallback("repair_exception", args, exc)
        if self.paranoia:
            self._runs_since_audit += 1
            if self._runs_since_audit >= self.paranoia:
                self._runs_since_audit = 0
                result = self._paranoia_check(result, args)
        if self.stats.scratch_fallbacks == fallbacks_before:
            # A clean run (no fallback, including none from paranoia)
            # resets the consecutive-failure streak for backoff purposes.
            self._consecutive_fallbacks = 0
        return result

    def _fallback(self, reason: str, args: tuple, cause: BaseException) -> Any:
        """Transactionally discard the graph and produce a trustworthy
        answer: rebuild in place (cooldown disabled) or serve the
        uninstrumented check and back off to scratch mode for a while.
        Genuine check failures — the from-scratch path raising too — are
        forwarded to the main program, as the paper requires."""
        policy = self.degradation
        start = self._phase_begin("fallback")
        if self.tracing:
            self._sink.instant(
                "degradation", start, {"reason": reason, "cause": repr(cause)}
            )
        self.invalidate()
        self.in_incremental_run = False
        cooldown: float = 0
        if policy is not None:
            cooldown = policy.cooldown_for(self._consecutive_fallbacks + 1)
        rebuilt = False
        try:
            if cooldown > 0:
                # The graph would only go stale during the scratch window,
                # so don't bother rebuilding it; the run after the window
                # does.
                result = self.entry.original(*args)
            else:
                try:
                    result = self._incrementalize(args)
                    rebuilt = True
                except CheckDeadlineExceeded:
                    # The rebuild itself blew the soft deadline: count the
                    # abort and forward — converting it into yet another
                    # fallback would run uncancellable original code.
                    self.invalidate()
                    self.stats.deadline_aborts += 1
                    raise
                except _NEVER_CAUGHT:
                    self.invalidate()
                    raise
                except _UNRECOVERABLE:
                    self.invalidate()
                    raise
                except BaseException:
                    # Even the instrumented rebuild fails: distrust the
                    # whole machinery and fall back to the original check.
                    # If that raises as well the failure is genuine and
                    # propagates.
                    self.invalidate()
                    if policy is None or not policy.fallback_on_exception:
                        raise
                    result = self.entry.original(*args)
                    cooldown = policy.cooldown_for(
                        max(self._consecutive_fallbacks + 1, 2)
                    )
        finally:
            # Exception safety: even when the fallback itself raises (a
            # genuine check failure, or a deadline abort mid-rebuild), the
            # failure streak still lengthens, the cooldown still engages,
            # the phase timer closes, and the episode is recorded.
            # Otherwise a raising fallback would freeze the backoff state
            # and leak the open "fallback" phase into the next run.
            self._consecutive_fallbacks += 1
            self._cooldown_remaining = cooldown
            self._phase_end("fallback", start)
            self.stats.record_fallback(
                reason=reason,
                duration=time.perf_counter() - start,
                rebuilt=rebuilt,
                cooldown=int(cooldown) if cooldown != float("inf") else -1,
                detail=repr(cause),
            )
        return result

    def _paranoia_check(self, result: Any, args: tuple) -> Any:
        """Every N-th run: audit the graph's representation invariants and
        cross-check the incremental result against the uninstrumented
        check — the only detector for silently-stale graphs (e.g. a lost
        write barrier) and corrupted cached values."""
        policy = self.degradation
        report = self.audit(raise_on_failure=False)
        if not report.ok:
            if policy is not None and policy.fallback_on_audit_failure:
                return self._fallback(
                    "audit_failure", args, GraphAuditError(report)
                )
            raise GraphAuditError(report)
        self.stats.verify_checks += 1
        start = self._phase_begin("verify")
        try:
            expected = self.entry.original(*args)
        except _NEVER_CAUGHT:
            raise
        except BaseException:
            # The incremental run returned a value but the from-scratch
            # check raises: that too is a divergence.  Distrust the graph
            # and forward the genuine exception.
            self.invalidate()
            raise
        finally:
            self._phase_end("verify", start)
        if not _same_value(result, expected):
            self.stats.verify_mismatches += 1
            error = VerificationError(result, expected)
            if policy is not None and policy.fallback_on_verify_mismatch:
                return self._fallback("verify_mismatch", args, error)
            raise error
        return result

    def _run_tracked(self, args: tuple) -> Any:
        self.stats.runs += 1
        self.steps = 0
        try:
            return self._incrementalize(args)
        except DittoError:
            raise
        except BaseException:
            # A genuine failure escaped (invariant code crashed); drop the
            # graph so the next run rebuilds a consistent state.
            self.invalidate()
            raise

    def _incrementalize(self, args: tuple) -> Any:
        key = ArgsKey(args)
        start = self._phase_begin("barrier_drain")
        pending = self.tracking.write_log.consume(self._log_cid)
        dirty = self.table.map_locations_to_nodes(pending)
        self._phase_end("barrier_drain", start)
        if self.tracing:
            counters = self.tracking.barrier_counters()
            counters["pending"] = len(pending)
            counters["dirtied"] = len(dirty)
            self._sink.instant("barrier_drain", time.perf_counter(), counters)
        root = self.table.lookup(self.entry, key)
        first_run = self._root is None
        self.in_incremental_run = not first_run

        if first_run:
            self.stats.full_runs += 1
        else:
            self.stats.incremental_runs += 1

        start = self._phase_begin("dirty_mark")
        for node in dirty:
            node.dirty = True
        self.stats.dirty_marked += len(dirty)
        if self.recorder is not None:
            self.recorder.begin_run(self, pending, dirty, not first_run)
        if self.profiler is not None:
            self.profiler.begin_run(self, pending, dirty, not first_run)
        self._phase_end("dirty_mark", start)
        self._to_propagate.clear()
        self._failed.clear()

        try:
            start = self._phase_begin("exec")
            try:
                # Re-run the root first when its entry arguments are new
                # (Figure 7: "need to re-run root if arguments have
                # changed").
                if root is None:
                    try:
                        root = self._retarget_root(key)
                    except OptimisticMispredictionError:
                        root = self._root  # created; retried after propagation
                        assert root is not None
                else:
                    if root is not self._root:
                        # The entry arguments changed to an invocation that
                        # already exists in the graph (e.g. queue-style
                        # delete-first whose new head was memoized):
                        # re-anchor without re-executing.
                        self._reanchor(root)
                    if self.mode == "naive":
                        # Figure 6: one top-down replay from the root
                        # re-executes exactly the invocations whose inputs
                        # changed.
                        self._naive_value(root)
                if self.mode == "ditto":
                    # Re-execute dirty invocations closest to the root
                    # first; invocations that already fell out of the
                    # computation are pruned, not re-executed (Figure 7).
                    # Hot loop: bound references hoisted out of the
                    # per-node iteration.
                    contains = self.table.contains
                    prune = self._prune
                    exec_node = self._exec
                    stats = self.stats
                    root_node = self._root
                    for node in sorted(dirty, key=ComputationNode.sort_token):
                        if not (contains(node) and node.dirty):
                            continue
                        if node is not root_node and not node.callers:
                            prune(node)
                            continue
                        stats.dirty_execs += 1
                        try:
                            exec_node(node)
                        except OptimisticMispredictionError:
                            pass  # recorded in self._failed; retried below
            finally:
                self._phase_end("exec", start)
            start = self._phase_begin("propagate")
            try:
                self._propagate()
            finally:
                self._phase_end("propagate", start)
            start = self._phase_begin("retry")
            try:
                self._retry_failed()
            finally:
                self._phase_end("retry", start)
        finally:
            self.in_incremental_run = False
        assert root.has_result
        return root.return_val

    def _retarget_root(self, key: ArgsKey) -> ComputationNode:
        """Create/execute the root node for a new entry-argument tuple and
        re-anchor; the previous root's subgraph is pruned if unreachable."""
        old_root = self._root
        node, created = self.table.get_or_create(self.entry, key)
        if created:
            self.stats.nodes_created += 1
            self.order.link_last(node)
        self.table.add_edge(self._anchor, node)
        self._root = node
        try:
            self._exec(node)
        finally:
            if old_root is not None and self.table.contains(old_root):
                self._anchor.calls.remove(old_root)
                self.table.remove_edge(self._anchor, old_root)
                if not old_root.callers:
                    self._prune(old_root)
        return node

    def _reanchor(self, node: ComputationNode) -> None:
        """Move the artificial root anchor onto ``node`` (already memoized)
        and prune whatever part of the old root's graph becomes
        unreachable."""
        old_root = self._root
        self.table.add_edge(self._anchor, node)
        self._root = node
        if old_root is not None and self.table.contains(old_root):
            self._anchor.calls.remove(old_root)
            self.table.remove_edge(self._anchor, old_root)
            if not old_root.callers:
                self._prune(old_root)

    # Node execution (Figure 7's ``exec``). -------------------------------------------

    def _exec(self, node: ComputationNode) -> Any:
        """(Re-)execute ``node``'s invocation against the current program
        state, rebuilding its implicit arguments and call edges."""
        if node.in_progress:
            raise CyclicCheckError(node.func.name, node.args)
        old_calls = node.calls
        old_has = node.has_result
        old_val = node.return_val
        self.table.clear_implicits(node)
        node.calls = []
        node.in_progress = True
        self._stack.append(node)
        profiler = self.profiler
        if profiler is not None:
            profiler.node_begin(node)
        ok = False
        try:
            result = self._compiled[node.func.uid](*node.args)
            ok = True
        except StepLimitExceeded:
            raise
        except Exception as exc:
            # Roll back the partially-recorded call edges; the node keeps
            # its old value and stays scheduled for re-execution.  Fresh
            # nodes created by the aborted execution are pruned if nothing
            # else reaches them.
            partial_calls = node.calls
            for child in partial_calls:
                self.table.remove_edge(node, child)
            node.calls = old_calls
            for child in set(partial_calls):
                if (
                    not child.callers
                    and self.table.contains(child)
                    and not child.in_progress
                ):
                    self._prune(child)
            if (
                self.mode == "ditto"
                and self.in_incremental_run
                and not self._final_retry
            ):
                # §3.5: presumably caused by a stale optimistic value.
                node.failed = True
                self._failed.add(node)
                self.stats.mispredictions += 1
                if self.tracing:
                    self._sink.instant(
                        "misprediction",
                        time.perf_counter(),
                        {"node": node.func.name, "error": repr(exc)},
                    )
                raise OptimisticMispredictionError(node, exc) from exc
            raise
        finally:
            node.in_progress = False
            self._stack.pop()
            if profiler is not None:
                profiler.node_finish(node, ok, self._current_phase or "exec")

        if not is_primitive(result):
            raise ResultTypeError(
                f"check {node.func.name!r} returned {type(result).__name__}; "
                f"checks must return immutable primitive values"
            )
        self._tick += 1
        node.last_exec_tick = self._tick
        node.dirty = False
        node.failed = False
        self._failed.discard(node)
        node.return_val = result
        node.has_result = True
        self.stats.execs += 1
        if not self.in_incremental_run:
            self.stats.initial_execs += 1
        if self.recorder is not None:
            self.recorder.executed(node, self._current_phase or "exec")
        if self.tracing:
            self._sink.instant(
                "node_exec",
                time.perf_counter(),
                {"node": node.func.name, "phase": self._current_phase},
            )

        # Drop the superseded call edges and prune unreachable callees.
        for child in old_calls:
            self.table.remove_edge(node, child)
        for child in set(old_calls):
            if not child.callers and self.table.contains(child):
                self._prune(child)

        if old_has and not _same_value(result, old_val):
            node.value_tick = self._tick
            self._to_propagate.add(node)

        # A pruning cascade may have tried to remove this node while it was
        # executing (rotation-style reshapes can make it a stale descendant
        # of a pruned region); the removal was deferred.  If nothing
        # reaches it now, complete the prune.
        if (
            node is not self._root
            and not node.callers
            and self.table.contains(node)
        ):
            self._prune(node)
        return result

    def _prune(self, node: ComputationNode) -> None:
        # Prune time is accounted as its own phase but accumulates *inside*
        # the enclosing exec/propagate/retry span (cascades are triggered
        # mid-phase), so it deliberately leaves ``_current_phase`` alone.
        start = time.perf_counter()
        removed = self.table.prune(node)
        self.stats.nodes_pruned += len(removed)
        for n in removed:
            self.order.delete(n)
            self._to_propagate.discard(n)
            self._failed.discard(n)
        if self.recorder is not None and removed:
            self.recorder.pruned(removed)
        dur = time.perf_counter() - start
        times = self.last_phase_times
        times["prune"] = times.get("prune", 0.0) + dur
        self.stats.time_prune += dur
        if self.tracing:
            self._sink.span("prune", start, dur, {"removed": len(removed)})

    def _naive_value(self, node: ComputationNode) -> Any:
        """Figure 6's memo: reuse only after replaying every callee and
        confirming each returns its cached value."""
        if node.dirty or not node.has_result:
            return self._exec(node)
        for child in list(node.calls):
            old_return_val = child.return_val
            self.stats.replays += 1
            value = self._naive_value(child)
            if not _same_value(value, old_return_val):
                # A memo lookup failed somewhere in the child's call tree.
                return self._exec(node)
        self.stats.reuses += 1
        if self.tracing:
            self._sink.instant(
                "reuse", time.perf_counter(), {"node": node.func.name}
            )
        return node.return_val

    # Return-value propagation (Figure 7's ``propagate_return_vals``). -----------------

    def _propagate(self) -> None:
        while self._to_propagate:
            node = max(self._to_propagate, key=ComputationNode.sort_token)
            self._to_propagate.discard(node)
            if not self.table.contains(node):
                continue
            callers = [
                c
                for c in node.caller_map()
                if c is not self._anchor and self.table.contains(c)
            ]
            callers.sort(key=ComputationNode.sort_token, reverse=True)
            for caller in callers:
                if caller.last_exec_tick > node.value_tick:
                    continue  # already re-executed after this change
                if not self.table.contains(caller):
                    continue
                self.stats.propagation_execs += 1
                try:
                    self._exec(caller)
                except OptimisticMispredictionError:
                    pass  # retried later

    def _retry_failed(self) -> None:
        """Re-execute nodes whose incremental re-execution raised (§3.5).
        After bounded rounds, a persisting exception is forwarded to the
        main program."""
        rounds = 0
        while self._failed and rounds < _MAX_RETRY_ROUNDS:
            rounds += 1
            batch = sorted(
                (n for n in self._failed if self.table.contains(n)),
                key=ComputationNode.sort_token,
                reverse=True,  # deepest first: settle callees before callers
            )
            self._failed.clear()
            for node in batch:
                if not (
                    self.table.contains(node) and (node.dirty or node.failed)
                ):
                    continue
                if node is not self._root and not node.callers:
                    self._prune(node)
                    continue
                self.stats.retry_execs += 1
                try:
                    self._exec(node)
                except OptimisticMispredictionError:
                    pass
            self._propagate()
        if self._failed:
            self._final_retry = True
            try:
                batch = sorted(
                    (n for n in self._failed if self.table.contains(n)),
                    key=ComputationNode.sort_token,
                    reverse=True,
                )
                self._failed.clear()
                for node in batch:
                    if not (
                        self.table.contains(node)
                        and (node.dirty or node.failed)
                    ):
                        continue
                    if node is not self._root and not node.callers:
                        self._prune(node)
                        continue
                    self.stats.retry_execs += 1
                    self._exec(node)  # exceptions escape to the caller
            finally:
                self._final_retry = False
            self._propagate()


def _same_value(a: Any, b: Any) -> bool:
    """Return-value comparison: semantic equality within the same type, so a
    change from ``True`` to ``1`` still propagates."""
    return type(a) is type(b) and a == b

