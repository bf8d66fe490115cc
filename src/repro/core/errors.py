"""Error hierarchy for the DITTO reproduction.

All library-raised exceptions derive from :class:`DittoError` so callers can
catch everything DITTO-specific with one handler.  A few exceptions mirror
concepts named in the paper:

* :class:`CheckRestrictionError` — the static analysis of Section 3.5
  rejected a check (a loop conditional or a call depends on a callee return
  value, or the function is not side-effect-free).
* :class:`OptimisticMispredictionError` — internal signal used while
  re-executing a node whose inputs included a stale optimistic value
  (Section 3.5, "the incorrect return value causes f(x) to throw").
* :class:`StepLimitExceeded` — the alternative timeout remedy of
  Section 3.5: an optimistic re-execution ran far longer than expected and
  the engine falls back to a from-scratch run.
"""

from __future__ import annotations


class DittoError(Exception):
    """Base class for all errors raised by this library."""


class CheckRestrictionError(DittoError):
    """A check function violates the DITTO restrictions (Definition 2 / §3.5).

    Carries a list of human-readable violation messages, one per offending
    program point, so tooling can show all problems at once.
    """

    def __init__(self, function_name: str, violations: list[str]):
        self.function_name = function_name
        self.violations = list(violations)
        details = "\n  - ".join(self.violations)
        super().__init__(
            f"check function {function_name!r} violates DITTO restrictions:\n"
            f"  - {details}"
        )


class InstrumentationError(DittoError):
    """The source-to-source transformation could not instrument a check."""


class CyclicCheckError(DittoError):
    """A check invocation recursively re-entered itself with the same
    explicit arguments before producing a result.

    A side-effect-free check can only do this by traversing a cyclic heap
    shape (e.g. a corrupted, circular "linked list"); the uninstrumented
    check would simply never terminate.  DITTO detects the cycle and reports
    it as a structure bug instead of diverging.
    """

    def __init__(self, function_name: str, args: tuple):
        self.function_name = function_name
        self.args = args
        super().__init__(
            f"cyclic invocation of check {function_name!r} with arguments "
            f"{args!r}; the data structure most likely contains a cycle"
        )


class OptimisticMispredictionError(DittoError):
    """Internal: a node re-execution failed, presumably because it consumed a
    stale optimistically-reused callee value.  Never escapes the engine
    unless the failure persists after return-value propagation."""

    def __init__(self, node, cause: BaseException):
        self.node = node
        self.cause = cause
        super().__init__(f"re-execution of {node} failed: {cause!r}")


class StepLimitExceeded(DittoError):
    """Internal: an incremental run exceeded the configured step budget; the
    engine discards the computation graph and re-runs from scratch."""


class ResultTypeError(DittoError):
    """A check function returned a mutable (non-primitive) value.

    Functions that return new objects are not supported (paper §6: "such
    objects may be modified and thus are unsuitable for memoization").
    """


class TrackingError(DittoError):
    """A check read mutable state that is not under write-barrier tracking
    (strict mode only), so incremental results could silently go stale."""


class GraphAuditError(DittoError):
    """The computation graph failed a :class:`~repro.resilience.auditor.
    GraphAuditor` pass: some internal invariant (memo keys, reverse map,
    edge multiplicities, order records, reference counts) is violated.

    Carries the full :class:`~repro.resilience.auditor.AuditReport` as
    ``report`` so callers can inspect every finding.
    """

    def __init__(self, report):
        self.report = report
        findings = getattr(report, "findings", [])
        lines = "\n  - ".join(str(f) for f in findings) or "<no details>"
        super().__init__(
            f"computation-graph audit failed with {len(findings)} "
            f"finding(s):\n  - {lines}"
        )


class VerificationError(DittoError):
    """A paranoia cross-check found the incremental result differs from the
    from-scratch result — the graph silently went stale (e.g. a lost write
    barrier) or a cached value was corrupted."""

    def __init__(self, incremental: object, scratch: object):
        self.incremental = incremental
        self.scratch = scratch
        super().__init__(
            f"incremental result {incremental!r} disagrees with "
            f"from-scratch result {scratch!r}"
        )


class EngineStateError(DittoError):
    """The engine was used incorrectly (e.g. re-entrant run() call)."""


class EngineBusyError(EngineStateError):
    """``run()`` was called while a run is already executing on this engine
    — either re-entrantly (a check body calling back into its own engine,
    which would corrupt the memo graph mid-repair) or from a second thread
    without external serialization.  The serving layer's shard locks
    prevent this by construction; seeing it means a caller bypassed them.
    """


class CheckDeadlineExceeded(DittoError):
    """A cooperative step-budget hook cancelled the run: the check blew its
    soft deadline.  The engine discards the partially-repaired graph before
    forwarding this, so the caller may retry (the next run rebuilds from
    scratch), degrade, or reject — see :mod:`repro.serving`."""


class TenantIsolationError(DittoError):
    """A tracked container already owned by one :class:`~repro.core.tracked.
    TrackingState` was read by an engine bound to a *different* state.

    Sharing a structure across isolation domains would let one tenant's
    barrier traffic appear in another tenant's write log; the engine
    refuses rather than silently cross-wiring them.  (Engines sharing one
    state — the process-default state, or one tenant's engines — may share
    structures freely.)
    """

    def __init__(self, container: object, owner: object, state: object):
        self.container = container
        self.owner = owner
        self.state = state
        super().__init__(
            f"container {type(container).__name__} at {id(container):#x} is "
            f"owned by tracking state {id(owner):#x} but was read by an "
            f"engine bound to state {id(state):#x}; structures must not be "
            f"shared across isolation domains"
        )
