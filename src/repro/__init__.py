"""repro — a Python reproduction of DITTO (Shankar & Bodík, PLDI 2007).

DITTO automatically incrementalizes dynamic, side-effect-free data structure
invariant checks: it rewrites a recursive check so that each invocation only
re-examines the parts of the structure modified since the last check,
reusing cached results (optimistically) for everything else.

Public API in three layers:

* ``repro.check`` / ``repro.DittoEngine`` — mark check functions and build
  an incrementalizer for an entry point.
* ``repro.TrackedObject`` / ``repro.TrackedArray`` / ``repro.TrackedList``
  — write-barrier base classes for the data structures under check.
* ``repro.structures`` / ``repro.apps`` — ready-made structures, invariants,
  and the paper's two sample applications (Netcols, JSO).
* ``repro.obs`` — observability: trace sinks (``trace_sink=`` engine
  option), a Prometheus-exportable metrics registry, and the
  repair-provenance explainer (``enable_provenance`` /
  ``explain_last_run``).
* ``repro.lint`` — whole-program soundness analysis: interprocedural
  check admissibility and write-barrier bypass detection
  (``python -m repro.lint``, ``engine.lint()``, ``lint_paths``).
* ``repro.serving`` — a hardened multi-tenant front end: an
  ``EnginePool`` hosting many isolated engines (one private
  ``TrackingState`` each) behind striped locks, with bounded admission,
  per-tenant circuit breakers, and cooperative soft deadlines.  Imported
  on demand (``from repro.serving import EnginePool``), not re-exported
  here.

Quickstart::

    from repro import DittoEngine, TrackedObject, check

    class Elem(TrackedObject):
        def __init__(self, value, next=None):
            self.value = value
            self.next = next

    @check
    def is_ordered(e):
        if e is None or e.next is None:
            return True
        if e.value > e.next.value:
            return False
        return is_ordered(e.next)

    engine = DittoEngine(is_ordered)
    head = Elem(1, Elem(5))
    assert engine.run(head) is True      # full run, graph built
    head.next = Elem(3, head.next)       # barrier logs the mutation
    assert engine.run(head) is True      # incremental: O(1) re-execution
"""

from .core import (
    ArgsKey,
    CheckDeadlineExceeded,
    CheckRestrictionError,
    ComputationNode,
    CyclicCheckError,
    DittoEngine,
    DittoError,
    EngineBusyError,
    EngineStateError,
    EngineStats,
    FallbackEvent,
    GraphAuditError,
    InstrumentationError,
    OptimisticMispredictionError,
    ResultTypeError,
    RunReport,
    StepLimitExceeded,
    TenantIsolationError,
    TrackedArray,
    TrackedList,
    TrackedObject,
    TrackingError,
    TrackingState,
    VerificationError,
    is_tracked,
    reset_tracking,
    tracking_state,
)
from .instrument import (
    CheckFunction,
    check,
    instrumented_source,
    recursify,
    register_pure_helper,
    register_pure_method,
)
from .guard import InvariantGuard, InvariantViolation, guarded
from .resilience import (
    AuditFinding,
    AuditReport,
    BreakerOpenError,
    BreakerPolicy,
    CircuitBreaker,
    DegradationPolicy,
    FaultPlan,
    GraphAuditor,
    InjectedFault,
    KeyedBreakers,
    inject_faults,
)
from .lint import Diagnostic, LintReport, lint_paths
from .obs import (
    ChromeTraceSink,
    EngineMetrics,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    TraceSink,
    enable_provenance,
    explain_last_run,
)

__version__ = "1.1.0"

__all__ = [
    "ArgsKey",
    "AuditFinding",
    "AuditReport",
    "BreakerOpenError",
    "BreakerPolicy",
    "check",
    "CheckDeadlineExceeded",
    "CheckFunction",
    "CheckRestrictionError",
    "ChromeTraceSink",
    "CircuitBreaker",
    "ComputationNode",
    "CyclicCheckError",
    "DegradationPolicy",
    "Diagnostic",
    "DittoEngine",
    "DittoError",
    "enable_provenance",
    "EngineBusyError",
    "EngineMetrics",
    "EngineStateError",
    "EngineStats",
    "explain_last_run",
    "FallbackEvent",
    "FaultPlan",
    "GraphAuditError",
    "GraphAuditor",
    "InjectedFault",
    "inject_faults",
    "InstrumentationError",
    "instrumented_source",
    "InvariantGuard",
    "InvariantViolation",
    "guarded",
    "is_tracked",
    "JsonlSink",
    "KeyedBreakers",
    "lint_paths",
    "LintReport",
    "MetricsRegistry",
    "NullSink",
    "OptimisticMispredictionError",
    "recursify",
    "RingBufferSink",
    "register_pure_helper",
    "register_pure_method",
    "reset_tracking",
    "ResultTypeError",
    "RunReport",
    "StepLimitExceeded",
    "TenantIsolationError",
    "TraceSink",
    "TrackedArray",
    "TrackedList",
    "TrackedObject",
    "TrackingError",
    "TrackingState",
    "tracking_state",
    "VerificationError",
    "__version__",
]
