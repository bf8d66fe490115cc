"""Observability for the DITTO engine: tracing, provenance, profiling.

Four sub-layers, each an :class:`Observer` that costs nothing until
``engine.attach()`` puts it in the engine's one observer slot:

* :mod:`repro.obs.trace` / :mod:`repro.obs.sinks` — structured trace
  sinks.  Attach a sink (``DittoEngine(..., trace_sink=...)`` or
  ``engine.trace_sink = ...``) and the engine emits a span per run phase
  (``barrier_drain``, ``dirty_mark``, ``exec``, ``propagate``, ``prune``,
  ``retry``, ``fallback``, ``audit``, ``verify``) plus instants for node
  re-executions, reuses, mispredictions, and degradation episodes.
  :class:`ChromeTraceSink` output loads directly in Perfetto.

* :mod:`repro.obs.provenance` — the "why did this re-execute?" recorder:
  :func:`enable_provenance` + :func:`explain_last_run` render the chain
  mutated location → dirtied nodes → re-executed nodes → propagated
  ancestors as text or DOT.

* :mod:`repro.obs.profiler` — the repair-cost attribution profiler:
  :func:`enable_profiling` answers "which mutation *call-site* makes my
  checks slow?" by joining barrier-captured caller tags against the memo
  graph's dirtied nodes; exports folded stacks, speedscope JSON, and a
  memo-graph heat DOT.

* :mod:`repro.obs.flight` — the black-box flight recorder: a bounded
  ring of recent run summaries + trace slices per engine, auto-dumping a
  self-contained JSON artifact when something goes wrong (scratch
  fallback, QA divergence).

``python -m repro.obs analyze`` (:mod:`repro.obs.analyze`) reads every
artifact the layer writes back in, summarizes it, and gates committed
``BENCH_*.json`` history against drift.
"""

from .trace import (
    INSTANT_NAMES,
    SPAN_NAMES,
    NullSink,
    Observer,
    RingBufferSink,
    TeeSink,
    TraceEvent,
    TraceSink,
)
from .sinks import ChromeTraceSink, JsonlSink, validate_chrome_trace
from .provenance import (
    RunExplanation,
    RunRecord,
    RunRecorder,
    disable_provenance,
    enable_provenance,
    explain_last_run,
)
from .profiler import RepairProfiler, disable_profiling, enable_profiling
from .flight import TRIGGER_REASONS, FlightRecorder

__all__ = [
    "ChromeTraceSink",
    "disable_profiling",
    "disable_provenance",
    "enable_profiling",
    "enable_provenance",
    "explain_last_run",
    "FlightRecorder",
    "INSTANT_NAMES",
    "JsonlSink",
    "NullSink",
    "Observer",
    "RepairProfiler",
    "RingBufferSink",
    "RunExplanation",
    "RunRecord",
    "RunRecorder",
    "SPAN_NAMES",
    "TeeSink",
    "TraceEvent",
    "TraceSink",
    "TRIGGER_REASONS",
    "validate_chrome_trace",
]
