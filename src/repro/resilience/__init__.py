"""Resilience layer: graph self-auditing, fault injection, degradation.

Three cooperating pieces keep a production engine trustworthy:

* :class:`GraphAuditor` (``engine.audit()`` / the engine's ``paranoia``
  mode) re-derives the computation graph's representation invariants and
  reports violations instead of serving answers from a corrupt graph;
* :class:`FaultPlan` / :func:`inject_faults` deliberately break the
  machinery — dropped write barriers, corrupted cached returns, exceptions
  mid-repair — so tests *prove* detection and recovery;
* :class:`DegradationPolicy` tells the engine how to recover when trust is
  lost: transactionally discard the graph, answer from scratch, record the
  episode in :class:`~repro.core.stats.EngineStats`, and optionally back
  off to scratch mode for a cooldown before retrying incremental.
"""

from .auditor import AuditFinding, AuditReport, GraphAuditor
from .degradation import DegradationPolicy
from .faults import FaultInjector, FaultPlan, InjectedFault, inject_faults

__all__ = [
    "AuditFinding",
    "AuditReport",
    "DegradationPolicy",
    "FaultInjector",
    "FaultPlan",
    "GraphAuditor",
    "InjectedFault",
    "inject_faults",
]
