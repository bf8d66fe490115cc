"""Graceful degradation: when to distrust the graph and how to come back.

A wrong-but-fast incremental checker is worse than no checker, so the
engine pairs every trust-losing event (step-limit blowup, exception
escaping the repair machinery, audit failure, paranoia verify mismatch)
with a *transactional* recovery: discard the computation graph, produce
the answer a from-scratch run would produce, and record the episode in
:class:`~repro.core.stats.EngineStats`.

The :class:`DegradationPolicy` configures that recovery:

* which event classes trigger it (exceptions can be opted out, in which
  case they are forwarded to the main program exactly as before);
* whether to *rebuild* the graph immediately (``cooldown_runs == 0``,
  incremental mode stays on) or to serve scratch answers for a cooldown
  window first, with exponential backoff on consecutive failures — the
  right choice when the fault is environmental and likely to recur.

A policy object is pure configuration and may be shared between engines;
all mutable state (cooldown counters, consecutive-failure count) lives on
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DegradationPolicy:
    """Configuration for :class:`~repro.core.engine.DittoEngine` recovery.

    With all defaults, a policy-carrying engine recovers from every
    detectable fault class by rebuilding its graph in place and never
    leaves incremental mode.  Set ``cooldown_runs`` to also back off to
    scratch mode after a fallback.
    """

    #: Recover from unexpected exceptions escaping incremental repair
    #: (after §3.5 misprediction retries are exhausted).  When False such
    #: exceptions are forwarded to the main program, as without a policy.
    fallback_on_exception: bool = True
    #: Recover when a paranoia-mode graph audit reports findings.
    fallback_on_audit_failure: bool = True
    #: Recover when a paranoia-mode cross-check against the uninstrumented
    #: check disagrees with the incremental result.
    fallback_on_verify_mismatch: bool = True
    #: Number of runs served by the uninstrumented check after a fallback
    #: before incremental mode is retried.  0 = rebuild immediately.
    cooldown_runs: int = 0
    #: Cooldown multiplier applied per *consecutive* fallback (a clean
    #: incremental run resets the streak).
    backoff_factor: float = 2.0
    #: Upper bound on any single cooldown window.
    max_cooldown_runs: int = 256
    #: After this many consecutive fallbacks the engine stays in scratch
    #: mode permanently (None = always retry incremental eventually).
    give_up_after: int | None = None

    def __post_init__(self) -> None:
        if self.cooldown_runs < 0:
            raise ValueError("cooldown_runs must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.max_cooldown_runs < 1:
            raise ValueError("max_cooldown_runs must be >= 1")
        if self.give_up_after is not None and self.give_up_after < 1:
            raise ValueError("give_up_after must be >= 1 or None")

    def cooldown_for(self, consecutive_fallbacks: int) -> float:
        """Length of the scratch-mode window after the N-th consecutive
        fallback; ``inf`` once ``give_up_after`` is exceeded."""
        if (
            self.give_up_after is not None
            and consecutive_fallbacks >= self.give_up_after
        ):
            return float("inf")
        if self.cooldown_runs == 0:
            return 0
        window = self.cooldown_runs * (
            self.backoff_factor ** max(0, consecutive_fallbacks - 1)
        )
        return min(window, float(self.max_cooldown_runs))
