"""The differential oracle: scratch re-execution is ground truth.

``Oracle.run(trace)`` replays one trace simultaneously against three
engines built on the same invariant entry point —

* ``scratch`` — the uninstrumented check, re-run in full (the ideal
  semantics every incrementalizer must match);
* ``ditto``   — the optimistic incrementalizer under test;
* ``naive``   — the replay-validating incrementalizer (a second,
  independently-wrong-able implementation, so a three-way diff also
  localizes *which* strategy diverged);

— all observing the *same* heap.  Every ``@check`` op runs the invariant
on each engine and diffs the outcomes (value or raised exception); after
the final check the computation graphs are audited with the
:class:`~repro.resilience.auditor.GraphAuditor`.  Any disagreement — or
an exception escaping a structure mutator, or a failed audit — is
recorded as a :class:`Divergence`, which the shrinker then minimizes.

``@fault`` ops arm a :class:`~repro.resilience.faults.FaultPlan` against
the optimistic engine mid-trace, so the fuzzer can prove the harness
*catches* seeded corruption, not merely that clean runs agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.engine import DittoEngine
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceSink
from ..resilience.faults import FaultInjector, FaultPlan, inject_faults
from .models import StructureModel, get_model
from .trace import CHECK, FAULT, Op, Trace

#: Engine modes the oracle compares, truth source first.
DEFAULT_MODES = ("scratch", "ditto", "naive")

#: Strategy modes (:mod:`repro.derive`): ``derived`` pins the fold-
#: maintenance strategy on (construction fails unless the entry
#: classifies), ``hybrid`` lets the engine pick per entry.  Both run in
#: engine mode ``ditto``.  The plain ``ditto``/``naive`` modes pin
#: ``strategy="memo"`` so the differential stays memo-vs-derived even
#: when ``DITTO_STRATEGY`` is set in the environment.
_STRATEGY_MODES = {"derived": "derived", "hybrid": "hybrid"}


def _engine_config(mode: str) -> tuple[str, str]:
    """Split an oracle mode into ``(engine_mode, strategy)``."""
    if mode in _STRATEGY_MODES:
        return "ditto", _STRATEGY_MODES[mode]
    return mode, "memo"


@dataclass
class Divergence:
    """One observed disagreement (or harness-detected failure)."""

    #: ``return_mismatch`` | ``exception_mismatch`` | ``audit_failure`` |
    #: ``apply_error``
    kind: str
    #: Index into the trace of the op that exposed it (``len(ops)`` for
    #: the implicit final check/audit).
    op_index: int
    op: Optional[Op]
    #: Per-mode outcome (or rule findings / mutator traceback text).
    details: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        at = f"op[{self.op_index}]={self.op}" if self.op else "end of trace"
        parts = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
        return f"{self.kind} at {at}: {parts}"


@dataclass
class OracleReport:
    """Everything one trace replay observed."""

    structure: str
    seed: int
    ops_applied: int = 0
    checks_run: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    #: Audit findings per audited mode (empty lists when clean).
    audit_findings: dict[str, list[str]] = field(default_factory=dict)
    faults_armed: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (
            f"{self.structure}: {self.ops_applied} ops, "
            f"{self.checks_run} checks, {verdict} ({self.duration:.2f}s)"
        )


def _outcome(engine: DittoEngine, args: tuple) -> tuple[str, Any]:
    """Run one engine's check; normalize to a comparable outcome tag."""
    try:
        return ("value", engine.run(*args))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - diffed, not swallowed
        return ("raise", type(exc).__name__)


def _outcomes_agree(a: tuple[str, Any], b: tuple[str, Any]) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "raise":
        return a[1] == b[1]
    # Semantic equality within the same type (the engine's own notion):
    # True turning into 1 is a divergence even though they compare ==.
    return type(a[1]) is type(b[1]) and a[1] == b[1]


class Oracle:
    """Replay traces differentially; see the module docstring."""

    def __init__(
        self,
        model: StructureModel | str,
        modes: tuple[str, ...] = DEFAULT_MODES,
        audit: bool = True,
        validate: bool = False,
        stop_on_divergence: bool = True,
        trace_sink: Optional[TraceSink] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.model = get_model(model) if isinstance(model, str) else model
        if "scratch" not in modes or len(modes) < 2:
            raise ValueError(
                "oracle needs 'scratch' (ground truth) plus at least one "
                f"incremental mode, got {modes!r}"
            )
        self.modes = modes
        self.audit = audit
        #: Also run the assertion-based ``engine.validate()`` after the
        #: final check (tier-1 corpus turns this on; it is O(graph)).
        self.validate = validate
        self.stop_on_divergence = stop_on_divergence
        self.trace_sink = trace_sink
        self.metrics = metrics

    def run(self, trace: Trace) -> OracleReport:
        if trace.structure != self.model.name:
            raise ValueError(
                f"trace targets {trace.structure!r} but oracle wraps "
                f"{self.model.name!r}"
            )
        report = OracleReport(structure=trace.structure, seed=trace.seed)
        started = time.perf_counter()
        engines: dict[str, DittoEngine] = {}
        injectors: list[FaultInjector] = []
        try:
            for mode in self.modes:
                # The shared trace sink only goes on incremental engines:
                # scratch emits one exec span per run, which would drown
                # the repair spans the trace exists to show.
                sink = self.trace_sink if mode != "scratch" else None
                engine_mode, strategy = _engine_config(mode)
                engines[mode] = DittoEngine(
                    self.model.entry,
                    mode=engine_mode,
                    recursion_limit=None,
                    trace_sink=sink,
                    strategy=strategy,
                )
            structure = self.model.fresh()
            for index, op in enumerate(trace.ops):
                if op.name == CHECK:
                    self._check(engines, structure, index, op, report)
                elif op.name == FAULT:
                    self._arm_fault(engines, op, injectors, report)
                else:
                    try:
                        self.model.apply(structure, op)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:  # noqa: BLE001
                        report.divergences.append(
                            Divergence(
                                "apply_error",
                                index,
                                op,
                                {"error": f"{type(exc).__name__}: {exc}"},
                            )
                        )
                        break  # structure state is unknown from here on
                    report.ops_applied += 1
                if report.divergences and self.stop_on_divergence:
                    break
            else:
                # Implicit final check + graph audits (a trace that never
                # checks still gets one differential verdict).
                self._check(
                    engines, structure, len(trace.ops), None, report
                )
                if self.audit and (
                    not report.divergences or not self.stop_on_divergence
                ):
                    self._audit(engines, len(trace.ops), report)
                if self.validate and not report.divergences:
                    for mode, engine in engines.items():
                        if mode == "scratch":
                            continue
                        try:
                            engine.validate()
                        except AssertionError as exc:
                            report.divergences.append(
                                Divergence(
                                    "validate_error",
                                    len(trace.ops),
                                    None,
                                    {mode: str(exc)},
                                )
                            )
        finally:
            for injector in injectors:
                injector.__exit__(None, None, None)
            for engine in engines.values():
                engine.close()
        report.duration = time.perf_counter() - started
        self._record_metrics(report)
        return report

    # Steps. -----------------------------------------------------------------

    def _check(
        self,
        engines: dict[str, DittoEngine],
        structure: Any,
        index: int,
        op: Optional[Op],
        report: OracleReport,
    ) -> None:
        args = self.model.check_args(structure)
        outcomes = {
            mode: _outcome(engine, args) for mode, engine in engines.items()
        }
        report.checks_run += 1
        truth = outcomes["scratch"]
        for mode, outcome in outcomes.items():
            if mode == "scratch" or _outcomes_agree(truth, outcome):
                continue
            kind = (
                "exception_mismatch"
                if "raise" in (truth[0], outcome[0])
                else "return_mismatch"
            )
            report.divergences.append(
                Divergence(kind, index, op, dict(outcomes))
            )
            return

    def _audit(
        self,
        engines: dict[str, DittoEngine],
        index: int,
        report: OracleReport,
    ) -> None:
        for mode, engine in engines.items():
            if mode == "scratch":
                continue  # no graph to audit
            audit = engine.audit(raise_on_failure=False)
            findings = [str(f) for f in audit.findings]
            report.audit_findings[mode] = findings
            if not audit.ok:
                report.divergences.append(
                    Divergence(
                        "audit_failure", index, None, {mode: findings}
                    )
                )

    def _arm_fault(
        self,
        engines: dict[str, DittoEngine],
        op: Op,
        injectors: list[FaultInjector],
        report: OracleReport,
    ) -> None:
        kind, amount = op.args[0], int(op.args[1])
        target = None
        for base in ("ditto", "naive"):
            for mode, engine in engines.items():
                if _engine_config(mode)[0] == base:
                    target = engine
                    break
            if target is not None:
                break
        if target is None:
            return
        if kind == "drop_writes":
            if target.tracking.write_log.fault_hook is not None:
                return  # one write-log hook at a time; later arms are no-ops
            plan = FaultPlan(drop_writes=amount)
        elif kind == "corrupt_returns":
            plan = FaultPlan(corrupt_returns=amount)
        elif kind == "raise_calls":
            plan = FaultPlan(raise_on_calls=frozenset(range(1, amount + 1)))
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        injectors.append(inject_faults(target, plan).__enter__())
        report.faults_armed += 1

    def _record_metrics(self, report: OracleReport) -> None:
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("qa_traces_total", "Traces replayed by the QA oracle").inc()
        m.counter("qa_ops_total", "Mutation ops applied").inc(
            report.ops_applied
        )
        m.counter("qa_checks_total", "Differential checks executed").inc(
            report.checks_run
        )
        m.counter(
            "qa_divergences_total", "Divergences across all traces"
        ).inc(len(report.divergences))
        m.histogram(
            "qa_trace_seconds", help="Wall-clock seconds per trace replay"
        ).observe(report.duration)


def replay_trace(trace: Trace, **oracle_options: Any) -> OracleReport:
    """One-shot replay: build an Oracle for the trace's structure and run
    it.  This is the entry point generated reproducer snippets use."""
    return Oracle(trace.structure, **oracle_options).run(trace)
