"""Interprocedural admissibility: the live (registration-time) pass.

The per-function analysis of :mod:`repro.instrument.analysis` validates one
check body and *trusts* everything at its boundary — helper calls, method
calls, global bindings.  This module closes the boundary for a registered
entry point: it builds the call graph over the entry's check closure *and*
every non-check helper reachable from it, runs the summary-based purity
analysis (:mod:`repro.lint.purity`) to a fixpoint over that graph, and
folds the helpers' read summaries back into the entry's barrier plan.

The product is an :class:`EntryPlan`:

* ``monitored_fields`` / ``reads_len`` / ``reads_indices`` — the entry's
  *own* barrier plan, including helper-propagated reads.  The engine
  monitors exactly this set instead of a trusted per-check union, which
  both tightens the monitored-field filter and makes helper field reads
  sound (they are monitored even when no check body names them).
* ``helper_summaries`` — per-helper depth-1 read attributions
  (``param index -> fields``) the runtime uses to record a helper's reads
  as implicit arguments of the calling node.
* ``verified_helpers`` — helpers statically proven side-effect-free with
  every read coverable; under ``lint="strict"`` the engine accepts these
  without a ``register_pure_helper`` registration.
* ``diagnostics`` — DIT-rule findings for everything that cannot be
  proven.

``build_plan`` never raises on *lint* findings (the engine decides how to
react); it only propagates :class:`~repro.core.errors.CheckRestrictionError`
from the underlying per-check analyses, exactly as direct registration
would.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field
from typing import Any

from ..instrument.analysis import (
    PURE_BUILTINS,
    SAFE_BINDINGS,
    classify_binding,
)
from ..core.tracked import TrackedArray, TrackedObject
from ..instrument.registry import CheckFunction, closure_of
from ..instrument.transform import _PURE_HELPERS, _PURE_METHODS
from .purity import HelperSummary, analyze_helper
from .rules import Diagnostic, LintReport

#: Names the instrumentation handles specially — not helper calls.
_SPECIAL_CALLS = PURE_BUILTINS | {"len"}


def _position(func: Any) -> tuple[str | None, int]:
    code = getattr(func, "__code__", None)
    if code is None:
        return None, 0
    return code.co_filename, code.co_firstlineno


@dataclass
class EntryPlan:
    """Whole-program admissibility plan for one registered entry point."""

    entry: CheckFunction
    #: uid -> CheckFunction, the entry's check closure.
    functions: dict[int, CheckFunction]
    #: Fields monitored on behalf of this entry (checks + helpers).
    monitored_fields: frozenset[str]
    reads_len: bool
    reads_indices: bool
    #: Live helper function -> its purity/read summary.
    helper_summaries: dict[Any, HelperSummary] = field(default_factory=dict)
    #: (class, method name) -> read summary for registered pure methods
    #: the entry calls; the runtime attributes their depth-1 receiver and
    #: argument reads exactly like helper reads (param 0 is the receiver).
    method_summaries: dict[tuple[type, str], HelperSummary] = field(
        default_factory=dict
    )
    #: Helpers statically verified pure with fully-coverable reads.
    verified_helpers: frozenset = frozenset()
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def report(self) -> LintReport:
        return LintReport(self.diagnostics)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


def _helper_registered(func: Any) -> bool:
    return func in _PURE_HELPERS


def _receiver_tracked(cls: type) -> bool:
    """Does ``cls`` participate in write-barrier tracking?  Methods on
    untracked receivers have no barrier-visible heap to misattribute."""
    return issubclass(cls, (TrackedObject, TrackedArray))


def _pure_method_impls(name: str) -> list[tuple[type, Any]]:
    """Registered-pure implementations of method ``name``: the classes a
    ``register_pure_method(cls, name)`` call named, with the function
    found on the class (``None`` when the registration is dangling)."""
    impls = []
    for cls, registered in _PURE_METHODS:
        if registered == name:
            impls.append((cls, getattr(cls, name, None)))
    return impls


def build_plan(entry: CheckFunction) -> EntryPlan:
    """Build the interprocedural plan for ``entry``.

    Propagates :class:`CheckRestrictionError` from per-check analyses (the
    same error direct use of the check would raise); all whole-program
    findings are returned as diagnostics instead of raised.
    """
    functions = closure_of(entry)
    diagnostics: list[Diagnostic] = []
    fields: set[str] = set()
    reads_len = False
    reads_indices = False

    helper_summaries: dict[Any, HelperSummary] = {}
    method_summaries: dict[tuple[type, str], HelperSummary] = {}
    #: Helpers whose summary (or a callee's) failed — not verifiable.
    tainted_helpers: set[Any] = set()
    worklist: list[tuple[Any, CheckFunction]] = []
    queued: set[Any] = set()

    def queue_helper(func: Any, owner: CheckFunction) -> None:
        if func not in queued:
            queued.add(func)
            worklist.append((func, owner))

    for fn in functions.values():
        analysis = fn.analysis()
        fields |= analysis.fields_read
        reads_len = reads_len or analysis.reads_len
        reads_indices = reads_indices or analysis.reads_indices
        file, line = _position(fn.original)

        for name in sorted(analysis.called_names):
            if name in _SPECIAL_CALLS:
                continue
            target = fn.lookup_name(name)
            if isinstance(target, CheckFunction):
                continue  # part of the closure, analyzed as a check
            if target is None:
                diagnostics.append(Diagnostic(
                    "DIT002",
                    f"check {fn.name!r} calls {name!r}, which cannot be "
                    f"resolved at lint time",
                    file=file, line=line, function=fn.name,
                ))
            elif isinstance(target, type):
                diagnostics.append(Diagnostic(
                    "DIT002",
                    f"check {fn.name!r} calls constructor {name!r}; "
                    f"allocation inside a check cannot be verified pure",
                    file=file, line=line, function=fn.name,
                ))
            elif isinstance(target, types.FunctionType):
                queue_helper(target, fn)
            elif not _helper_registered(target):
                diagnostics.append(Diagnostic(
                    "DIT002",
                    f"check {fn.name!r} calls {name!r} "
                    f"({type(target).__name__}), which has no analyzable "
                    f"source and is not registered pure",
                    file=file, line=line, function=fn.name,
                ))

        for name in sorted(analysis.methods_called):
            impls = _pure_method_impls(name)
            if not impls:
                diagnostics.append(Diagnostic(
                    "DIT005",
                    f"check {fn.name!r} calls method .{name}() on a "
                    f"receiver whose purity cannot be verified; register "
                    f"it with repro.register_pure_method (strict runtime "
                    f"dispatch rejects it otherwise)",
                    file=file, line=line, function=fn.name,
                ))
                continue
            for cls, impl in impls:
                summary = (
                    analyze_helper(impl)
                    if isinstance(impl, types.FunctionType)
                    else None
                )
                if summary is None:
                    if _receiver_tracked(cls):
                        # No source -> no read summary -> the runtime
                        # cannot attribute the method body's heap reads to
                        # the calling node; mutations it depends on would
                        # never dirty the graph.
                        diagnostics.append(Diagnostic(
                            "DIT008",
                            f"{cls.__name__}.{name} is registered as a "
                            f"pure method on a tracked class but has no "
                            f"analyzable source; its heap reads cannot be "
                            f"attributed to the calling node — define it "
                            f"as plain Python or make it a @check",
                            file=file, line=line,
                            function=f"{cls.__name__}.{name}",
                        ))
                    continue
                if not summary.pure:
                    reasons = "; ".join(
                        f"line {ln}: {msg}"
                        for ln, msg in summary.impure[:3]
                    )
                    ifile, iline = _position(impl)
                    diagnostics.append(Diagnostic(
                        "DIT006",
                        f"{cls.__name__}.{name} is registered as a "
                        f"pure method but has side effects ({reasons})",
                        file=ifile, line=iline,
                        function=f"{cls.__name__}.{name}",
                    ))
                    continue
                fields |= summary.fields_read
                reads_len = reads_len or summary.reads_len or bool(
                    summary.arg_len_read
                )
                reads_indices = reads_indices or summary.reads_indices
                method_summaries[(cls, name)] = summary
                if summary.deep_reads and _receiver_tracked(cls):
                    reasons = "; ".join(
                        f"line {ln}: {msg}"
                        for ln, msg in summary.deep_reads[:3]
                    )
                    ifile, iline = _position(impl)
                    diagnostics.append(Diagnostic(
                        "DIT008",
                        f"{cls.__name__}.{name} reads heap locations the "
                        f"engine cannot attribute to the calling node "
                        f"({reasons})",
                        file=ifile, line=iline,
                        function=f"{cls.__name__}.{name}",
                    ))

        for name in sorted(analysis.globals_read):
            value = fn.lookup_name(name)
            if value is None:
                diagnostics.append(Diagnostic(
                    "DIT002",
                    f"check {fn.name!r} reads global {name!r}, which "
                    f"cannot be resolved at lint time (assumed a "
                    f"late-bound constant)",
                    file=file, line=line, function=fn.name,
                ))
            elif classify_binding(value) not in SAFE_BINDINGS:
                diagnostics.append(Diagnostic(
                    "DIT004",
                    f"check {fn.name!r} reads global {name!r} bound to a "
                    f"mutable {type(value).__name__}; mutations would be "
                    f"invisible to the write barriers",
                    file=file, line=line, function=fn.name,
                ))

    # Helper closure: analyze each reachable helper, queueing its callees. ---
    while worklist:
        func, owner = worklist.pop()
        summary = analyze_helper(func)
        hfile, hline = _position(func)
        hname = getattr(func, "__name__", repr(func))
        if summary is None:
            tainted_helpers.add(func)
            if not _helper_registered(func):
                diagnostics.append(Diagnostic(
                    "DIT002",
                    f"helper {hname!r} (called from check {owner.name!r}) "
                    f"has no analyzable source and is not registered pure",
                    file=hfile, line=hline, function=hname,
                ))
            continue
        helper_summaries[func] = summary
        registered = _helper_registered(func)

        if not summary.pure:
            tainted_helpers.add(func)
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.impure[:3]
            )
            diagnostics.append(Diagnostic(
                "DIT006" if registered else "DIT001",
                (
                    f"helper {hname!r} is registered as pure but has side "
                    f"effects ({reasons})"
                    if registered
                    else f"helper {hname!r} (called from check "
                         f"{owner.name!r}) has side effects ({reasons})"
                ),
                file=hfile, line=hline, function=hname,
            ))
        if summary.deep_reads:
            tainted_helpers.add(func)
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.deep_reads[:3]
            )
            diagnostics.append(Diagnostic(
                "DIT003",
                f"helper {hname!r} reads heap locations the engine cannot "
                f"attribute to the calling node ({reasons})",
                file=hfile, line=hline, function=hname,
            ))
        if summary.unverified:
            tainted_helpers.add(func)
            if not registered:
                reasons = "; ".join(
                    f"line {ln}: {msg}" for ln, msg in summary.unverified[:3]
                )
                diagnostics.append(Diagnostic(
                    "DIT002",
                    f"helper {hname!r} cannot be statically verified "
                    f"({reasons}); register it with "
                    f"repro.register_pure_helper to assert purity",
                    file=hfile, line=hline, function=hname,
                ))

        # Helper reads join the entry's barrier plan.
        fields |= summary.fields_read
        reads_len = reads_len or summary.reads_len or bool(
            summary.arg_len_read
        )
        reads_indices = reads_indices or summary.reads_indices

        for cname in sorted(summary.calls):
            target = func.__globals__.get(cname)
            if isinstance(target, CheckFunction):
                tainted_helpers.add(func)
                diagnostics.append(Diagnostic(
                    "DIT003",
                    f"helper {hname!r} calls @check {cname!r}; check calls "
                    f"from inside helpers bypass memoization and read "
                    f"attribution — make the helper a @check",
                    file=hfile, line=hline, function=hname,
                ))
            elif isinstance(target, types.FunctionType):
                queue_helper(target, owner)
            elif target is None or not _helper_registered(target):
                tainted_helpers.add(func)
                if not registered:
                    diagnostics.append(Diagnostic(
                        "DIT002",
                        f"helper {hname!r} calls {cname!r}, which cannot "
                        f"be resolved or verified",
                        file=hfile, line=hline, function=hname,
                    ))

    # Verified closure: a helper is verified only if its own summary is
    # clean and every transitive callee is verified too.  Iterate to a
    # fixpoint over the (small) helper call graph.
    verified = {
        f for f, s in helper_summaries.items()
        if s.verified and f not in tainted_helpers
    }
    changed = True
    while changed:
        changed = False
        for func in list(verified):
            summary = helper_summaries[func]
            for cname in summary.calls:
                target = func.__globals__.get(cname)
                if target not in verified:
                    verified.discard(func)
                    changed = True
                    break

    return EntryPlan(
        entry=entry,
        functions=functions,
        monitored_fields=frozenset(fields),
        reads_len=reads_len,
        reads_indices=reads_indices,
        helper_summaries=helper_summaries,
        method_summaries=method_summaries,
        verified_helpers=frozenset(verified),
        diagnostics=diagnostics,
    )
