"""Rule catalogue, diagnostics, and report model for ``repro.lint``.

Rule codes are stable API: tools (CI gates, ``# noqa:`` suppressions,
editor integrations) key on them, so codes are never renumbered or reused;
retired codes are listed in ``docs/api.md``.
The ``DIT0xx`` block covers the *check side* — interprocedural
admissibility of ``@check`` functions and everything they transitively
call (paper §3.5, Definition 2).  The ``DIT1xx`` block covers the *mutator
side* — stores that would evade the write barriers of §4, which the
dynamic system can only catch probabilistically (paranoia re-execution or
the QA fuzzer happening to hit the divergence).

Severities: ``error`` findings are soundness holes — the incremental
result can silently diverge from a from-scratch execution; the CLI exits
non-zero and strict engine registration refuses the check.  ``warning``
findings are unprovable-but-plausible constructs the analyzer cannot
verify (unresolvable call targets, dynamic attribute names); they are
reported but do not gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

ERROR = "error"
WARNING = "warning"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable code, a default severity, a one-line
    summary, and (for ``--explain``) a rationale paragraph plus a short
    illustrative example."""

    code: str
    name: str
    severity: str
    summary: str
    rationale: str = ""
    example: str = ""


#: The shipped rule catalogue, keyed by code.  See ``docs/architecture.md``
#: §10 for the full rationale of each rule.
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        # Check-side interprocedural admissibility (DIT0xx). ----------------
        Rule(
            "DIT001",
            "impure-helper",
            ERROR,
            "helper reachable from a check has side effects",
            rationale=(
                "Checks must be side-effect-free (paper §3.5): the engine "
                "memoizes and selectively re-executes nodes, so a helper "
                "that mutates state runs a data-dependent number of times "
                "and the incremental result silently diverges from a "
                "from-scratch execution."
            ),
            example=(
                "def helper(x):\n"
                "    CACHE[x] = x * 2   # store — impure\n"
                "    return CACHE[x]"
            ),
        ),
        Rule(
            "DIT002",
            "unverifiable-call",
            WARNING,
            "call target cannot be resolved or statically verified",
            rationale=(
                "The analyzer proves purity by reading source; a call "
                "whose target cannot be resolved (or has no Python "
                "source) might do anything.  Register the target with "
                "repro.register_pure_helper to assert purity explicitly."
            ),
            example=(
                "@check\n"
                "def c(v):\n"
                "    return mystery(v)  # 'mystery' not defined in "
                "linted files"
            ),
        ),
        Rule(
            "DIT003",
            "untracked-helper-read",
            ERROR,
            "helper reads heap locations the engine cannot attribute",
            rationale=(
                "Helper reads become implicit arguments of the calling "
                "node, but only depth-1 reads of the helper's parameters "
                "can be attributed.  Deeper pointer chases (a.b.c) are "
                "invisible to the dirty-marking pass: mutations there "
                "never re-execute the node."
            ),
            example=(
                "def helper(e):\n"
                "    return e.next.key  # depth-2 read — unattributable"
            ),
        ),
        Rule(
            "DIT004",
            "mutable-global",
            ERROR,
            "check or helper reads a global bound to a mutable value",
            rationale=(
                "Write barriers cover tracked objects, not module "
                "globals.  A check reading a mutable global can change "
                "its answer without any barrier event, so the memo graph "
                "is never dirtied and the stale result is reused."
            ),
            example=(
                "LIMITS = [10, 20]      # mutable module global\n"
                "@check\n"
                "def c(v):\n"
                "    return len(v) < LIMITS[0]"
            ),
        ),
        Rule(
            "DIT005",
            "unverifiable-method",
            WARNING,
            "method call purity cannot be statically verified",
            rationale=(
                "Method dispatch is dynamic: the receiver's class is "
                "unknown statically, so the analyzer cannot find the "
                "implementation to verify.  Register the implementation "
                "with repro.register_pure_method to name it explicitly."
            ),
            example=(
                "@check\n"
                "def c(t):\n"
                "    return t.depth() > 0  # .depth() unverifiable"
            ),
        ),
        Rule(
            "DIT006",
            "registered-pure-lie",
            ERROR,
            "function registered as pure fails the purity analysis",
            rationale=(
                "register_pure_helper / register_pure_method are trust "
                "declarations the engine acts on (it skips re-execution "
                "of registered calls).  When the analyzer can prove the "
                "registered body has side effects, the declaration is a "
                "soundness lie, not an unprovable claim."
            ),
            example=(
                "@register_pure_helper\n"
                "def h(x):\n"
                "    LOG.append(x)  # registered pure, provably impure\n"
                "    return x"
            ),
        ),
        Rule(
            "DIT007",
            "check-restriction",
            ERROR,
            "check violates the admissible language subset",
            rationale=(
                "The incrementalizer supports the paper's check language "
                "(§3.5): straight-line recursive functions without "
                "short-circuits guarded by callee results, stores, or "
                "unbounded constructs.  Outside the subset the memo "
                "graph's reuse conditions do not hold."
            ),
            example=(
                "@check\n"
                "def c(n):\n"
                "    return n.ok and c(n.next)  # callee-guarded "
                "short-circuit"
            ),
        ),
        Rule(
            "DIT008",
            "unattributable-method",
            ERROR,
            "pure method on a tracked receiver has reads the engine "
            "cannot attribute to the calling node",
            rationale=(
                "A registered-pure method on a tracked class is executed "
                "without instrumentation; its heap reads are attributed "
                "to the calling node from its static read summary.  "
                "Reads the summary cannot cover (deep chases, dynamic "
                "subscripts) make mutations invisible to dirty marking."
            ),
            example=(
                "class T(TrackedObject):\n"
                "    def tail(self):\n"
                "        return self.head.next.key  # depth-2 read"
            ),
        ),
        # Mutator-side barrier-bypass detection (DIT1xx). --------------------
        Rule(
            "DIT101",
            "setattr-bypass",
            ERROR,
            "object.__setattr__/__delattr__ store evades the write barrier",
            rationale=(
                "TrackedObject's barrier lives in __setattr__; calling "
                "object.__setattr__ directly stores without logging, so "
                "the engine reuses memoized results computed from the "
                "old value."
            ),
            example=(
                "object.__setattr__(node, 'key', 7)  # no barrier event"
            ),
        ),
        Rule(
            "DIT102",
            "dict-store-bypass",
            ERROR,
            "store through __dict__/vars() evades the write barrier",
            rationale=(
                "Writing instance.__dict__['f'] = v (or through vars()) "
                "skips __setattr__ entirely — the same silent-staleness "
                "hole as DIT101 via a different door."
            ),
            example="node.__dict__['key'] = 7  # no barrier event",
        ),
        Rule(
            "DIT103",
            "dynamic-setattr",
            WARNING,
            "dynamic-name setattr cannot be checked against monitored fields",
            rationale=(
                "setattr(obj, name, v) with a non-literal name does pass "
                "through the barrier, but the linter cannot prove the "
                "name is (or is not) a monitored field, so the finding "
                "is advisory."
            ),
            example="setattr(node, field_name, value)  # name unknown",
        ),
        Rule(
            "DIT104",
            "raw-backing-alias",
            ERROR,
            "raw backing list of a tracked container mutated in place",
            rationale=(
                "Aliasing a tracked container's private backing list "
                "(obj._items) and mutating the alias stores without any "
                "barrier: the container's locations never log and every "
                "dependent check goes stale."
            ),
            example=(
                "raw = vec._items\n"
                "raw.append(5)  # invisible to the write log"
            ),
        ),
        Rule(
            "DIT105",
            "untracked-monitored-store",
            WARNING,
            "monitored field name stored on a class without write barriers",
            rationale=(
                "A store to a field name some check reads, on a class "
                "that does not inherit a tracked base, suggests state "
                "the checks depend on living outside the barrier's "
                "reach.  Often intentional (plain value objects), hence "
                "a warning."
            ),
            example=(
                "class Plain:           # not a TrackedObject\n"
                "    def set(self):\n"
                "        self.items = []  # 'items' is monitored"
            ),
        ),
    )
}


@dataclass
class Diagnostic:
    """One finding: a rule violation at a source position."""

    code: str
    message: str
    file: str | None = None
    line: int = 0
    function: str | None = None
    severity: str = ""

    def __post_init__(self) -> None:
        if not self.severity:
            self.severity = RULES[self.code].severity

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "name": self.rule.name,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "function": self.function,
        }

    def format(self) -> str:
        where = self.file if self.file else "<live>"
        position = f"{where}:{self.line}" if self.line else where
        scope = f" [{self.function}]" if self.function else ""
        return f"{position}: {self.code} {self.severity}: {self.message}{scope}"


class LintReport:
    """An ordered collection of diagnostics with gate/exit semantics."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: list[Diagnostic] = list(diagnostics)
        #: Number of files the run examined (file mode only).
        self.files_linted = 0

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings are present."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def exit_code(self, strict_warnings: bool = False) -> int:
        if self.errors:
            return 1
        if strict_warnings and self.warnings:
            return 1
        return 0

    def sorted(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (
                d.file or "",
                d.line,
                _SEVERITY_ORDER.get(d.severity, 9),
                d.code,
            ),
        )

    def format_text(self) -> str:
        lines = [d.format() for d in self.sorted()]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "files_linted": self.files_linted,
                "summary": {
                    "errors": len(self.errors),
                    "warnings": len(self.warnings),
                },
                "diagnostics": [d.to_dict() for d in self.sorted()],
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
