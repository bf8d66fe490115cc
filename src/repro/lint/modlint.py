"""File-mode whole-program analysis (the ``python -m repro.lint`` side).

Live mode (:mod:`repro.lint.interproc`) resolves call targets through real
function objects; CI cannot import the code under lint (imports execute
arbitrary module bodies, and a broken tree must still be lintable).  This
module rebuilds the environment statically: each file is parsed once into a
:class:`ModuleInfo` symbol table — checks (``@check`` defs), helpers
(other module-level defs), classes and their tracked-base resolution,
purity registrations, and a mutability classification of module-level
constant bindings.  A :class:`Program` merges the tables across every
linted file so imports between them resolve, then the same
admissibility/purity passes that run live are replayed against the static
environment:

* each check body runs through the shared
  :func:`repro.instrument.analysis.run_admissibility` fixpoint (language
  subset + optimistic-memoization restriction) — violations surface as
  DIT007 instead of a registration-time raise;
* reachable helpers run through :mod:`repro.lint.purity`
  (DIT001/DIT002/DIT003/DIT006);
* ``globals_read`` bindings are checked against the constant
  classification (DIT004);
* the union of check + helper field reads feeds the barrier-bypass pass
  (:mod:`repro.lint.barriers`), which needs to know which field names are
  monitored.

Suppression: a finding whose source line ends with ``# noqa`` or
``# noqa: DITxxx[,DITyyy]`` is dropped, matching the convention of other
Python linters.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from ..instrument.analysis import (
    PURE_BUILTINS,
    CheckAnalysis,
    _check_signature,
    run_admissibility,
)
from .purity import analyze_helper_tree
from .rules import Diagnostic, LintReport
from .barriers import scan_module

#: Base-class leaf names that carry the write barrier.
TRACKED_BASES = frozenset({"TrackedObject", "TrackedArray", "TrackedList"})

_VIOLATION_RE = re.compile(r"^line (\d+): (.*)$", re.DOTALL)
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Constructor names whose results are immutable values.
_IMMUTABLE_CTORS = frozenset(
    {"int", "float", "bool", "str", "bytes", "tuple", "frozenset", "range",
     "complex"}
)
#: Constructor names whose results are definitely mutable.
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray"})


def _leaf_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _classify_constant_expr(node: ast.AST) -> str:
    """Static mirror of ``analysis.classify_binding`` over an initializer
    expression: ``immutable`` / ``mutable`` / ``ctor:<Name>`` (a class
    instantiation, resolved against the program's tracked classes later) /
    ``unknown``."""
    if isinstance(node, ast.Constant):
        return "immutable"
    if isinstance(node, ast.UnaryOp):
        return _classify_constant_expr(node.operand)
    if isinstance(node, ast.BinOp):
        left = _classify_constant_expr(node.left)
        right = _classify_constant_expr(node.right)
        if left == right == "immutable":
            return "immutable"
        return "unknown"
    if isinstance(node, ast.Tuple):
        if all(_classify_constant_expr(e) == "immutable" for e in node.elts):
            return "immutable"
        return "mutable"
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return "mutable"
    if isinstance(node, ast.Call):
        name = _leaf_name(node.func)
        if name in _IMMUTABLE_CTORS:
            return "immutable"
        if name in _MUTABLE_CTORS:
            return "mutable"
        if name:
            return f"ctor:{name}"
    return "unknown"


@dataclass
class ModuleInfo:
    """Static symbol table of one parsed file."""

    path: str
    tree: ast.Module
    source_lines: list[str]
    #: Module-level ``@check`` function defs by name.
    checks: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Other module-level function defs by name.
    helpers: dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: Class name -> base leaf names (for tracked resolution).
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    #: Helper names registered through ``register_pure_helper``.
    registered_pure: set[str] = field(default_factory=set)
    #: Method names registered through ``register_pure_method``.
    pure_method_names: set[str] = field(default_factory=set)
    #: (class leaf name, method name) pairs of those registrations.
    pure_method_pairs: set[tuple[str, str]] = field(default_factory=set)
    #: Module-level binding name -> classification string.
    constants: dict[str, str] = field(default_factory=dict)
    #: Imported local name -> leaf name at the import site.
    imports: dict[str, str] = field(default_factory=dict)


def parse_module(path: str) -> tuple[ModuleInfo | None, list[Diagnostic]]:
    """Parse ``path`` into a :class:`ModuleInfo`; a file that does not
    parse yields a DIT007 error (an unparseable module can hide anything)."""
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 0) or 0
        return None, [Diagnostic(
            "DIT007", f"file cannot be parsed: {exc}", file=path, line=line,
        )]
    info = ModuleInfo(
        path=path, tree=tree, source_lines=source.splitlines()
    )
    _collect(info)
    return info, []


def _decorator_names(fd: ast.FunctionDef) -> set[str]:
    names = set()
    for deco in fd.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        leaf = _leaf_name(target)
        if leaf:
            names.add(leaf)
    return names


def _collect(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[-1]
                info.imports[local] = alias.name.split(".")[-1]
        elif isinstance(node, ast.FunctionDef):
            decorators = {
                info.imports.get(name, name)
                for name in _decorator_names(node)
            }
            if "check" in decorators:
                info.checks[node.name] = node
            else:
                info.helpers[node.name] = node
            if "register_pure_helper" in decorators:
                info.registered_pure.add(node.name)
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = node
            info.class_bases[node.name] = [
                leaf for base in node.bases
                if (leaf := _leaf_name(base)) is not None
            ]
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                info.constants[target.id] = _classify_constant_expr(
                    node.value
                )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                info.constants[node.target.id] = _classify_constant_expr(
                    node.value
                )
    # Registration calls at module level:
    #   register_pure_helper(func) / register_pure_method(Cls, "name")
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        leaf = _leaf_name(node.func)
        canonical = info.imports.get(leaf, leaf) if leaf else None
        if canonical == "register_pure_helper" and node.args:
            name = _leaf_name(node.args[0])
            if name:
                info.registered_pure.add(name)
        elif canonical == "register_pure_method" and len(node.args) >= 2:
            method = node.args[1]
            if isinstance(method, ast.Constant) and isinstance(
                method.value, str
            ):
                info.pure_method_names.add(method.value)
                cls_name = _leaf_name(node.args[0])
                if cls_name:
                    info.pure_method_pairs.add((cls_name, method.value))


class Program:
    """Merged symbol tables of every linted module."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = modules
        self.check_names: set[str] = set()
        self.helper_defs: dict[str, tuple[ModuleInfo, ast.FunctionDef]] = {}
        self.registered_pure: set[str] = set()
        self.pure_method_names: set[str] = set()
        self.tracked_classes: set[str] = set(TRACKED_BASES)
        self.constants: dict[str, str] = {}
        self.pure_method_pairs: set[tuple[str, str]] = set()
        #: (class name, method name) -> (module, method def).
        self.method_defs: dict[
            tuple[str, str], tuple[ModuleInfo, ast.FunctionDef]
        ] = {}
        for info in modules:
            self.check_names |= set(info.checks)
            for name, fd in info.helpers.items():
                self.helper_defs.setdefault(name, (info, fd))
            self.registered_pure |= info.registered_pure
            self.pure_method_names |= info.pure_method_names
            self.pure_method_pairs |= info.pure_method_pairs
            for cls_name, cd in info.classes.items():
                for stmt in cd.body:
                    if isinstance(stmt, ast.FunctionDef):
                        self.method_defs.setdefault(
                            (cls_name, stmt.name), (info, stmt)
                        )
            for name, kind in info.constants.items():
                self.constants.setdefault(name, kind)
        # Tracked-class fixpoint over leaf base names across all modules.
        bases: dict[str, list[str]] = {}
        for info in modules:
            for name, base_names in info.class_bases.items():
                bases.setdefault(name, []).extend(base_names)
        changed = True
        while changed:
            changed = False
            for name, base_names in bases.items():
                if name not in self.tracked_classes and any(
                    b in self.tracked_classes for b in base_names
                ):
                    self.tracked_classes.add(name)
                    changed = True
        #: Fields monitored program-wide: filled by the admissibility pass,
        #: consumed by the barrier pass.
        self.monitored_fields: set[str] = set()
        #: Class names defined anywhere in the program.
        self.class_names: set[str] = set(bases)
        #: Helper-analysis worklist (seeded by the check pass).
        self._helper_queue: list[str] = []
        self._helper_seen: set[str] = set()

    def constant_kind(self, info: ModuleInfo, name: str) -> str | None:
        """Classification of binding ``name`` as seen from module ``info``:
        its own constant first, then the merged program table (the name may
        be imported from a sibling linted module)."""
        kind = info.constants.get(name)
        if kind is None and name in info.imports:
            kind = self.constants.get(info.imports[name])
        if kind is None:
            kind = self.constants.get(name)
        if kind is not None and kind.startswith("ctor:"):
            ctor = kind.split(":", 1)[1]
            if ctor in self.tracked_classes:
                return "tracked"
            return "unknown"
        return kind


def _is_check_predicate(program: Program, info: ModuleInfo):
    def is_check(name: str) -> bool:
        canonical = info.imports.get(name, name)
        return name in program.check_names or canonical in program.check_names
    return is_check


_SPECIAL_CALLS = PURE_BUILTINS | {"len"}


def _analyze_module_checks(
    program: Program, info: ModuleInfo, report: LintReport
) -> None:
    """DIT007/DIT002/DIT004/DIT005 over the module's checks, plus the
    helper-reachability seeding for :func:`_analyze_helpers`."""
    is_check = _is_check_predicate(program, info)
    for name, fd in info.checks.items():
        analysis = CheckAnalysis(name=name)
        _check_signature(fd, analysis)
        run_admissibility(fd, analysis, is_check)
        for violation in analysis.violations:
            match = _VIOLATION_RE.match(violation)
            line = int(match.group(1)) if match else fd.lineno
            message = match.group(2) if match else violation
            report.add(Diagnostic(
                "DIT007", message, file=info.path, line=line, function=name,
            ))
        program.monitored_fields |= analysis.fields_read

        for called in sorted(analysis.called_names):
            canonical = info.imports.get(called, called)
            if called in _SPECIAL_CALLS or is_check(called):
                continue
            if (
                called in info.helpers
                or canonical in program.helper_defs
            ):
                _queue_helper(program, info, canonical if canonical in
                              program.helper_defs else called)
                continue
            if canonical in program.class_names or (
                called in info.classes
            ):
                report.add(Diagnostic(
                    "DIT002",
                    f"check {name!r} calls constructor {called!r}; "
                    f"allocation inside a check cannot be verified pure",
                    file=info.path, line=fd.lineno, function=name,
                ))
                continue
            report.add(Diagnostic(
                "DIT002",
                f"check {name!r} calls {called!r}, which is not defined in "
                f"the linted files and cannot be verified",
                file=info.path, line=fd.lineno, function=name,
            ))

        for method in sorted(analysis.methods_called):
            if method in program.pure_method_names:
                continue
            report.add(Diagnostic(
                "DIT005",
                f"check {name!r} calls method .{method}() on a receiver "
                f"whose purity cannot be verified; register it with "
                f"repro.register_pure_method",
                file=info.path, line=fd.lineno, function=name,
            ))

        for gname in sorted(analysis.globals_read):
            kind = program.constant_kind(info, gname)
            if kind == "mutable":
                report.add(Diagnostic(
                    "DIT004",
                    f"check {name!r} reads global {gname!r} bound to a "
                    f"mutable value; mutations would be invisible to the "
                    f"write barriers",
                    file=info.path, line=fd.lineno, function=name,
                ))


def _queue_helper(program: Program, info: ModuleInfo, name: str) -> None:
    if name not in program._helper_seen:
        program._helper_seen.add(name)
        program._helper_queue.append(name)


def _analyze_helpers(program: Program, report: LintReport) -> None:
    """Purity of every helper reachable from some check (DIT001/002/003/
    006), mirroring the live fixpoint of :mod:`repro.lint.interproc`."""
    queue = program._helper_queue
    while queue:
        name = queue.pop()
        resolved = program.helper_defs.get(name)
        if resolved is None:
            continue
        info, fd = resolved
        summary = analyze_helper_tree(fd)
        registered = (
            name in program.registered_pure
            or name in info.registered_pure
        )
        if not summary.pure:
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.impure[:3]
            )
            report.add(Diagnostic(
                "DIT006" if registered else "DIT001",
                (
                    f"helper {name!r} is registered as pure but has side "
                    f"effects ({reasons})"
                    if registered
                    else f"helper {name!r} is reachable from a check and "
                         f"has side effects ({reasons})"
                ),
                file=info.path, line=fd.lineno, function=name,
            ))
        if summary.deep_reads:
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.deep_reads[:3]
            )
            report.add(Diagnostic(
                "DIT003",
                f"helper {name!r} reads heap locations the engine cannot "
                f"attribute to the calling node ({reasons})",
                file=info.path, line=fd.lineno, function=name,
            ))
        if summary.unverified and not registered:
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.unverified[:3]
            )
            report.add(Diagnostic(
                "DIT002",
                f"helper {name!r} cannot be statically verified "
                f"({reasons}); register it with repro.register_pure_helper "
                f"to assert purity",
                file=info.path, line=fd.lineno, function=name,
            ))
        program.monitored_fields |= summary.fields_read

        for called in sorted(summary.calls):
            canonical = info.imports.get(called, called)
            if called in program.check_names or (
                canonical in program.check_names
            ):
                report.add(Diagnostic(
                    "DIT003",
                    f"helper {name!r} calls @check {called!r}; check calls "
                    f"from inside helpers bypass memoization and read "
                    f"attribution — make the helper a @check",
                    file=info.path, line=fd.lineno, function=name,
                ))
                continue
            target = (
                canonical if canonical in program.helper_defs else called
            )
            if target in program.helper_defs:
                _queue_helper(program, info, target)
            elif not registered:
                report.add(Diagnostic(
                    "DIT002",
                    f"helper {name!r} calls {called!r}, which cannot be "
                    f"resolved or verified",
                    file=info.path, line=fd.lineno, function=name,
                ))

        for gname in sorted(summary.globals_read):
            if program.constant_kind(info, gname) == "mutable":
                report.add(Diagnostic(
                    "DIT004",
                    f"helper {name!r} reads global {gname!r} bound to a "
                    f"mutable value; mutations would be invisible to the "
                    f"write barriers",
                    file=info.path, line=fd.lineno, function=name,
                ))


def _analyze_registered_methods(program: Program, report: LintReport) -> None:
    """DIT006/DIT008 over ``register_pure_method`` registrations on tracked
    classes — the static mirror of the live plan's method-summary pass: a
    registered method whose reads the runtime cannot attribute to the
    calling node is a soundness hole (mutations it depends on never dirty
    the graph)."""
    for cls_name, method in sorted(program.pure_method_pairs):
        if cls_name not in program.tracked_classes:
            continue
        resolved = program.method_defs.get((cls_name, method))
        if resolved is None:
            for info in program.modules:
                if (cls_name, method) in info.pure_method_pairs:
                    report.add(Diagnostic(
                        "DIT008",
                        f"{cls_name}.{method} is registered as a pure "
                        f"method on a tracked class but its definition "
                        f"cannot be found; its heap reads cannot be "
                        f"attributed to the calling node",
                        file=info.path, line=0,
                        function=f"{cls_name}.{method}",
                    ))
                    break
            continue
        info, fd = resolved
        summary = analyze_helper_tree(fd)
        if not summary.pure:
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.impure[:3]
            )
            report.add(Diagnostic(
                "DIT006",
                f"{cls_name}.{method} is registered as a pure method but "
                f"has side effects ({reasons})",
                file=info.path, line=fd.lineno,
                function=f"{cls_name}.{method}",
            ))
            continue
        program.monitored_fields |= summary.fields_read
        if summary.deep_reads:
            reasons = "; ".join(
                f"line {ln}: {msg}" for ln, msg in summary.deep_reads[:3]
            )
            report.add(Diagnostic(
                "DIT008",
                f"{cls_name}.{method} reads heap locations the engine "
                f"cannot attribute to the calling node ({reasons})",
                file=info.path, line=fd.lineno,
                function=f"{cls_name}.{method}",
            ))


def _apply_noqa(
    report: LintReport, modules: dict[str, ModuleInfo]
) -> LintReport:
    kept = LintReport()
    kept.files_linted = report.files_linted
    for diag in report.diagnostics:
        info = modules.get(diag.file or "")
        if info is not None and 0 < diag.line <= len(info.source_lines):
            match = _NOQA_RE.search(info.source_lines[diag.line - 1])
            if match:
                codes = match.group("codes")
                if codes is None:
                    continue  # bare "# noqa" silences everything
                silenced = {c.strip().upper() for c in codes.split(",")}
                if diag.code in silenced:
                    continue
        kept.add(diag)
    return kept


def discover_files(paths: list[str]) -> tuple[list[str], list[Diagnostic]]:
    """Expand files/directories into a sorted ``.py`` file list."""
    files: list[str] = []
    problems: list[Diagnostic] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in {"__pycache__", ".git"}
                )
                files.extend(
                    os.path.join(root, n)
                    for n in sorted(names)
                    if n.endswith(".py")
                )
        elif os.path.isfile(path):
            files.append(path)
        else:
            problems.append(Diagnostic(
                "DIT007", f"no such file or directory: {path}", file=path,
            ))
    return files, problems


def lint_paths(paths: list[str]) -> LintReport:
    """Lint files/directories; the whole set is analyzed as one program so
    cross-file imports of checks, helpers, and tracked classes resolve."""
    files, problems = discover_files(paths)
    report = LintReport(problems)
    modules: dict[str, ModuleInfo] = {}
    for path in files:
        info, diagnostics = parse_module(path)
        report.extend(diagnostics)
        if info is not None:
            modules[path] = info
    report.files_linted = len(files)

    program = Program(list(modules.values()))
    for info in modules.values():
        _analyze_module_checks(program, info, report)
    _analyze_helpers(program, report)
    _analyze_registered_methods(program, report)
    for info in modules.values():
        report.extend(scan_module(
            info.tree,
            info.path,
            tracked_classes=program.tracked_classes,
            monitored_fields=program.monitored_fields,
        ))
    return _apply_noqa(report, modules)
