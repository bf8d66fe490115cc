"""Summary-based purity analysis of non-check helpers.

Checks call out to helper functions (``__dhelper__``) that run
*uninstrumented*: their heap reads are not recorded as implicit arguments
and their writes are not policed.  The runtime trusts a whitelist
(``register_pure_helper``); this module is the static complement — it
verifies what the whitelist asserts, and classifies exactly which helper
shapes the engine can keep sound:

* **Side effects** (``impure``): any store reaching memory the helper does
  not own — attribute/subscript stores on parameters or globals,
  ``global``/``nonlocal``, mutating method calls on non-owned receivers,
  calls to effectful builtins.  Locally-allocated mutable values (an
  accumulator list built and reduced inside the helper) may be mutated
  freely; the *ownership* analysis tracks names bound to fresh
  allocations, conservatively demoting a name the moment it might alias
  anything else.
* **Unattributable heap reads** (``deep_reads``): reads the engine cannot
  convert into implicit arguments at the call site.  Depth-1 field reads
  on a parameter (``param.field``) and ``len(param)`` are *coverable* —
  the summary records ``(param index, field)`` pairs and the runtime
  attributes them to the calling node — but nested chains
  (``param.next.value``), subscripts, and iteration over parameters are
  not, and make the helper inadmissible (convert it to a ``@check``).
* **Unverifiable constructs** (``unverified``): dynamic features the
  analysis cannot prove either way (unknown call targets, method calls on
  parameters, ``vars``/``globals``).  These degrade the helper from
  *verified* to *trusted-if-registered* and surface as warnings.

Summaries compose through a worklist fixpoint in
:mod:`repro.lint.interproc`: a helper is only as pure as every call it
can reach.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..instrument.analysis import PURE_BUILTINS

#: Builtins whose very invocation is a side effect (or an escape hatch the
#: analysis cannot see through).
IMPURE_BUILTINS = frozenset(
    {
        "print",
        "input",
        "open",
        "exec",
        "eval",
        "compile",
        "setattr",
        "delattr",
        "__import__",
    }
)

#: Method names that mutate their receiver on every built-in container
#: (and on the tracked containers).  A call on a non-owned receiver is a
#: definite side effect.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "popitem",
        "fill",
        "write",
        "writelines",
    }
)

#: Call targets that produce a freshly-allocated value the caller owns.
_FRESH_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray", "sorted"})


@dataclass
class HelperSummary:
    """Composable purity/read summary of one helper function."""

    name: str
    params: list[str] = field(default_factory=list)
    #: Definite side effects: ``(line, reason)`` pairs.
    impure: list[tuple[int, str]] = field(default_factory=list)
    #: Heap reads the engine cannot attribute: ``(line, reason)`` pairs.
    deep_reads: list[tuple[int, str]] = field(default_factory=list)
    #: Constructs the analysis cannot verify: ``(line, reason)`` pairs.
    unverified: list[tuple[int, str]] = field(default_factory=list)
    #: Coverable depth-1 reads: parameter index -> field names read.
    arg_fields_read: dict[int, set[str]] = field(default_factory=dict)
    #: Parameter indices whose length is read via ``len(param)``.
    arg_len_read: set[int] = field(default_factory=set)
    #: All attribute names read (monitored-field union contribution).
    fields_read: set[str] = field(default_factory=set)
    reads_indices: bool = False
    reads_len: bool = False
    #: Plain-name call targets (non-builtin) for the interprocedural
    #: fixpoint.
    calls: set[str] = field(default_factory=set)
    #: Global names read (validated against mutable bindings).
    globals_read: set[str] = field(default_factory=set)

    @property
    def pure(self) -> bool:
        """No definite side effects (own body only; see the fixpoint)."""
        return not self.impure

    @property
    def verified(self) -> bool:
        """Provably admissible as a helper: side-effect free, every heap
        read coverable by call-site attribution, nothing unverifiable.
        (Own body only — the interprocedural fixpoint degrades this when
        a callee fails.)"""
        return not (self.impure or self.deep_reads or self.unverified)


def _chain_root(node: ast.AST) -> tuple[ast.AST, int]:
    """Peel attribute/subscript layers; return ``(root, depth)``."""
    depth = 0
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        depth += 1
    return node, depth


class _HelperVisitor(ast.NodeVisitor):
    def __init__(self, tree: ast.FunctionDef, summary: HelperSummary):
        self.tree = tree
        self.summary = summary
        args = tree.args
        self.params = [
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        ]
        if args.vararg:
            self.params.append(args.vararg.arg)
        if args.kwarg:
            self.params.append(args.kwarg.arg)
        summary.params = list(self.params)
        self.param_index = {name: i for i, name in enumerate(self.params)}
        #: Names currently known to be bound to a fresh local allocation.
        self.owned: set[str] = set()
        #: Every name assigned somewhere in the body (locals).
        self.local_names = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        self.local_names.update(self.params)

    # Classification helpers. ------------------------------------------------

    def _impure(self, node: ast.AST, reason: str) -> None:
        self.summary.impure.append((getattr(node, "lineno", 0), reason))

    def _deep(self, node: ast.AST, reason: str) -> None:
        self.summary.deep_reads.append((getattr(node, "lineno", 0), reason))

    def _unverified(self, node: ast.AST, reason: str) -> None:
        self.summary.unverified.append((getattr(node, "lineno", 0), reason))

    def _is_fresh(self, node: ast.AST) -> bool:
        """Does evaluating ``node`` yield a value the helper owns?"""
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FRESH_CONSTRUCTORS
        ):
            return True
        if isinstance(node, ast.Name) and node.id in self.owned:
            return True
        return False

    # Statements. -------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.tree:
            for stmt in node.body:
                self.visit(stmt)
        else:
            self._unverified(node, "nested function definition")

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._unverified(node, "lambda expression")

    def visit_Global(self, node: ast.Global) -> None:
        self._impure(node, f"global declaration of {', '.join(node.names)}")

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._impure(node, f"nonlocal declaration of {', '.join(node.names)}")

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        fresh = self._is_fresh(node.value)
        for target in node.targets:
            self._store(target, fresh)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._store(node.target, self._is_fresh(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            # x += ... keeps (or breaks) ownership exactly like x = x + ...
            if node.target.id not in self.owned:
                pass  # plain local rebinding — pure
            return
        self._store(node.target, fresh=False)

    def _store(self, target: ast.AST, fresh: bool) -> None:
        if isinstance(target, ast.Name):
            if fresh:
                self.owned.add(target.id)
            else:
                self.owned.discard(target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, fresh=False)
            return
        root, _ = _chain_root(target)
        if isinstance(root, ast.Name) and root.id in self.owned:
            return  # mutating a locally-owned allocation is fine
        kind = (
            "attribute" if isinstance(target, ast.Attribute) else "slot"
        )
        self._impure(
            target,
            f"store to {kind} of non-owned object "
            f"{ast.unparse(target) if hasattr(ast, 'unparse') else '<expr>'}",
        )

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.owned.discard(target.id)
                continue
            root, _ = _chain_root(target)
            if isinstance(root, ast.Name) and root.id in self.owned:
                continue
            self._impure(target, "deletion on a non-owned object")

    def visit_With(self, node: ast.With) -> None:
        self._unverified(
            node, "context manager entry/exit may have side effects"
        )
        self.generic_visit(node)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Yield(self, node: ast.Yield) -> None:
        self._impure(node, "generator helpers are stateful")

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._impure(node, "generator helpers are stateful")

    def visit_Await(self, node: ast.Await) -> None:
        self._impure(node, "await in a helper")

    # Reads. ------------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            # Stores/deletes are routed through _store/visit_Delete by the
            # statement visitors; reaching here means an unusual context.
            self.generic_visit(node)
            return
        self.summary.fields_read.add(node.attr)
        root, depth = _chain_root(node)
        if isinstance(root, ast.Name):
            if root.id in self.param_index:
                if depth == 1 and isinstance(node.value, ast.Name):
                    # Coverable: the call site attributes param.field.
                    index = self.param_index[root.id]
                    self.summary.arg_fields_read.setdefault(
                        index, set()
                    ).add(node.attr)
                else:
                    self._deep(
                        node,
                        f"reads nested field chain through parameter "
                        f"{root.id!r}; only depth-1 reads (param.field) "
                        f"can be attributed at the call site — make this "
                        f"helper a @check",
                    )
            elif root.id in self.owned:
                pass
            elif root.id not in self.local_names:
                # Attribute of a global (module constant / class attr).
                self.summary.globals_read.add(root.id)
                self._unverified(
                    node,
                    f"reads attribute {node.attr!r} of global {root.id!r}",
                )
            else:
                self._deep(
                    node,
                    f"reads field {node.attr!r} of local {root.id!r} whose "
                    f"provenance is unknown",
                )
        self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            root, _ = _chain_root(node)
            owned = isinstance(root, ast.Name) and root.id in self.owned
            literal = isinstance(node.value, (ast.Constant, ast.Tuple))
            if not owned and not literal:
                self.summary.reads_indices = True
                self._deep(
                    node,
                    "subscript read on a non-owned value cannot be "
                    "attributed at the call site — make this helper a "
                    "@check",
                )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        iter_node = node.iter
        iter_ok = (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in {"range", "enumerate", "zip", "sorted",
                                      "reversed"}
            and not any(
                isinstance(a, ast.Name) and a.id in self.param_index
                for a in iter_node.args
            )
        ) or self._is_fresh(iter_node)
        if not iter_ok:
            self._unverified(
                node,
                "iterates over a value of unknown type; if it is a tracked "
                "container the element reads are invisible to the engine",
            )
        if isinstance(node.target, ast.Name):
            self.owned.discard(node.target.id)
        self.generic_visit(node)

    # Calls. ------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "len":
                self.summary.reads_len = True
                if (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in self.param_index
                ):
                    self.summary.arg_len_read.add(
                        self.param_index[node.args[0].id]
                    )
                elif node.args and not self._is_fresh(node.args[0]):
                    self._deep(
                        node,
                        "len() of a non-parameter value cannot be "
                        "attributed at the call site",
                    )
            elif name in IMPURE_BUILTINS:
                self._impure(node, f"calls effectful builtin {name}()")
            elif name in ("globals", "locals", "vars"):
                self._unverified(node, f"calls introspection builtin {name}()")
            elif name in PURE_BUILTINS or name in _FRESH_CONSTRUCTORS:
                pass
            elif name in self.local_names:
                self._unverified(
                    node, f"calls through local binding {name!r}"
                )
            elif name in _BUILTIN_NAMES:
                self._unverified(
                    node, f"calls builtin {name}() outside the pure whitelist"
                )
            else:
                self.summary.calls.add(name)
                self.summary.globals_read.add(name)
        elif isinstance(func, ast.Attribute):
            root, _ = _chain_root(func.value)
            owned_receiver = (
                isinstance(root, ast.Name) and root.id in self.owned
            ) or self._is_fresh(func.value)
            receiver_is_literal = isinstance(func.value, ast.Constant)
            if owned_receiver or receiver_is_literal:
                pass
            elif func.attr in MUTATOR_METHODS:
                self._impure(
                    node,
                    f"calls mutating method .{func.attr}() on a non-owned "
                    f"receiver",
                )
            else:
                self._unverified(
                    node,
                    f"calls method .{func.attr}() on a receiver of unknown "
                    f"type",
                )
            self.visit(func.value)
        else:
            self._unverified(node, "dynamic call target")
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if (
                node.id not in self.local_names
                and node.id not in _BUILTIN_NAMES
            ):
                self.summary.globals_read.add(node.id)


_BUILTIN_NAMES = frozenset(dir(__import__("builtins")))


def analyze_helper_tree(tree: ast.FunctionDef) -> HelperSummary:
    """Compute the :class:`HelperSummary` of one helper's AST."""
    summary = HelperSummary(name=tree.name)
    visitor = _HelperVisitor(tree, summary)
    visitor.visit(tree)
    return summary


def analyze_helper(func) -> HelperSummary | None:
    """Summary of a live helper function, or ``None`` when its source is
    unavailable (builtins, C extensions, REPL definitions)."""
    import inspect
    import textwrap

    try:
        source = textwrap.dedent(inspect.getsource(func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return analyze_helper_tree(node)
    return None
