"""Source-to-source instrumentation of check functions (paper Figure 3).

The original DITTO rewrites Java bytecode with Javassist; this reproduction
rewrites the check function's AST and recompiles it.  The transformation
diverts every operation the incrementalizer cares about through the engine.
:func:`instrumented_source` renders the rewrite in the paper's Figure 3
shape, with each diverted operation spelled as a call on ``__ditto_rt__``:

====================================  =========================================
original check code                   instrumented code
====================================  =========================================
``e.next``            (field read)    ``__ditto_rt__.get_attr(e, 'next')``
``buckets[i]``        (element read)  ``__ditto_rt__.get_item(buckets, i)``
``len(buckets)``      (length read)   ``__ditto_rt__.get_len(buckets)``
``is_ordered(e.next)`` (check call)   ``__ditto_rt__.call(<uid>, ...)``
``key.hash_code()``   (method call)   ``__ditto_rt__.method(key, 'hash_code', ...)``
``helper(x)``         (other call)    ``__ditto_rt__.helper(helper, x)``
====================================  =========================================

The code that runs is the same rewrite with each operation spelled as one
of the engine's pre-bound closures instead (``__ditto_rt__.get_attr`` →
``__dget__``, ``get_item`` → ``__ditem__``, ``get_len`` → ``__dlen__``,
``call(<uid>, ...)`` → ``__dcall_<uid>__(...)``, ``helper`` →
``__dhelper__``, ``method`` → ``__dmethod__``; see
:mod:`repro.instrument.specialize`).  The reads record the read location as
an implicit argument of the executing node; the check call is the
memoization entry point (``getMemoEntry`` + recursion in Figure 3); helper
and method calls enforce purity of non-check calls at runtime.  Calls to
pure builtins (``abs``, ``min`` …) are left untouched.  The paper's
try/catch for optimistic mispredictions lives in the engine's ``exec``
wrapper rather than in the rewritten body — same semantics, one catch site.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Any, Callable

from ..core.errors import InstrumentationError
from .analysis import PURE_BUILTINS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import CheckFunction

_RT = "__ditto_rt__"

#: Callables registered as pure helpers usable inside checks.
_PURE_HELPERS: set[Any] = set()
#: (type, method name) pairs registered as pure methods.
_PURE_METHODS: set[tuple[type, str]] = set()
#: Receiver types whose methods are always pure (immutable values).
IMMUTABLE_RECEIVERS = (str, int, float, bool, bytes, tuple, frozenset, complex)


def register_pure_helper(func: Callable) -> Callable:
    """Mark ``func`` (a side-effect-free, terminating function) as callable
    from inside checks.  Usable as a decorator."""
    _PURE_HELPERS.add(func)
    return func


def register_pure_method(cls: type, method_name: str) -> None:
    """Allow checks to invoke ``cls.method_name`` as a pure method."""
    _PURE_METHODS.add((cls, method_name))


def is_pure_helper(func: Any) -> bool:
    if func in _PURE_HELPERS:
        return True
    name = getattr(func, "__name__", None)
    import builtins

    return name in PURE_BUILTINS and getattr(builtins, name, None) is func


def is_pure_method(receiver: Any, method_name: str) -> bool:
    if isinstance(receiver, IMMUTABLE_RECEIVERS):
        return True
    for cls in type(receiver).__mro__:
        if (cls, method_name) in _PURE_METHODS:
            return True
    return False


class _InstrumentTransformer(ast.NodeTransformer):
    """Rewrites one check function body.

    Every diverted operation goes through :meth:`_divert` /
    :meth:`_divert_call`, which spell it the Figure 3 way; the engine's
    compiled form (:mod:`repro.instrument.specialize`) subclasses this and
    changes only that spelling."""

    def __init__(self, func: "CheckFunction", uid_of_callee: dict[str, int]):
        self.func = func
        self.uid_of_callee = uid_of_callee

    def rewrite(self) -> ast.FunctionDef:
        """Rewrite a private copy of the check's definition (so several
        engines can compile one check)."""
        tree = ast.parse(ast.unparse(self.func.tree())).body[0]
        assert isinstance(tree, ast.FunctionDef)
        tree.body = [self.visit(stmt) for stmt in tree.body]
        ast.fix_missing_locations(tree)
        return tree

    def _divert(self, op: str, args: list[ast.expr]) -> ast.Call:
        """Spell diverted operation ``op`` as ``__ditto_rt__.<op>(args)``."""
        return ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=_RT, ctx=ast.Load()),
                attr=op,
                ctx=ast.Load(),
            ),
            args=args,
            keywords=[],
        )

    def _divert_call(self, uid: int, args: list[ast.expr]) -> ast.Call:
        """Spell a memoized call of the check with ``uid``."""
        return self._divert("call", [ast.Constant(uid)] + args)

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        if not isinstance(node.ctx, ast.Load):
            raise InstrumentationError(
                f"{self.func.name}: attribute store survived static checks"
            )
        value = self.visit(node.value)
        return ast.copy_location(
            self._divert("get_attr", [value, ast.Constant(node.attr)]), node
        )

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        if not isinstance(node.ctx, ast.Load):
            raise InstrumentationError(
                f"{self.func.name}: subscript store survived static checks"
            )
        value = self.visit(node.value)
        index = self.visit(node.slice)
        return ast.copy_location(
            self._divert("get_item", [value, index]), node
        )

    def visit_Call(self, node: ast.Call) -> ast.AST:
        args = [self.visit(a) for a in node.args]
        func_node = node.func
        if isinstance(func_node, ast.Name):
            name = func_node.id
            if name in self.uid_of_callee:
                return ast.copy_location(
                    self._divert_call(self.uid_of_callee[name], args), node
                )
            if name == "len" and len(args) == 1:
                return ast.copy_location(self._divert("get_len", args), node)
            if name in PURE_BUILTINS or name == "range":
                new = ast.Call(func=func_node, args=args, keywords=[])
                return ast.copy_location(new, node)
            return ast.copy_location(
                self._divert("helper", [func_node] + args), node
            )
        if isinstance(func_node, ast.Attribute):
            receiver = self.visit(func_node.value)
            return ast.copy_location(
                self._divert(
                    "method", [receiver, ast.Constant(func_node.attr)] + args
                ),
                node,
            )
        raise InstrumentationError(
            f"{self.func.name}: unsupported call target at line "
            f"{node.lineno}"
        )


def instrumented_source(
    func: "CheckFunction", uid_of_callee: dict[str, int]
) -> str:
    """Return the instrumented source text (for documentation/debugging;
    the Figure 3 view of a check)."""
    return ast.unparse(_InstrumentTransformer(func, uid_of_callee).rewrite())
