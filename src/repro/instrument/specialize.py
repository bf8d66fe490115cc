"""Compiled checks: per-check closures for the hot path.

Every engine compiles each function in its check closure once, against a
set of *pre-bound closures* built for that engine.  The rewrite is Figure
3's (:mod:`repro.instrument.transform`); only the spelling of a diverted
operation differs:

================================  =====================================
check code                        compiled code
================================  =====================================
``e.next``          (field read)  ``__dget__(e, 'next')``
``b[i]``          (element read)  ``__ditem__(b, i)``
``len(b)``         (length read)  ``__dlen__(b)``
``f(...)``          (check call)  ``__dcall_<uid>__(...)``
``h(x)``            (other call)  ``__dhelper__(h, x)``
``k.hash()``       (method call)  ``__dmethod__(k, 'hash')``
================================  =====================================

Each closure pre-binds the engine state its path touches (the node stack,
the memo-table dicts, the stats record, the order list, the tracking
domain) in closure cells and *inlines* the full per-read sequence — step
accounting, interned-:class:`~repro.core.locations.Location` lookup,
implicit-argument recording with reverse-map and reference-count
maintenance, and the adoption fast test — into a single Python frame.
Those per-operation constant factors are what §5.1.1's crossover size
measures: incremental checking only wins once the structure outgrows them.
The per-call closure ``__dcall_<uid>__`` likewise inlines the memo-key
construction (the plain ``(uid, parts)`` tuple; no
:class:`~repro.core.argkeys.ArgsKey` is built, and the parts of exact
atoms and tracked containers are spelled without a ``_freeze`` frame),
the memo probe, node
creation with the node linked last in the order list as its own record,
and call-edge recording, with the §4 leaf-call fast path emitted
only for callees whose signature makes a leaf call statically possible
(a zero-parameter callee can never receive the required ``None``
reference argument).

What stays generic — deliberately:

* ``engine._exec`` / ``engine._naive_value`` are called through pre-bound
  method references for dirty re-executions and naive replay, so
  misprediction handling, profiler/recorder hooks, and pruning live in one
  place.  A fresh node also detours through ``_exec`` whenever an observer
  (profiler, provenance recorder, trace sink) is armed, so the observer's
  hooks fire for it.
* ``engine._compiled[uid]`` is looked up *dynamically* on the leaf and
  fresh-node paths so the fault injector's compiled-entry wrapping
  (:mod:`repro.resilience.faults`) still intercepts them.
* Rebindable engine state — ``tracing``/``_sink``, ``helper_summaries``,
  ``method_summaries``, ``verified_helpers`` (rebound by
  ``engine.lint()``), the step hook/limit — is read through the engine at
  call time.
* The step limit and step hook live in :meth:`DittoEngine._step_tail`,
  entered only when one of them is armed.
"""

from __future__ import annotations

import ast
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from ..core.argkeys import _ATOM_TYPES, _ID_TAG, _freeze, is_primitive
from ..core.errors import (
    OptimisticMispredictionError,
    ResultTypeError,
    StepLimitExceeded,
    TrackingError,
)
from ..core.locations import FieldLocation, IndexLocation, LengthLocation
from ..core.node import ComputationNode
from ..core.order_maintenance import _APPEND_GAP, _UNIVERSE
from ..core.tracked import TrackedArray, TrackedObject, adopt_container
from .transform import (
    IMMUTABLE_RECEIVERS,
    _InstrumentTransformer,
    is_pure_helper,
    is_pure_method,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from .registry import CheckFunction

#: Scalar types never treated as heap references by the leaf-call test.
_SCALARS = (int, float, bool, str, bytes, complex)

#: Figure 3 operation name -> the closure that performs it.
_CLOSURE_NAMES = {
    "get_attr": "__dget__",
    "get_item": "__ditem__",
    "get_len": "__dlen__",
    "helper": "__dhelper__",
    "method": "__dmethod__",
}


def _call(name: str, args: list[ast.expr]) -> ast.Call:
    return ast.Call(func=ast.Name(id=name, ctx=ast.Load()), args=args,
                    keywords=[])


class _SpecializeTransformer(_InstrumentTransformer):
    """The Figure 3 rewrite, spelled against the pre-bound closure names."""

    def _divert(self, op: str, args: list[ast.expr]) -> ast.Call:
        return _call(_CLOSURE_NAMES[op], args)

    def _divert_call(self, uid: int, args: list[ast.expr]) -> ast.Call:
        return _call(f"__dcall_{uid}__", args)


def _make_reader_closures(engine: "DittoEngine") -> dict[str, Callable]:
    """Build the shared read/helper/method closures for ``engine``.

    Every name bound below is either construction-final engine state (safe
    to close over) or an in-place-mutated container (the stack list, the
    memo-table dicts) whose *object* is stable for the engine's lifetime.
    Rebindable state is read through ``engine`` at call time.
    """
    stack = engine._stack
    stats = engine.stats
    table = engine.table
    entries_reverse = table._reverse
    tracking = engine.tracking
    strict = engine.strict
    new_location = object.__new__

    def __dget__(obj: Any, name: str) -> Any:
        # Step, interned-location lookup, and the record_implicit path
        # (adopt test, reverse map, location incref) in this one frame.
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if isinstance(obj, TrackedObject):
            stats.implicit_reads += 1
            node = stack[-1]
            header = obj._ditto
            try:
                # Steady-state fast path: one plain subscript, no method
                # binding.
                location = header.locations[name]
            except KeyError:
                # Inlined FieldLocation(obj, name) on first use: direct
                # slot stores, interned with setdefault as the constructor
                # does.
                location = new_location(FieldLocation)
                location.container = obj
                location.field = name
                location.refcount = 0
                location = header.locations.setdefault(name, location)
            if location not in node.implicits:
                # Adoption must precede any bookkeeping (see the soundness
                # note in MemoTable.record_implicit); the identity test is
                # the steady-state fast path.
                if header.state is not tracking:
                    adopt_container(obj, tracking)
                node.implicits.add(location)
                dependents = entries_reverse.get(location)
                if dependents is None:
                    entries_reverse[location] = {node}
                else:
                    dependents.add(node)
                # Location-attributed incref (as in record_implicit):
                # ``location`` is already the interned instance, so no
                # canonicalization, and the counters are slot stores on
                # the header, never attribute stores on ``obj``.
                location.refcount += 1
                header.locrefs += 1
                header.refcount += 1
            return getattr(obj, name)
        if obj is None or isinstance(obj, IMMUTABLE_RECEIVERS):
            return getattr(obj, name)
        if strict:
            raise TrackingError(
                f"check read attribute {name!r} of untracked mutable object "
                f"{type(obj).__name__}; derive it from TrackedObject"
            )
        return getattr(obj, name)

    def __ditem__(obj: Any, index: Any) -> Any:
        # Like __dget__: interned-location lookup and first-read recording
        # in this one frame.
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if isinstance(obj, TrackedArray):
            stats.implicit_reads += 1
            node = stack[-1]
            header = obj._ditto
            if isinstance(index, int) and index < 0:
                # A negative read depends on the length too (growing the
                # list retargets obj[-1] without writing the old tail).
                # Rare, so recorded through the table's generic path.
                table.record_implicit(node, obj._ditto_location("<len>"))
                index += len(obj)
                if index < 0:
                    # Out of range after normalization: natural IndexError,
                    # no phantom slot recorded.
                    return obj[index]
            try:
                location = header.locations[index]
            except KeyError:
                # Inlined IndexLocation(obj, index), like __dget__'s
                # FieldLocation path.
                location = new_location(IndexLocation)
                location.container = obj
                location.index = index
                location.refcount = 0
                location = header.locations.setdefault(index, location)
            if location not in node.implicits:
                if header.state is not tracking:
                    adopt_container(obj, tracking)
                node.implicits.add(location)
                dependents = entries_reverse.get(location)
                if dependents is None:
                    entries_reverse[location] = {node}
                else:
                    dependents.add(node)
                location.refcount += 1
                header.locrefs += 1
                header.refcount += 1
            return obj[index]
        if isinstance(obj, (str, bytes, tuple, frozenset, range)):
            return obj[index]
        if strict:
            raise TrackingError(
                f"check indexed into untracked mutable container "
                f"{type(obj).__name__}; use TrackedArray/TrackedList"
            )
        return obj[index]

    def __dlen__(obj: Any) -> int:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if isinstance(obj, TrackedArray):
            stats.implicit_reads += 1
            node = stack[-1]
            header = obj._ditto
            try:
                location = header.locations["<len>"]
            except KeyError:
                location = new_location(LengthLocation)
                location.container = obj
                location.refcount = 0
                location = header.locations.setdefault("<len>", location)
            if location not in node.implicits:
                if header.state is not tracking:
                    adopt_container(obj, tracking)
                node.implicits.add(location)
                dependents = entries_reverse.get(location)
                if dependents is None:
                    entries_reverse[location] = {node}
                else:
                    dependents.add(node)
                location.refcount += 1
                header.locrefs += 1
                header.refcount += 1
            return len(obj)
        if isinstance(obj, (str, bytes, tuple, frozenset, range)):
            return len(obj)
        if strict:
            raise TrackingError(
                f"check took len() of untracked mutable container "
                f"{type(obj).__name__}; use TrackedArray/TrackedList"
            )
        return len(obj)

    def attribute_reads(summary: Any, args: tuple) -> None:
        # Charge a lint-summarized helper's depth-1 heap reads to the
        # calling node.  The static analyzer (repro.lint.purity) proved the
        # helper reads at most ``param.field`` / ``len(param)`` — shallower
        # than the check itself may — so recording those locations here
        # keeps Definition 1's implicit-argument set sound even though the
        # helper body runs uninstrumented.
        node = stack[-1]
        nargs = len(args)
        for index, fields in summary.arg_fields_read.items():
            if index < nargs and isinstance(args[index], TrackedObject):
                obj = args[index]
                for fld in fields:
                    stats.implicit_reads += 1
                    table.record_implicit(node, obj._ditto_location(fld))
        for index in summary.arg_len_read:
            if index < nargs and isinstance(args[index], TrackedArray):
                stats.implicit_reads += 1
                table.record_implicit(
                    node, args[index]._ditto_location("<len>")
                )

    def method_summary(receiver: Any, name: str) -> Any:
        # The registered pure method's read summary, resolved along the
        # receiver's MRO (mirrors ``is_pure_method`` resolution).
        summaries = engine.method_summaries
        if not summaries:
            return None
        for cls in type(receiver).__mro__:
            summary = summaries.get((cls, name))
            if summary is not None:
                return summary
        return None

    def __dhelper__(func: Any, *args: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        stats.helper_calls += 1
        if (
            strict
            and not is_pure_helper(func)
            and func not in engine.verified_helpers
        ):
            raise TrackingError(
                f"check called unregistered helper "
                f"{getattr(func, '__name__', func)!r}; register it with "
                f"repro.register_pure_helper if it is pure"
            )
        summary = engine.helper_summaries.get(func)
        if summary is not None:
            attribute_reads(summary, args)
        return func(*args)

    def __dmethod__(receiver: Any, name: str, *args: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        stats.helper_calls += 1
        if strict and not is_pure_method(receiver, name):
            raise TrackingError(
                f"check called method {name!r} on "
                f"{type(receiver).__name__}; register it with "
                f"repro.register_pure_method if it is pure"
            )
        summary = method_summary(receiver, name)
        if summary is not None:
            # The method body runs uninstrumented; charge its depth-1
            # receiver/argument reads to the calling node, as for helpers.
            attribute_reads(summary, (receiver,) + args)
        return getattr(receiver, name)(*args)

    return {
        "__dget__": __dget__,
        "__ditem__": __ditem__,
        "__dlen__": __dlen__,
        "__dhelper__": __dhelper__,
        "__dmethod__": __dmethod__,
    }


def _abort_fresh_exec(engine: "DittoEngine", node: ComputationNode,
                      exc: BaseException) -> bool:
    """Mirror of ``DittoEngine._exec``'s exception branch for a fresh node
    whose execution ``__dcall_<uid>__`` inlined: roll back the partially
    recorded call edges and decide whether the failure is an optimistic
    misprediction (True) or should propagate as-is (False).  Exceptional
    path only — frames here cost nothing in the steady state."""
    table = engine.table
    partial_calls = node.calls
    for child in partial_calls:
        table.remove_edge(node, child)
    node.calls = []
    for child in set(partial_calls):
        if (
            not child.callers
            and table.contains(child)
            and not child.in_progress
        ):
            engine._prune(child)
    if (
        engine.mode == "ditto"
        and engine.in_incremental_run
        and not engine._final_retry
    ):
        node.failed = True
        engine._failed.add(node)
        engine.stats.mispredictions += 1
        if engine.tracing:
            engine._sink.instant(
                "misprediction",
                perf_counter(),
                {"node": node.func.name, "error": repr(exc)},
            )
        return True
    return False


def _make_dcall(engine: "DittoEngine", func: "CheckFunction") -> Callable:
    """Per-callee memoized-call closure: memo-key construction, memo probe,
    node creation, edge recording, and the entire fresh-node execution in
    one frame, dispatching to the engine's ``_exec``/``_naive_value`` only
    for dirty re-executions (and whenever an observer — profiler, flight
    recorder, trace sink — needs the generic path's hooks)."""
    uid = func.uid
    func_name = func.name
    stack = engine._stack
    stats = engine.stats
    table = engine.table
    entries = table._entries
    contains = table.contains
    prune = engine._prune
    order_list = engine.order
    link_last = order_list.link_last
    order_tail = order_list._tail
    new_node = ComputationNode.__new__
    exec_node = engine._exec
    naive = engine.mode == "naive"
    naive_value = engine._naive_value
    compiled_map = engine._compiled
    freeze = _freeze
    atom_types = _ATOM_TYPES
    id_tag = _ID_TAG
    tracked_types = (TrackedObject, TrackedArray)
    # §4 leaf-call fast path: statically impossible for zero-parameter
    # callees (a leaf call needs at least one None reference argument), so
    # the test is emitted only when it can ever succeed.
    leaf_possible = engine.leaf_optimization and bool(func.params)

    def __dcall__(*args: Any) -> Any:
        engine.steps += 1
        if engine._step_active:
            engine._step_tail()
        if leaf_possible:
            has_ref = False
            for a in args:
                if a is None:
                    has_ref = True
                elif not isinstance(a, _SCALARS):
                    break
            else:
                if has_ref:
                    # Run outright, attributing implicit reads to the
                    # caller; no memo entry.  The compiled entry is looked
                    # up dynamically so fault-injection wrapping applies.
                    stats.leaf_execs += 1
                    if engine.tracing:
                        engine._sink.instant(
                            "leaf_exec", perf_counter(), {"func": func_name}
                        )
                    return compiled_map[uid](*args)
        caller = stack[-1]
        # The memo key is the plain tuple ComputationNode.__init__ builds
        # from ArgsKey(args); tuple hashing and equality run in C.  Exact
        # atoms and tracked containers are spelled inline as the very
        # tokens _freeze produces for them; every other kind of argument
        # goes through _freeze.
        parts = []
        for a in args:
            t = a.__class__
            if t in atom_types:
                parts.append((t, a))
            elif isinstance(a, tracked_types):
                parts.append((id_tag, id(a)))
            else:
                parts.append(freeze(a))
        key = (uid, tuple(parts))
        node = entries.get(key)
        if node is None:
            # Fresh invocation: create the node and execute it inline
            # (``_exec`` minus everything a fresh node cannot need —
            # implicit clearing, old-edge pruning, value propagation).
            # The node itself is built by direct slot stores (same field
            # values as ComputationNode.__init__, with the caller edge and
            # depth folded into the initial stores).
            node = new_node(ComputationNode)
            node.func = func
            node.key = key
            node.args = args
            node.implicits = set()
            node.calls = []
            node.callers = caller
            node.return_val = None
            node.has_result = False
            node.dirty = False
            node.failed = False
            node.in_progress = False
            node.depth = caller.depth + 1
            node.last_exec_tick = -1
            node.value_tick = -1
            entries[key] = node
            stats.nodes_created += 1
            # Inlined OrderList.link_last: the node is its own order
            # record.  Append-stride fast path only (the near-universe-end
            # slow path falls back to the method).
            last = order_tail.prev
            label = last.label + _APPEND_GAP
            if label < _UNIVERSE:
                node.label = label
                node.owner = order_list
                node.prev = last
                node.next = order_tail
                last.next = node
                order_tail.prev = node
                order_list._size += 1
            else:
                link_last(node)
            caller.calls.append(node)
            if (
                engine.profiler is not None
                or engine.recorder is not None
                or engine.tracing
            ):
                return exec_node(node)
            node.in_progress = True
            stack.append(node)
            try:
                result = compiled_map[uid](*args)
            except StepLimitExceeded:
                raise
            except Exception as exc:
                if _abort_fresh_exec(engine, node, exc):
                    raise OptimisticMispredictionError(node, exc) from exc
                raise
            finally:
                node.in_progress = False
                stack.pop()
            if result.__class__ not in atom_types and not is_primitive(
                result
            ):
                raise ResultTypeError(
                    f"check {func_name!r} returned "
                    f"{type(result).__name__}; checks must return "
                    f"immutable primitive values"
                )
            engine._tick = tick = engine._tick + 1
            node.last_exec_tick = tick
            node.return_val = result
            node.has_result = True
            stats.execs += 1
            if not engine.in_incremental_run:
                stats.initial_execs += 1
            # A pruning cascade may have removed the caller edge while the
            # node was executing; complete the deferred prune (see _exec).
            if (
                node is not engine._root
                and not node.callers
                and contains(node)
            ):
                prune(node)
            return result
        # Inlined MemoTable.add_edge.
        caller.calls.append(node)
        callers = node.callers
        if callers is None:
            node.callers = caller
        elif type(callers) is dict:
            callers[caller] = callers.get(caller, 0) + 1
        elif callers is caller:
            node.callers = {caller: 2}
        else:
            node.callers = {callers: 1, caller: 1}
        depth = caller.depth + 1
        if node.depth == 0 or depth < node.depth:
            node.depth = depth
        if node.dirty or not node.has_result:
            return exec_node(node)
        if naive:
            return naive_value(node)
        # Optimistic memoization: reuse without validating callee returns.
        stats.reuses += 1
        if engine.tracing:
            engine._sink.instant(
                "reuse", perf_counter(), {"node": func_name}
            )
        return node.return_val

    __dcall__.__name__ = f"__dcall_{func.name}__"
    return __dcall__


def specialize(
    func: "CheckFunction",
    uid_of_callee: dict[str, int],
    closures: dict[str, Callable],
) -> Callable:
    """Compile one check function against the engine's pre-bound closures
    (the ``closures`` mapping must provide the reader names and every
    ``__dcall_<uid>__`` the body references)."""
    tree = _SpecializeTransformer(func, uid_of_callee).rewrite()
    tree.name = f"__ditto_{func.name}__"
    module = ast.Module(body=[tree], type_ignores=[])
    code = compile(
        module, filename=f"<ditto-specialized:{func.qualname}>", mode="exec"
    )
    namespace: dict[str, Any] = dict(func.globals)
    namespace.update(func.closure_vars())
    namespace.update(closures)
    exec(code, namespace)
    compiled = namespace[tree.name]
    compiled.__ditto_source__ = ast.unparse(tree)
    compiled.__ditto_specialized__ = True
    return compiled


def specialize_closure(engine: "DittoEngine") -> dict[int, Callable]:
    """Compile every function in ``engine``'s check closure; returns
    ``uid -> compiled``."""
    readers = _make_reader_closures(engine)
    dcalls = {
        uid: _make_dcall(engine, fn)
        for uid, fn in engine.functions.items()
    }
    compiled: dict[int, Callable] = {}
    for uid, fn in engine.functions.items():
        uid_map = {
            name: callee.uid
            for name, callee in fn.resolve_callees().items()
        }
        closures: dict[str, Callable] = dict(readers)
        for callee_uid in set(uid_map.values()):
            closures[f"__dcall_{callee_uid}__"] = dcalls[callee_uid]
        compiled[uid] = specialize(fn, uid_map, closures)
    return compiled
