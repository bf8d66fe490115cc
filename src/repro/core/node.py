"""Computation-graph nodes (the memo-table entries of paper §3.1).

A :class:`ComputationNode` is one row of the paper's table::

    f | explicit args | implicit args | calls | return val | dirty

plus the bookkeeping the full algorithm (Figure 7) needs.  The row is kept
lean, because the cyclic collector scans every GC-tracked object the graph
holds: a node is the node itself plus its ``implicits`` set and ``calls``
list (and a ``callers`` dict only once a second call edge arrives).

* ``key`` — the memo-table key, the plain tuple ``(uid, parts)`` where
  ``parts`` is the explicit arguments frozen by
  :func:`~repro.core.argkeys._freeze` (exactly ``ArgsKey._parts``); ``args``
  holds the explicit arguments themselves, keeping every identity-keyed
  argument alive while the row lives.
* ``callers`` — reverse edges with multiplicities (``get_callers`` in the
  pseudo-code), in one of three forms: ``None`` when the node has no
  callers, the sole caller node when there is exactly one edge, and a
  ``{caller: multiplicity}`` dict once a second edge arrives (a second
  caller, or the same caller calling again).  Every dict multiplicity is
  at least 1, an emptied dict reverts to ``None``, and the class defines
  neither ``__bool__`` nor ``__len__``, so the orphan test on the repair
  path is the O(1) ``not node.callers``.  Read it through
  :meth:`ComputationNode.caller_map`; write it only through
  ``MemoTable.add_edge`` / ``remove_edge`` and their inlined copies.
* ``depth`` — distance from the root, maintained as a minimum over caller
  depths; drives the breadth-first scheduling of dirty re-executions and
  the reverse-BFS ordering of return-value propagation.
* ``label`` / ``prev`` / ``next`` / ``owner`` — the node is its own record
  in the engine's order-maintenance list (Bender et al.), stamping nodes in
  execution order to break depth ties deterministically; ``owner`` is the
  list while the node is linked, else ``None``.
* ``in_progress`` — cycle detection for re-entrant invocations.
* ``failed`` — set when an incremental re-execution raised, presumably from
  a stale optimistically-reused value (§3.5); such nodes are retried after
  return-value propagation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from .argkeys import ArgsKey
from .locations import Location

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..instrument.registry import CheckFunction
    from .order_maintenance import OrderList


class ComputationNode:
    """One dynamic invocation ``f(*args)`` of a check function."""

    # Slot order is tuned for the hot loops, hottest first: the memo probe
    # and propagate loop test ``dirty``/``has_result`` and read
    # ``return_val``/``depth``/``callers``/``calls`` on every visit, while
    # ``func``/``key``/ticks and the order links are touched once per
    # (re)execution.  CPython lays slots out in declaration order, so the
    # early ones share the object head's cache lines.
    __slots__ = (
        "dirty",
        "has_result",
        "return_val",
        "depth",
        "callers",
        "calls",
        "implicits",
        "in_progress",
        "failed",
        "func",
        "key",
        "args",
        "last_exec_tick",
        "value_tick",
        "label",
        "prev",
        "next",
        "owner",
    )

    def __init__(self, func: "CheckFunction", key: ArgsKey):
        self.func = func
        self.key = (func.uid, key._parts)
        self.args = key.args
        #: Heap locations read by this invocation's own frame.
        self.implicits: set[Location] = set()
        #: Child invocations, in call order (may repeat).
        self.calls: list[ComputationNode] = []
        #: None, the sole caller, or caller -> edge count (always >= 1);
        #: see the module docstring.
        self.callers: Union[
            None, ComputationNode, dict[ComputationNode, int]
        ] = None
        self.return_val: Any = None
        self.has_result = False
        self.dirty = False
        self.failed = False
        self.in_progress = False
        self.depth = 0
        #: Engine tick of the most recent (successful) execution, and of the
        #: most recent execution that changed the return value.  Used during
        #: return-value propagation to skip callers that already re-executed
        #: after the change.
        self.last_exec_tick = -1
        self.value_tick = -1
        self.label = 0
        self.prev: Optional[Any] = None
        self.next: Optional[Any] = None
        self.owner: Optional["OrderList"] = None

    def caller_map(self) -> dict["ComputationNode", int]:
        """``{caller: multiplicity}`` over any of the three ``callers``
        forms.  The dict form is returned as is: read it, never write it."""
        callers = self.callers
        if callers is None:
            return {}
        if type(callers) is dict:
            return callers
        return {callers: 1}

    def caller_count(self) -> int:
        """Total incoming call edges, multiplicities summed.  Diagnostics
        only: it costs O(distinct callers), and shared nodes have
        thousands.  The repair path tests ``not node.callers`` instead."""
        return sum(self.caller_map().values())

    def sort_token(self) -> tuple[int, int]:
        """Key for BFS scheduling: primary = depth, tie-break = execution
        order (order-maintenance label)."""
        return (self.depth, self.label)

    def __repr__(self) -> str:
        status = []
        if self.dirty:
            status.append("dirty")
        if self.failed:
            status.append("failed")
        if self.in_progress:
            status.append("running")
        flags = f" [{','.join(status)}]" if status else ""
        val = f" -> {self.return_val!r}" if self.has_result else ""
        return f"<{self.func.name}{self.args!r}{val}{flags}>"
