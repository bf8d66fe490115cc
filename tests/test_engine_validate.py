"""engine.validate() must actually detect broken graphs — corrupt the
bookkeeping deliberately and expect assertions.

A node's ``callers`` is ``None``, the bare sole caller, or a
``{caller: multiplicity}`` dict once a second edge arrives, so every
``callers`` corruption runs once on an unshared node (the bare caller) and
once on a node in the dict form."""

from __future__ import annotations

import pytest

from repro import TrackedObject, check
from repro.core.node import ComputationNode

#: ``shared``: corrupt a node whose ``callers`` is in the dict form.
FORMS = (False, True)


class Elem(TrackedObject):
    def __init__(self, value, next=None, alt=None):
        self.value = value
        self.next = next
        self.alt = alt


@check
def chain_len(e):
    if e is None:
        return 0
    return 1 + chain_len(e.next)


@check
def paths_len(e):
    if e is None:
        return 0
    return 1 + paths_len(e.next) + paths_len(e.alt)


def _engine_with_chain(engine_factory, n=4):
    engine = engine_factory(chain_len)
    head = None
    for _ in range(n):
        head = Elem(0, head)
    assert engine.run(head) == n
    return engine


def _callee(engine_factory, shared):
    """An engine and a non-root node whose ``callers`` holds two distinct
    callers in the dict form (``shared``: a diamond) or its sole caller,
    bare (a chain)."""
    if shared:
        engine = engine_factory(paths_len)
        bottom = Elem(0)
        assert engine.run(Elem(0, Elem(0, bottom), Elem(0, bottom))) == 5
        node = next(n for n in engine.table if n.caller_count() == 2)
        assert type(node.callers) is dict and len(node.callers) == 2
    else:
        engine = _engine_with_chain(engine_factory)
        node = next(
            n for n in engine.table
            if n is not engine._root and n.caller_count() > 0
        )
        assert isinstance(node.callers, ComputationNode)
    return engine, node


class TestValidateDetects:
    def test_clean_graph_passes(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        engine.validate()

    def test_dirty_leftover(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        next(iter(engine.table)).dirty = True
        with pytest.raises(AssertionError, match="dirty"):
            engine.validate()

    def test_failed_leftover(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        next(iter(engine.table)).failed = True
        with pytest.raises(AssertionError, match="failed"):
            engine.validate()

    def test_missing_reverse_map_entry(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        node = next(n for n in engine.table if n.implicits)
        location = next(iter(node.implicits))
        engine.table._reverse[location].discard(node)
        with pytest.raises(AssertionError, match="reverse map"):
            engine.validate()

    def test_edge_multiplicity_mismatch(self, engine_factory):
        for shared in FORMS:
            engine, child = _callee(engine_factory, shared)
            if shared:
                node = next(iter(child.callers))
                child.callers[node] += 1
            else:
                node = child.callers
                child.callers = {node: 2}
            with pytest.raises(AssertionError, match="multiplicity"):
                engine.validate()

    def test_unreachable_node(self, engine_factory):
        for shared in FORMS:
            engine, node = _callee(engine_factory, shared)
            if shared:
                node.callers.clear()
            else:
                node.callers = None
            with pytest.raises(AssertionError,
                               match="unreachable|multiplicity"):
                engine.validate()

    def test_lost_order_record(self, engine_factory):
        engine = _engine_with_chain(engine_factory)
        node = next(iter(engine.table))
        engine.order.delete(node)
        with pytest.raises(AssertionError, match="order record"):
            engine.validate()

    def test_unanchored_root(self, engine_factory):
        for shared in FORMS:
            engine = _engine_with_chain(engine_factory)
            root = engine._root
            if shared:
                # A root is never called from inside its own graph; its
                # callers reach the dict form when the anchor moves onto an
                # invocation that already had a caller (the old root,
                # pruned right after).
                root = root.calls[0]
                assert engine.run(root.args[0]) == 3
                assert engine._root is root
                assert type(root.callers) is dict
                del root.callers[engine._anchor]
            else:
                assert root.callers is engine._anchor
                root.callers = None
            with pytest.raises(AssertionError, match="anchored"):
                engine.validate()
