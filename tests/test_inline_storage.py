"""Checked objects keep their inline attribute storage.

CPython 3.11+ stores a plain instance's attributes inline, keyed by its
class's shared keys, until something reads ``obj.__dict__`` or adds a name
the shared keys cannot take; from then on the instance carries a real
dict and the program's own attribute accesses on it are slower.  The
engine keeps every piece of per-container state in one header object
created with the container (``TrackedObject._ditto``), so neither checking
nor mutating a structure may read an instance ``__dict__`` or add an
attribute to one.

* ``test_engine_never_reads_instance_dict`` runs everywhere: a node class
  whose ``__dict__`` property records every read goes through a check, a
  mutation, a re-check, an audit and ``close()``.
* The warm-up tests run the paper's three workloads (small versions) and
  then look for a materialized instance dict among the GC referents of
  every tracked object, which never reads ``__dict__`` itself.
"""

from __future__ import annotations

import gc
import random
import sys

import pytest

from repro import DittoEngine, TrackedObject, check
from repro.apps.jso import JList, JsObfuscator, generate_program, jso_invariant
from repro.apps.netcols import NetcolsBot, NetcolsGame, netcols_invariant
from repro.obs import RingBufferSink
from repro.structures.red_black_tree import (
    RBNode,
    RedBlackTree,
    rbt_invariant,
)

#: "off": the observer is disarmed; "on": a trace sink is armed.  Both
#: build fresh nodes on the one inline path; "on" also fires the hooks.
OBSERVED = pytest.mark.parametrize(
    "observed", [False, True], ids=["off", "on"]
)

INLINE_VALUES = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason=(
        "CPython 3.10 gives every instance a dict; inline attribute values "
        "arrived in 3.11"
    ),
)

#: The classes the paper's workloads check.
CHECKED_CLASSES = (NetcolsGame, JsObfuscator, JList, RedBlackTree, RBNode)


# A node whose __dict__ must never be read. -------------------------------------

class DictReadError(Exception):
    pass


class SealedNode(TrackedObject):
    reads: list[str] = []

    def __init__(self, value, next=None):
        self.value = value
        self.next = next

    @property
    def __dict__(self):
        SealedNode.reads.append(repr(self.value))
        raise DictReadError("instance __dict__ read")


@check
def sealed_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return sealed_ordered(e.next)


def test_engine_never_reads_instance_dict(engine_factory):
    SealedNode.reads.clear()
    head = None
    for value in reversed(range(20)):
        head = SealedNode(value, head)
    engine = engine_factory(sealed_ordered)
    assert engine.run(head) is True
    third = head.next.next
    third.value = -5
    assert engine.run(head) is sealed_ordered(head) is False
    third.value = 2
    assert engine.run(head) is True
    assert engine.audit().ok
    engine.close()
    assert head._ditto.refcount == 0
    assert SealedNode.reads == []


# The paper's workloads. -------------------------------------------------------

def _rbt(seed: int):
    rng = random.Random(seed)
    tree = RedBlackTree()
    keys: list[int] = []
    while len(keys) < 350:
        key = rng.randrange(1 << 30)
        if key not in tree:
            keys.append(key)
            tree.insert(key, key)

    def mutate() -> None:
        if rng.random() < 0.5:
            key = rng.randrange(1 << 30)
            if key not in tree:
                keys.append(key)
                tree.insert(key, key)
        else:
            tree.delete(keys.pop(rng.randrange(len(keys))))

    return rbt_invariant, tree, mutate, 150


def _netcols(seed: int):
    game = NetcolsGame(width=24, height=12)
    bot = NetcolsBot(game, seed=seed)
    return netcols_invariant, game, bot.step, 150


def _jso(seed: int):
    jso = JsObfuscator()
    chunks = iter(generate_program(120, seed=seed))
    return jso_invariant, jso, lambda: jso.feed(next(chunks)), 120


WORKLOADS = {"fig11-rbt": _rbt, "netcols": _netcols, "jso": _jso}


def _instance_dict(obj):
    """``obj``'s materialized instance dict, if it has one: the non-empty
    dict among its GC referents that maps attribute names to the object's
    own attribute values.  Reading ``obj.__dict__`` would materialize it."""
    for ref in gc.get_referents(obj):
        if type(ref) is dict and ref and all(
            type(name) is str and getattr(obj, name, ref) is value
            for name, value in ref.items()
        ):
            return ref
    return None


def _checked_objects(root):
    """Every instance of the checked classes reachable from ``root``,
    walking GC referents (through instance dicts where they exist)."""
    found = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in found or not isinstance(obj, TrackedObject):
            continue
        found[id(obj)] = obj
        for ref in gc.get_referents(obj):
            stack.extend(ref.values() if type(ref) is dict else (ref,))
    return [obj for obj in found.values() if isinstance(obj, CHECKED_CLASSES)]


@INLINE_VALUES
@OBSERVED
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warm_up_leaves_no_instance_dict(workload, observed):
    entry, root, mutate, events = WORKLOADS[workload](seed=1)
    engine = DittoEngine(
        entry,
        trace_sink=RingBufferSink() if observed else None,
        recursion_limit=None,
    )
    try:
        assert engine.run(root) is True
        for _ in range(events):
            mutate()
            engine.run(root)
        objects = _checked_objects(root)
        assert objects
        with_dict = [obj for obj in objects if _instance_dict(obj) is not None]
        assert not with_dict, (
            f"{len(with_dict)}/{len(objects)} checked objects carry an "
            f"instance dict, e.g. {type(with_dict[0]).__name__}"
        )
    finally:
        engine.close()
