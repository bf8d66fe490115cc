"""GC-tracked objects held per memo-graph node.

Cyclic garbage collection scans every GC-tracked object, so the objects a
graph node keeps alive are paid for on every collection while the graph
lives.  A node is one row of the paper's memo table (§3.1): the node
itself plus its ``implicits`` set and ``calls`` list, its explicit-args
tuple when an argument is a heap object, and a ``callers`` dict only once
a second call edge arrives; the node is its own order record and its memo
key is a plain tuple the collector untracks.

The footprint is the drop in ``len(gc.get_objects())`` when
``engine.invalidate()`` discards the graph, divided by the graph size.
Two of the paper's workloads are measured: a Figure 14 JSO program, whose
graph only grows, and a Figure 11 red-black tree after seeded
insert/delete events.
"""

from __future__ import annotations

import gc
import random

from repro import DittoEngine
from repro.apps.jso import JsObfuscator, generate_program, jso_invariant
from repro.structures.red_black_tree import RedBlackTree, rbt_invariant

#: Ceilings in GC-tracked objects per node.  The layout with a separate
#: order record, an ``ArgsKey`` wrapper and an always-present ``callers``
#: dict measured 8.05 (JSO) and 9.27 (red-black tree).
JSO_MAX_PER_NODE = 5
RBT_MAX_PER_NODE = 6


def _objects_per_node(engine: DittoEngine) -> float:
    size = engine.graph_size
    assert size > 0
    gc.collect()
    with_graph = len(gc.get_objects())
    engine.invalidate()
    gc.collect()
    return (with_graph - len(gc.get_objects())) / size


def test_jso_graph_objects_per_node():
    jso = JsObfuscator()
    engine = DittoEngine(jso_invariant)
    try:
        for chunk in generate_program(250, seed=1):
            jso.feed(chunk)
            assert engine.run(jso) is True
        per_node = _objects_per_node(engine)
    finally:
        engine.close()
    assert per_node <= JSO_MAX_PER_NODE, (
        f"{per_node:.2f} GC-tracked objects per JSO graph node"
    )


def test_red_black_tree_graph_objects_per_node():
    rng = random.Random(1)
    tree = RedBlackTree()
    keys: list[int] = []
    while len(keys) < 2048:
        key = rng.randrange(1 << 30)
        if key not in tree:
            keys.append(key)
            tree.insert(key, key)
    engine = DittoEngine(rbt_invariant, recursion_limit=None)
    try:
        assert engine.run(tree) is True
        for _ in range(300):
            if rng.random() < 0.5:
                key = rng.randrange(1 << 30)
                if key not in tree:
                    keys.append(key)
                    tree.insert(key, key)
            else:
                tree.delete(keys.pop(rng.randrange(len(keys))))
            assert engine.run(tree) is True
        per_node = _objects_per_node(engine)
    finally:
        engine.close()
    assert per_node <= RBT_MAX_PER_NODE, (
        f"{per_node:.2f} GC-tracked objects per red-black-tree graph node"
    )
