"""Deterministic guards on the memo graph's bookkeeping cost.

Graph maintenance must cost O(1) per changed edge or location, not per
caller or per (node, location) pair.  Timing is noisy, so these tests pin
the *shape* of the work instead:

* the orphan test on the repair path is ``not node.callers``; the O(fan-in)
  ``ComputationNode.caller_count()`` is diagnostics-only, so a seeded
  red-black-tree insert/delete run (the paper's Figure 11 workload, where
  the shared ``NIL`` invocations have over a thousand callers) must never
  call it;
* ``close()`` releases a finished JSO program's reference counts with at
  most one release per distinct location, not one ``_ditto_decref_loc``
  call per (node, location) pair.

Both run without and with an observer: with a trace sink armed, fresh
nodes are built through the engine's generic ``_exec`` rather than inline
in the compiled call closure, and each path must keep these bounds.
"""

from __future__ import annotations

import random

import pytest

from repro import DittoEngine, TrackedArray, TrackedObject
from repro.apps.jso import JsObfuscator, generate_program, jso_invariant
from repro.core.node import ComputationNode
from repro.obs import RingBufferSink
from repro.structures.red_black_tree import RedBlackTree, rbt_invariant

#: "off": no observer, so a fresh node executes inline in its compiled
#: call closure; "on": a trace sink is armed, so every fresh node detours
#: through the engine's generic ``_exec``.
OBSERVED = pytest.mark.parametrize(
    "observed", [False, True], ids=["off", "on"]
)


def _sink(observed):
    return RingBufferSink() if observed else None


def _diagnostics_only(self):
    raise AssertionError(
        "caller_count() reached from the repair path; test not node.callers"
    )


@OBSERVED
def test_rbt_repair_never_sums_callers(observed, monkeypatch):
    rng = random.Random(11)
    tree = RedBlackTree()
    keys: list[int] = []
    while len(keys) < 2048:
        key = rng.randrange(1 << 30)
        if key not in tree:
            keys.append(key)
            tree.insert(key, key)
    engine = DittoEngine(
        rbt_invariant, trace_sink=_sink(observed), recursion_limit=None
    )
    try:
        assert engine.run(tree) is True
        monkeypatch.setattr(
            ComputationNode, "caller_count", _diagnostics_only
        )
        for _ in range(200):
            if rng.random() < 0.5:
                key = rng.randrange(1 << 30)
                if key not in tree:
                    keys.append(key)
                tree.insert(key, key)
            else:
                key = keys.pop(rng.randrange(len(keys)))
                tree.delete(key)
            assert engine.run(tree) is True
        assert engine.stats.nodes_pruned > 0
    finally:
        engine.close()


@OBSERVED
def test_jso_close_releases_once_per_location(observed, monkeypatch):
    jso = JsObfuscator()
    engine = DittoEngine(
        jso_invariant, trace_sink=_sink(observed), recursion_limit=None
    )
    try:
        for chunk in generate_program(250, seed=3):
            jso.feed(chunk)
            assert engine.run(jso) is True
        distinct = engine.table.reverse_map_size()
        pairs = sum(len(node.implicits) for node in engine.table)
        assert pairs > 10 * distinct  # many nodes share few locations
        calls = []
        for cls in (TrackedObject, TrackedArray):
            original = getattr(cls, "_ditto_decref_loc", None)

            def counting(self, location, _original=original):
                calls.append(location)
                if _original is not None:
                    _original(self, location)

            monkeypatch.setattr(
                cls, "_ditto_decref_loc", counting, raising=False
            )
        engine.close()
        assert len(calls) <= distinct
        assert jso._ditto.refcount == 0
        assert jso.reserved_names._ditto.refcount == 0
        assert all(
            location.refcount == 0
            for location in jso.reserved_names._ditto.locations.values()
        )
    finally:
        engine.close()
