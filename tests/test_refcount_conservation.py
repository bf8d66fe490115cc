"""Reference-count conservation across graph teardown.

The write barrier skips a store when the §4 counts say no computation node
reads it, so the counts must be exact: an over-release silently drops
writes another engine depends on, an under-release keeps paying for
barriers nobody needs.  These tests drive the paper workloads (a
red-black tree, a Netcols board, a JSO program) with the observer
disarmed and armed (a trace sink attached; fresh nodes are built on the
one inline path either way, with the node hooks firing when armed) and
check three things:

* while a graph is live, every container's header ``refcount`` and
  ``locrefs``, and every interned location's ``refcount``, equal
  their value before the engine existed plus this graph's census of
  implicit arguments (counted per *interned instance*: the memo table
  stores the instance the barrier consults);
* ``close()``, ``invalidate()`` and a step-limit fallback each return all
  of them to their value before the engine existed;
* with two engines on one structure, closing one leaves the survivor's
  counts exact and its barrier still logging.

Duck-typed containers with only the coarse ``_ditto_incref`` /
``_ditto_decref`` hooks are released through those hooks.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from repro import (
    DegradationPolicy,
    DittoEngine,
    TrackedArray,
    TrackedObject,
    check,
)
from repro.apps.jso import JsObfuscator, generate_program, jso_invariant
from repro.apps.netcols import NetcolsBot, NetcolsGame, netcols_invariant
from repro.core import MemoTable
from repro.core.argkeys import ArgsKey
from repro.core.locations import FieldLocation
from repro.obs import RingBufferSink
from repro.structures.red_black_tree import RedBlackTree, rbt_invariant

#: "off": the observer is disarmed; "on": a trace sink is armed.  Both
#: build fresh nodes on the one inline path; "on" also fires the hooks.
OBSERVED = pytest.mark.parametrize(
    "observed", [False, True], ids=["off", "on"]
)


def _sink(observed):
    return RingBufferSink() if observed else None


# Seeded workloads (small versions of the benchmark's). -----------------------

class RbtWorkload:
    entry = rbt_invariant

    def __init__(self, seed: int = 1, size: int = 256):
        self.rng = random.Random(seed)
        self.tree = RedBlackTree()
        self.keys: list[int] = []
        while len(self.keys) < size:
            self._insert(self.rng.randrange(1 << 20))

    def _insert(self, key: int) -> None:
        if key not in self.tree:
            self.keys.append(key)
        self.tree.insert(key, key)

    def mutate(self) -> None:
        if self.rng.random() < 0.5:
            self._insert(self.rng.randrange(1 << 20))
            return
        key = self.keys.pop(self.rng.randrange(len(self.keys)))
        self.tree.delete(key)

    def args(self) -> tuple:
        return (self.tree,)


class NetcolsWorkload:
    entry = netcols_invariant

    def __init__(self, seed: int = 1):
        self.game = NetcolsGame(width=12, height=12)
        self.bot = NetcolsBot(self.game, seed=seed)

    def mutate(self) -> None:
        self.bot.step()

    def args(self) -> tuple:
        return (self.game,)


class JsoWorkload:
    entry = jso_invariant

    def __init__(self, seed: int = 1, declarations: int = 80):
        self.jso = JsObfuscator()
        self.chunks = iter(generate_program(declarations, seed=seed))

    def mutate(self) -> None:
        self.jso.feed(next(self.chunks))

    def args(self) -> tuple:
        return (self.jso,)


WORKLOADS = {
    "rbt": RbtWorkload,
    "netcols": NetcolsWorkload,
    "jso": JsoWorkload,
}


# Count snapshots and the census. ---------------------------------------------

def _reachable(roots, seen: dict[int, object]) -> None:
    """Add every tracked container reachable from ``roots`` to ``seen``."""
    stack = list(roots)
    visited: set[int] = set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, TrackedArray):
            seen[id(obj)] = obj
            stack.extend(obj)
        elif isinstance(obj, TrackedObject):
            seen[id(obj)] = obj
            # The attribute values, through the GC referents (the header
            # among them is followed by no branch): vars() would give the
            # object, and the shared red-black NIL, an instance dict.
            stack.extend(gc.get_referents(obj))
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())


def _graph_containers(engine: DittoEngine, seen: dict[int, object]) -> None:
    for node in engine.table:
        for location in node.implicits:
            seen[id(location.container)] = location.container


def _counts(containers: dict[int, object]) -> dict[int, tuple]:
    """``id -> (refcount, locrefs, {coordinate: refcount})``: each
    container's header counts and the count of every interned location."""
    snapshot = {}
    for key, obj in containers.items():
        cache = obj._ditto.locations
        snapshot[key] = (
            obj._ditto.refcount,
            obj._ditto.locrefs,
            {coord: loc.refcount for coord, loc in cache.items()},
        )
    return snapshot


def _expected(
    baseline: dict[int, tuple],
    containers: dict[int, object],
    engines: tuple[DittoEngine, ...],
) -> dict[int, tuple]:
    """Baseline counts plus the census of the live graphs of ``engines``.
    Containers first seen after the baseline started at 0."""
    per_container: Counter = Counter()
    per_location: Counter = Counter()
    for engine in engines:
        for node in engine.table:
            for location in node.implicits:
                per_container[id(location.container)] += 1
                per_location[id(location)] += 1
    expected = {}
    for key, obj in containers.items():
        refcount, locrefs, locations = baseline.get(key, (0, 0, {}))
        cache = obj._ditto.locations
        expected[key] = (
            refcount + per_container[key],
            locrefs + per_container[key],
            {
                coord: locations.get(coord, 0) + per_location[id(loc)]
                for coord, loc in cache.items()
            },
        )
    return expected


def _assert_counts(baseline, containers, *engines) -> None:
    actual = _counts(containers)
    expected = _expected(baseline, containers, engines)
    wrong = {
        key: (actual[key], expected[key])
        for key in containers
        if actual[key] != expected[key]
    }
    assert not wrong, (
        f"{len(wrong)} of {len(containers)} containers have drifted counts; "
        f"first (actual, expected): {next(iter(wrong.values()))}"
    )


def _warm(engine: DittoEngine, workload, seen: dict, events: int) -> None:
    """Mutate-and-check ``events`` times, checking each verdict against the
    uninstrumented check and collecting every container the graph
    references along the way."""
    entry = workload.entry
    assert engine.run(*workload.args()) == entry.original(*workload.args())
    _graph_containers(engine, seen)
    for _ in range(events):
        workload.mutate()
        result = engine.run(*workload.args())
        assert result == entry.original(*workload.args())
        _graph_containers(engine, seen)


# Teardown paths. -------------------------------------------------------------

def _close(engine: DittoEngine, workload) -> None:
    engine.close()


def _invalidate(engine: DittoEngine, workload) -> None:
    engine.invalidate()
    assert engine.graph_size == 0


def _step_limit_fallback(engine: DittoEngine, workload) -> None:
    # With a cooldown the fallback discards the graph and answers from the
    # uninstrumented check, leaving no graph behind to hold references.
    engine.degradation = DegradationPolicy(cooldown_runs=4)
    engine.step_limit = 1
    workload.mutate()
    result = engine.run(*workload.args())
    assert result == workload.entry.original(*workload.args())
    assert engine.stats.fallback_reasons == {"step_limit": 1}
    assert engine.graph_size == 0


TEARDOWNS = {
    "close": _close,
    "invalidate": _invalidate,
    "step_limit_fallback": _step_limit_fallback,
}


@pytest.mark.parametrize("teardown", sorted(TEARDOWNS))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@OBSERVED
def test_teardown_returns_counts_to_baseline(
    observed, workload_name, teardown
):
    workload = WORKLOADS[workload_name]()
    seen: dict[int, object] = {}
    _reachable(workload.args(), seen)
    baseline = _counts(seen)
    engine = DittoEngine(
        workload.entry, trace_sink=_sink(observed), recursion_limit=None
    )
    try:
        _warm(engine, workload, seen, events=40)
        _reachable(workload.args(), seen)
        _assert_counts(baseline, seen, engine)
        TEARDOWNS[teardown](engine, workload)
        _reachable(workload.args(), seen)
        _assert_counts(baseline, seen)
        assert engine.table.reverse_map_size() == 0
        assert len(engine.order) == 0
    finally:
        engine.close()
    _assert_counts(baseline, seen)


@OBSERVED
def test_rebuilding_fallback_leaves_exact_counts(observed):
    """Without a cooldown the step-limit fallback rebuilds in place: the
    counts are then exactly the rebuilt graph's census."""
    workload = RbtWorkload()
    seen: dict[int, object] = {}
    _reachable(workload.args(), seen)
    baseline = _counts(seen)
    engine = DittoEngine(
        rbt_invariant, trace_sink=_sink(observed), recursion_limit=None
    )
    try:
        _warm(engine, workload, seen, events=20)
        engine.step_limit = 1
        workload.mutate()
        assert engine.run(*workload.args()) is True
        assert engine.stats.fallback_reasons == {"step_limit": 1}
        assert engine.graph_size > 0
        _graph_containers(engine, seen)
        _reachable(workload.args(), seen)
        _assert_counts(baseline, seen, engine)
    finally:
        engine.close()
    _assert_counts(baseline, seen)


@OBSERVED
def test_closing_one_of_two_engines_keeps_survivor_exact(observed):
    workload = RbtWorkload(seed=7)
    tree = workload.tree
    seen: dict[int, object] = {}
    _reachable(workload.args(), seen)
    baseline = _counts(seen)
    first = DittoEngine(
        rbt_invariant, trace_sink=_sink(observed), recursion_limit=None
    )
    survivor = DittoEngine(
        rbt_invariant, trace_sink=_sink(observed), recursion_limit=None
    )
    try:
        for _ in range(30):
            workload.mutate()
            assert first.run(tree) is True
            assert survivor.run(tree) is True
            _graph_containers(first, seen)
            _graph_containers(survivor, seen)
        _reachable(workload.args(), seen)
        _assert_counts(baseline, seen, first, survivor)
        first.close()
        _assert_counts(baseline, seen, survivor)
        # The survivor's barrier still logs: a mutation made after the
        # close reaches its next run, and the repair reverts with it.
        key = workload.keys[len(workload.keys) // 2]
        if key == tree.root.key:
            key = workload.keys[0]
        tree.corrupt_color(key)
        assert survivor.run(tree) is False
        tree.corrupt_color(key)
        assert survivor.run(tree) is True
        workload.mutate()
        assert survivor.run(tree) is True
        _graph_containers(survivor, seen)
        _reachable(workload.args(), seen)
        _assert_counts(baseline, seen, survivor)
    finally:
        first.close()
        survivor.close()
    _assert_counts(baseline, seen)


# Duck-typed containers. ------------------------------------------------------

class CoarseBox:
    """A custom refcounted container with only the coarse hooks."""

    def __init__(self) -> None:
        self.refs = 0
        self.value = 0

    def _ditto_incref(self) -> None:
        self.refs += 1

    def _ditto_decref(self) -> None:
        self.refs -= 1


@check
def box_reader(n):
    return True


def _table_with_box_readers():
    table = MemoTable()
    box = CoarseBox()
    nodes = [
        table.get_or_create(box_reader, ArgsKey((i,)))[0] for i in range(4)
    ]
    for node in nodes:
        table.record_implicit(node, FieldLocation(box, "value"))
        table.record_implicit(node, FieldLocation(box, "other"))
        # A repeated read is not a second reference.
        table.record_implicit(node, FieldLocation(box, "value"))
    return table, box, nodes


class TestCoarseDuckContainer:
    def test_record_and_clear_implicits(self):
        table, box, nodes = _table_with_box_readers()
        assert box.refs == 8
        table.clear_implicits(nodes[0])
        assert box.refs == 6
        assert table.reverse_map_size() == 2

    def test_prune_releases(self):
        table, box, nodes = _table_with_box_readers()
        table.add_edge(nodes[0], nodes[1])
        removed = table.prune(nodes[0])
        assert set(removed) == {nodes[0], nodes[1]}
        assert box.refs == 4

    def test_batched_clear_releases_through_coarse_hook(self):
        table, box, nodes = _table_with_box_readers()
        decrefs = []
        release = box._ditto_decref

        def counting_decref() -> None:
            decrefs.append(1)
            release()

        box._ditto_decref = counting_decref  # type: ignore[method-assign]
        table.clear()
        assert len(decrefs) == 8
        assert box.refs == 0
        assert table.reverse_map_size() == 0
        assert all(not node.implicits for node in nodes)


@OBSERVED
def test_teardown_leaves_no_reference_cycles(observed):
    """The discarded graph is freed by reference counting alone: no node,
    edge or order record is left for the cyclic collector."""
    workload = RbtWorkload(seed=3)
    engine = DittoEngine(
        rbt_invariant, trace_sink=_sink(observed), recursion_limit=None
    )
    try:
        _warm(engine, workload, {}, events=20)
        gc.collect()
        gc.disable()
        try:
            engine.invalidate()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
    finally:
        engine.close()
