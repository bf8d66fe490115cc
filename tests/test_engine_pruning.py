"""Pruning (paper §3.4): unreachable computations are removed before they
can be re-executed, and the graph tracks the live computation exactly."""

from __future__ import annotations

from repro import TrackedObject, check


class Node(TrackedObject):
    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right


@check
def tree_sum(n):
    if n is None:
        return 0
    a = tree_sum(n.left)
    b = tree_sum(n.right)
    return n.key + a + b


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def list_len(e):
    if e is None:
        return 0
    return 1 + list_len(e.next)


class TestPruning:
    def test_detached_subtree_pruned(self, engine_factory):
        engine = engine_factory(tree_sum)
        left = Node(2, Node(3), Node(4))
        root = Node(1, left, Node(5))
        assert engine.run(root) == 15
        size_before = engine.graph_size
        root.left = None  # detach a 3-node subtree
        report = engine.run_with_report(root)
        assert report.result == 6
        assert report.delta["nodes_pruned"] == 3
        assert engine.graph_size == size_before - 3

    def test_pruned_dirty_node_not_reexecuted(self, engine_factory):
        """A dirty node inside a subtree that gets detached by a shallower
        dirty node's re-execution must be pruned, not re-run (paper: "The
        dirty node P is pruned from the graph and will not be
        re-executed")."""
        engine = engine_factory(tree_sum)
        deep = Node(4)
        left = Node(2, Node(3), deep)
        root = Node(1, left, Node(5))
        assert engine.run(root) == 15
        # Two modifications: detach `left` at the root (shallow) and also
        # mutate `deep` inside the now-detached subtree (deep).
        root.left = None
        deep.key = 1000
        report = engine.run_with_report(root)
        assert report.result == 6
        # The deep dirty node was pruned before its turn: only the root
        # re-executed among the dirty nodes.
        assert report.delta["dirty_execs"] == 1

    def test_reattached_subtree_reused(self, engine_factory):
        engine = engine_factory(tree_sum)
        left = Node(2, Node(3), Node(4))
        root = Node(1, left, Node(5))
        engine.run(root)
        detached_reads = engine.stats.snapshot()
        root.left = None
        engine.run(root)
        root.left = left  # bring it back: nodes were pruned, so re-execute
        report = engine.run_with_report(root)
        assert report.result == 15
        assert report.delta["nodes_created"] == 3

    def test_moved_subtree_nodes_survive(self, engine_factory):
        """Moving a subtree to the other side keeps its memo entries: keys
        are (function, node identity), which don't change."""
        engine = engine_factory(tree_sum)
        sub = Node(7, Node(8), Node(9))
        root = Node(1, sub, None)
        assert engine.run(root) == 25
        root.left = None
        root.right = sub  # both writes before one check
        report = engine.run_with_report(root)
        assert report.result == 25
        # Only the root's own invocation re-ran; tree_sum(sub) and its
        # children were reused via optimistic memoization.
        assert report.delta["execs"] == 1
        assert report.delta["nodes_pruned"] == 0

    def test_refcounts_released_on_prune(self, engine_factory):
        engine = engine_factory(list_len)
        tail = Elem(3)
        head = Elem(1, Elem(2, tail))
        assert engine.run(head) == 3
        assert tail._ditto.refcount > 0
        head.next = None
        assert engine.run(head) == 1
        assert tail._ditto.refcount == 0

    def test_graph_tracks_live_computation_size(self, engine_factory):
        engine = engine_factory(list_len)
        head = None
        for v in range(30):
            head = Elem(v, head)
        assert engine.run(head) == 30
        # list_len(None) is a leaf call (all ref args None) and is inlined,
        # so the graph holds exactly one node per element.
        assert engine.graph_size == 30

    def test_prune_cascade_defers_on_in_progress_nodes(self, engine_factory):
        """Regression: after rotation-style reshapes, a pruning cascade
        triggered by a descendant's cleanup can reach a node that is
        *currently executing* (it is a stale descendant of the pruned
        region under the old graph shape).  The prune must be deferred, and
        the node pruned after its execution iff still unreachable —
        otherwise surviving nodes keep caller edges to pruned nodes.

        Found by the hypothesis red-black-tree machine; replayed here as a
        deterministic churn with per-step graph validation."""
        import random

        from repro.structures import RedBlackTree, rbt_invariant

        engine = engine_factory(rbt_invariant)
        rng = random.Random(20)
        tree = RedBlackTree()
        keys: set[int] = set()
        for step in range(60):
            roll = rng.random()
            if roll < 0.4 or not keys:
                k = rng.randrange(60)
                tree.insert(k)
                keys.add(k)
            elif roll < 0.7:
                k = rng.choice(sorted(keys))
                tree.delete(k)
                keys.discard(k)
            else:
                k = rng.choice(sorted(keys))
                tree.corrupt_color(k)
                assert engine.run(tree) == rbt_invariant(tree)
                tree.corrupt_color(k)
            assert engine.run(tree) == rbt_invariant(tree) is True
            engine.validate()

    def test_leaf_optimization_inlines_none_calls(self, engine_factory):
        fast = engine_factory(list_len, leaf_optimization=True)
        slow = engine_factory(list_len, leaf_optimization=False)
        head = Elem(1, Elem(2))
        assert fast.run(head) == slow.run(head) == 2
        assert fast.stats.leaf_execs == 1
        assert slow.stats.leaf_execs == 0
        # Without the optimization the None invocation is a real node.
        assert slow.graph_size == fast.graph_size + 1
