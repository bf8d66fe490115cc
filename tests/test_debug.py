"""Graph introspection helpers (repro.debug)."""

from __future__ import annotations

from repro import TrackedObject, check
from repro.debug import graph_dot, graph_stats, graph_text


class Node(TrackedObject):
    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right


@check
def debug_sum(n):
    if n is None:
        return 0
    a = debug_sum(n.left)
    b = debug_sum(n.right)
    return n.key + a + b


def _tree():
    return Node(1, Node(2, Node(4), None), Node(3))


class TestGraphText:
    def test_empty(self, engine_factory):
        engine = engine_factory(debug_sum)
        assert graph_text(engine) == "<empty graph>"

    def test_tree_rendering(self, engine_factory):
        engine = engine_factory(debug_sum)
        root = _tree()
        assert engine.run(root) == 10
        text = graph_text(engine)
        assert text.splitlines()[0].startswith("debug_sum(")
        assert "= 10" in text
        assert "= 4" in text
        assert text.count("debug_sum") == 4  # None calls are leaf-inlined

    def test_shared_nodes_marked(self, engine_factory):
        @check
        def debug_len(e):
            if e is None:
                return 0
            return 1 + debug_len(e.right)

        engine = engine_factory(debug_sum)
        shared = Node(5)
        root = Node(1, Node(2, shared, None), Node(3, shared, None))
        engine.run(root)
        text = graph_text(engine)
        assert "(shared)" in text

    def test_shared_nodes_keep_flags(self, engine_factory):
        """Regression: the (shared) branch used to drop the computed
        flags, so a shared dirty node printed as clean."""
        engine = engine_factory(debug_sum)
        shared = Node(5)
        root = Node(1, Node(2, shared, None), Node(3, shared, None))
        engine.run(root)
        for node in engine.table:
            if node.args and node.args[0] is shared:
                node.dirty = True
        text = graph_text(engine)
        shared_lines = [l for l in text.splitlines() if "(shared)" in l]
        assert shared_lines, "expected a shared reference line"
        assert all("[dirty]" in line for line in shared_lines)
        # The expanded occurrence carries the flag too.
        dirty_lines = [l for l in text.splitlines() if "[dirty]" in l]
        assert len(dirty_lines) == len(shared_lines) + 1
        for node in engine.table:
            node.dirty = False

    def test_truncation(self, engine_factory):
        engine = engine_factory(debug_sum)
        root = None
        for k in range(50):
            root = Node(k, root, None)
        engine.run(root)
        text = graph_text(engine, max_nodes=10)
        assert "truncated" in text


class TestGraphDot:
    def test_dot_structure(self, engine_factory):
        engine = engine_factory(debug_sum)
        engine.run(_tree())
        dot = graph_dot(engine)
        assert dot.startswith("digraph ditto {")
        assert dot.rstrip().endswith("}")
        # 3 edges: calls on None children are leaf-inlined, not nodes.
        assert dot.count("->") == 3
        assert 'label="debug_sum' in dot

    def test_dirty_nodes_colored(self, engine_factory):
        engine = engine_factory(debug_sum)
        root = _tree()
        engine.run(root)
        for node in engine.table:
            node.dirty = True
            break
        assert 'color="red"' in graph_dot(engine)


class TestGraphStats:
    def test_empty(self, engine_factory):
        engine = engine_factory(debug_sum)
        assert graph_stats(engine)["nodes"] == 0

    def test_populated(self, engine_factory):
        engine = engine_factory(debug_sum)
        engine.run(_tree())
        stats = graph_stats(engine)
        assert stats["nodes"] == 4
        assert stats["edges"] == 3  # None calls are leaf-inlined
        assert stats["implicits"] > 0
        assert stats["max_depth"] >= 3
