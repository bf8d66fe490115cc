"""MemoTable: entry lookup, reverse map, refcounts, edges, pruning."""

from __future__ import annotations

from repro import ArgsKey, TrackedArray, TrackedObject, check
from repro.core import MemoTable
from repro.core.locations import FieldLocation, IndexLocation, RangeLocation
from repro.core.memo_table import _merge_intervals


class Node(TrackedObject):
    def __init__(self, value=0):
        self.value = value


@check
def some_check(n):
    return True


@check
def other_check(n):
    return True


def _node(table, func, *args):
    node, _ = table.get_or_create(func, ArgsKey(args))
    return node


class TestLookup:
    def test_get_or_create_roundtrip(self):
        table = MemoTable()
        n = Node()
        node, created = table.get_or_create(some_check, ArgsKey((n,)))
        assert created
        again, created2 = table.get_or_create(some_check, ArgsKey((n,)))
        assert again is node and not created2
        assert table.lookup(some_check, ArgsKey((n,))) is node
        assert len(table) == 1

    def test_functions_disambiguate(self):
        table = MemoTable()
        n = Node()
        a = _node(table, some_check, n)
        b = _node(table, other_check, n)
        assert a is not b
        assert len(table) == 2

    def test_lookup_missing(self):
        table = MemoTable()
        assert table.lookup(some_check, ArgsKey((1,))) is None


class TestImplicits:
    def test_record_updates_reverse_map_and_refcount(self):
        table = MemoTable()
        heap = Node()
        node = _node(table, some_check, 1)
        loc = FieldLocation(heap, "value")
        table.record_implicit(node, loc)
        assert heap._ditto.refcount == 1
        assert table.nodes_reading(loc) == {node}
        # Recording the same location twice is idempotent.
        table.record_implicit(node, loc)
        assert heap._ditto.refcount == 1

    def test_record_stores_the_interned_location(self):
        """Implicit arguments hold the container's interned instance (the
        one the write barrier consults), whatever equal location the
        caller passed, so releases can decrement it directly."""
        table = MemoTable()
        heap = Node()
        interned = heap._ditto_location("value")
        node = _node(table, some_check, 1)
        table.record_implicit(node, FieldLocation(heap, "value"))
        (stored,) = node.implicits
        assert stored is interned
        (reverse_key, _), = table.reverse_items()
        assert reverse_key is interned
        assert interned.refcount == 1
        assert heap._ditto.locrefs == heap._ditto.refcount == 1
        table.clear_implicits(node)
        assert interned.refcount == 0
        assert heap._ditto.locrefs == heap._ditto.refcount == 0

    def test_clear_implicits_releases(self):
        table = MemoTable()
        heap = Node()
        node = _node(table, some_check, 1)
        loc = FieldLocation(heap, "value")
        table.record_implicit(node, loc)
        table.clear_implicits(node)
        assert heap._ditto.refcount == 0
        assert table.nodes_reading(loc) == set()
        assert table.reverse_map_size() == 0

    def test_two_nodes_one_location(self):
        table = MemoTable()
        heap = Node()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        loc = FieldLocation(heap, "value")
        table.record_implicit(a, loc)
        table.record_implicit(b, loc)
        assert heap._ditto.refcount == 2
        assert table.nodes_reading(loc) == {a, b}
        table.clear_implicits(a)
        assert table.nodes_reading(loc) == {b}
        assert heap._ditto.refcount == 1

    def test_map_locations_to_nodes(self):
        table = MemoTable()
        h1, h2 = Node(), Node()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        l1 = FieldLocation(h1, "value")
        l2 = FieldLocation(h2, "value")
        table.record_implicit(a, l1)
        table.record_implicit(b, l2)
        assert table.map_locations_to_nodes([l1]) == {a}
        assert table.map_locations_to_nodes([l1, l2]) == {a, b}
        assert table.map_locations_to_nodes([FieldLocation(h1, "other")]) == set()


class TestRangeExpansion:
    def _slot_readers(self, table, arr, slots):
        nodes = {}
        for slot in slots:
            node = _node(table, some_check, slot)
            table.record_implicit(node, arr._ditto_location(slot))
            nodes[slot] = node
        return nodes

    def test_range_dirties_covered_slot_readers_only(self):
        table = MemoTable()
        arr = TrackedArray(10)
        readers = self._slot_readers(table, arr, [0, 3, 5, 9])
        dirty = table.map_locations_to_nodes([RangeLocation(arr, 2, 6)])
        assert dirty == {readers[3], readers[5]}

    def test_range_is_container_scoped(self):
        table = MemoTable()
        a, b = TrackedArray(5), TrackedArray(5)
        readers = self._slot_readers(table, a, [1])
        self._slot_readers(table, b, [1])
        dirty = table.map_locations_to_nodes([RangeLocation(a, 0, 5)])
        assert dirty == {readers[1]}

    def test_wide_range_scans_reverse_map(self):
        """A span larger than the reverse map takes the scan path and
        finds the same dependents."""
        table = MemoTable()
        arr = TrackedArray(4)
        readers = self._slot_readers(table, arr, [2])
        dirty = table.map_locations_to_nodes([RangeLocation(arr, 0, 1000)])
        assert dirty == {readers[2]}

    def test_overlapping_ranges_merge_before_expansion(self):
        table = MemoTable()
        arr = TrackedArray(20)
        readers = self._slot_readers(table, arr, [0, 7, 12])
        pending = [
            RangeLocation(arr, 0, 5),
            RangeLocation(arr, 3, 8),
            RangeLocation(arr, 11, 13),
        ]
        dirty = table.map_locations_to_nodes(pending)
        assert dirty == {readers[0], readers[7], readers[12]}

    def test_mixed_points_and_ranges(self):
        table = MemoTable()
        arr = TrackedArray(10)
        h = Node()
        readers = self._slot_readers(table, arr, [1, 8])
        field_reader = _node(table, other_check, 99)
        loc = FieldLocation(h, "value")
        table.record_implicit(field_reader, loc)
        dirty = table.map_locations_to_nodes(
            [loc, RangeLocation(arr, 0, 2)]
        )
        assert dirty == {readers[1], field_reader}

    def test_empty_range_dirties_nothing(self):
        table = MemoTable()
        arr = TrackedArray(5)
        self._slot_readers(table, arr, [0])
        assert table.map_locations_to_nodes([RangeLocation(arr, 3, 3)]) == set()


class TestMergeIntervals:
    def test_merges_overlaps_and_adjacency(self):
        assert _merge_intervals([(5, 8), (0, 3), (2, 4), (8, 9)]) == [
            (0, 4),
            (5, 9),
        ]

    def test_disjoint_kept_sorted(self):
        assert _merge_intervals([(4, 6), (0, 2)]) == [(0, 2), (4, 6)]

    def test_containment(self):
        assert _merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]

    def test_empty(self):
        assert _merge_intervals([]) == []


class TestEdges:
    """``callers`` is ``None`` with no edge, the bare caller with one, and a
    ``{caller: multiplicity}`` dict once a second edge arrives; each test
    runs the same caller twice (``single`` becomes a dict) and two distinct
    callers (``shared``)."""

    def test_add_remove_edge_counts(self):
        table = MemoTable()
        parent = _node(table, some_check, 1)
        child = _node(table, some_check, 2)
        assert child.callers is None
        table.add_edge(parent, child)
        assert child.callers is parent
        table.add_edge(parent, child)
        assert child.callers == {parent: 2}
        assert child.caller_count() == 2
        assert parent.calls == [child, child]
        table.remove_edge(parent, child)
        assert child.caller_count() == 1
        table.remove_edge(parent, child)
        assert child.caller_count() == 0
        assert parent not in child.caller_map()
        assert child.callers is None

    def test_shared_callee_edge_counts(self):
        table = MemoTable()
        left = _node(table, some_check, 1)
        right = _node(table, some_check, 2)
        child = _node(table, some_check, 3)
        table.add_edge(left, child)
        table.add_edge(right, child)
        assert child.callers == {left: 1, right: 1}
        assert child.caller_count() == 2
        table.remove_edge(left, child)
        assert child.caller_map() == {right: 1}
        assert child.callers  # still reachable: not an orphan
        table.remove_edge(left, child)  # no such edge left: a no-op
        assert child.caller_map() == {right: 1}
        table.remove_edge(right, child)
        assert child.caller_count() == 0
        assert not child.callers
        assert child.callers is None

    def test_depth_propagates_min(self):
        table = MemoTable()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        c = _node(table, some_check, 3)
        a.depth = 1
        table.add_edge(a, b)
        assert b.depth == 2
        b.depth = 5
        table.add_edge(a, c)
        table.add_edge(c, b)  # c at depth 2, so b min-updates to 3
        assert b.depth == 3


class TestPrune:
    def _chain(self, table, length):
        nodes = [_node(table, some_check, i) for i in range(length)]
        for parent, child in zip(nodes, nodes[1:]):
            table.add_edge(parent, child)
        return nodes

    def test_prune_chain(self):
        table = MemoTable()
        heap = Node()
        nodes = self._chain(table, 4)
        table.record_implicit(nodes[-1], FieldLocation(heap, "value"))
        removed = table.prune(nodes[0])
        assert set(removed) == set(nodes)
        assert len(table) == 0
        assert heap._ditto.refcount == 0
        assert table.reverse_map_size() == 0

    def test_prune_stops_at_shared_child(self):
        table = MemoTable()
        nodes = self._chain(table, 3)
        keeper = _node(table, other_check, 0)
        table.add_edge(keeper, nodes[2])
        removed = table.prune(nodes[0])
        assert nodes[2] not in removed
        assert table.contains(nodes[2])
        assert len(table) == 2  # keeper + shared child

    def test_prune_idempotent(self):
        table = MemoTable()
        node = _node(table, some_check, 1)
        table.prune(node)
        assert table.prune(node) == []

    def test_clear_releases_everything(self):
        table = MemoTable()
        heap = Node()
        nodes = self._chain(table, 3)
        table.record_implicit(nodes[1], FieldLocation(heap, "value"))
        removed = table.clear()
        assert set(removed) == set(nodes)
        assert heap._ditto.refcount == 0
        assert len(table) == 0


class TestSnapshot:
    def test_snapshot_maps_names_to_values(self):
        table = MemoTable()
        node = _node(table, some_check, 7)
        node.return_val = True
        snap = table.snapshot()
        assert snap == {("some_check", (7,)): True}


class Box:
    """A duck-typed container: no header, so its location constructors
    return a fresh instance each time."""

    def __init__(self) -> None:
        self.value = 0


class TestDuckTypedContainers:
    """The table canonicalizes the locations of header-less containers:
    equal coordinates share one reverse-map key for as long as a node
    reads it."""

    def test_twins_share_one_reverse_map_key(self):
        table = MemoTable()
        box = Box()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        first = FieldLocation(box, "value")
        twin = FieldLocation(box, "value")
        assert twin is not first
        table.record_implicit(a, first)
        table.record_implicit(a, twin)
        table.record_implicit(b, twin)
        assert a.implicits == {first} and b.implicits == {first}
        assert table.reverse_map_size() == 1
        assert table.nodes_reading(FieldLocation(box, "value")) == {a, b}
        written = FieldLocation(box, "value")
        assert table.map_locations_to_nodes([written]) == {a, b}

    def test_range_over_a_duck_container(self):
        table = MemoTable()
        box = Box()
        readers = {}
        for index in (1, 4):
            readers[index] = _node(table, some_check, index)
            table.record_implicit(readers[index], IndexLocation(box, index))
        for filler in range(10):
            node = _node(table, other_check, filler)
            table.record_implicit(node, FieldLocation(Box(), "value"))
        dirty = table.map_locations_to_nodes([RangeLocation(box, 0, 3)])
        assert dirty == {readers[1]}

    def test_canonical_entry_goes_with_its_last_reader(self):
        table = MemoTable()
        box = Box()
        a = _node(table, some_check, 1)
        b = _node(table, some_check, 2)
        table.record_implicit(a, FieldLocation(box, "value"))
        table.record_implicit(b, FieldLocation(box, "value"))
        table.clear_implicits(a)
        assert len(table._duck) == 1
        table.clear_implicits(b)
        assert table._duck == {}
        assert table.map_locations_to_nodes(
            [FieldLocation(box, "value")]
        ) == set()
        table.record_implicit(a, FieldLocation(box, "value"))
        table.clear()
        assert table._duck == {}
