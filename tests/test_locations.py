"""Heap-location identity, hashing, and reads."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import ArgsKey, TrackedArray, TrackedList, TrackedObject, check
from repro.core import MemoTable
from repro.core.locations import (
    FieldLocation,
    IndexLocation,
    LengthLocation,
    RangeLocation,
)


class Node(TrackedObject):
    def __init__(self, value):
        self.value = value


class TestFieldLocation:
    def test_same_object_same_field(self):
        n = Node(1)
        assert FieldLocation(n, "value") == FieldLocation(n, "value")
        assert hash(FieldLocation(n, "value")) == hash(
            FieldLocation(n, "value")
        )

    def test_different_fields(self):
        n = Node(1)
        assert FieldLocation(n, "value") != FieldLocation(n, "next")

    def test_different_objects(self):
        assert FieldLocation(Node(1), "value") != FieldLocation(
            Node(1), "value"
        )

    def test_read(self):
        n = Node(42)
        assert FieldLocation(n, "value").read() == 42
        n.value = 43
        assert FieldLocation(n, "value").read() == 43

    def test_usable_in_sets(self):
        n = Node(1)
        locations = {FieldLocation(n, "value"), FieldLocation(n, "value")}
        assert len(locations) == 1

    def test_repr_mentions_field(self):
        n = Node(1)
        assert "value" in repr(FieldLocation(n, "value"))


class TestIndexLocation:
    def test_identity(self):
        a = TrackedArray(4)
        assert IndexLocation(a, 2) == IndexLocation(a, 2)
        assert IndexLocation(a, 2) != IndexLocation(a, 3)
        assert IndexLocation(a, 2) != IndexLocation(TrackedArray(4), 2)

    def test_read(self):
        a = TrackedArray([10, 20, 30])
        assert IndexLocation(a, 1).read() == 20

    def test_not_equal_to_field_location(self):
        a = TrackedArray(2)
        n = Node(1)
        assert IndexLocation(a, 0) != FieldLocation(n, "value")


class TestLengthLocation:
    def test_identity(self):
        a = TrackedArray(4)
        assert LengthLocation(a) == LengthLocation(a)
        assert LengthLocation(a) != LengthLocation(TrackedArray(4))

    def test_read(self):
        assert LengthLocation(TrackedArray(7)).read() == 7

    def test_distinct_from_index(self):
        a = TrackedArray(4)
        assert LengthLocation(a) != IndexLocation(a, 0)


class TestRangeLocation:
    def test_identity(self):
        a = TrackedArray(8)
        assert RangeLocation(a, 1, 5) == RangeLocation(a, 1, 5)
        assert hash(RangeLocation(a, 1, 5)) == hash(RangeLocation(a, 1, 5))
        assert RangeLocation(a, 1, 5) != RangeLocation(a, 1, 6)
        assert RangeLocation(a, 1, 5) != RangeLocation(a, 2, 5)
        assert RangeLocation(a, 1, 5) != RangeLocation(TrackedArray(8), 1, 5)

    def test_distinct_from_point_locations(self):
        a = TrackedArray(4)
        assert RangeLocation(a, 0, 1) != IndexLocation(a, 0)
        assert RangeLocation(a, 0, 1) != LengthLocation(a)

    def test_covers_half_open(self):
        a = TrackedArray(8)
        r = RangeLocation(a, 2, 5)
        assert len(r) == 3
        assert not r.covers(1)
        assert r.covers(2)
        assert r.covers(4)
        assert not r.covers(5)

    def test_empty_range_covers_nothing(self):
        a = TrackedArray(4)
        r = RangeLocation(a, 3, 3)
        assert len(r) == 0
        assert not r.covers(3)

    def test_invalid_bounds_rejected(self):
        a = TrackedArray(4)
        with pytest.raises(ValueError):
            RangeLocation(a, -1, 2)
        with pytest.raises(ValueError):
            RangeLocation(a, 3, 1)

    def test_read_returns_covered_values(self):
        a = TrackedArray([10, 20, 30, 40])
        assert RangeLocation(a, 1, 3).read() == (20, 30)
        # Reads clamp to the current occupancy (diagnostics only).
        assert RangeLocation(a, 2, 9).read() == (30, 40)

    def test_usable_in_sets(self):
        a = TrackedArray(4)
        assert len({RangeLocation(a, 0, 2), RangeLocation(a, 0, 2)}) == 1


# Interning: a point location is its container's one instance per (class,
# coordinate), so locations hash and compare by identity. ----------------------


@check
def slot_reader(i):
    return True


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


class TestInterning:
    def test_constructors_return_the_interned_instance(self):
        n = Node(1)
        lst = TrackedList([10, 20])
        field = FieldLocation(n, "value")
        slot = IndexLocation(lst, 1)
        length = LengthLocation(lst)
        assert field is n._ditto.locations["value"]
        assert slot is lst._ditto.locations[1]
        assert length is lst._ditto.locations["<len>"]
        assert FieldLocation(n, "value") is field
        assert IndexLocation(lst, 1) is slot
        assert LengthLocation(lst) is length
        # The write barrier's lookup finds the same instance.
        assert n._ditto_location("value") is field
        assert lst._ditto_location(1) is slot
        assert lst._ditto_location("<len>") is length

    def test_coordinate_of_another_class_is_never_returned(self):
        arr = TrackedArray(3)
        length = LengthLocation(arr)
        twin = FieldLocation(arr, "<len>")
        assert type(twin) is FieldLocation and twin is not length
        assert arr._ditto.locations["<len>"] is length
        # The twin is not interned: every construction is a new instance.
        assert FieldLocation(arr, "<len>") is not twin
        n = Node(1)
        field = FieldLocation(n, "value")
        other = IndexLocation(n, "value")
        assert type(other) is IndexLocation and other is not field
        assert n._ditto.locations["value"] is field

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_intern_their_own_locations(self, how):
        n = Node(1)
        lst = TrackedList([1, 2])
        field = FieldLocation(n, "value")
        slot = IndexLocation(lst, 0)
        length = LengthLocation(lst)
        n2 = COPIES[how](n)
        lst2 = COPIES[how](lst)
        field2 = FieldLocation(n2, "value")
        slot2 = IndexLocation(lst2, 0)
        length2 = LengthLocation(lst2)
        assert field2 is not field and field2.container is n2
        assert slot2 is not slot and slot2.container is lst2
        assert length2 is not length and length2.container is lst2
        assert n2._ditto.locations == {"value": field2}
        assert lst2._ditto.locations == {0: slot2, "<len>": length2}
        assert n._ditto.locations == {"value": field}

    def test_range_expansion_interns_nothing(self):
        """Probing a range's slots slot by slot (the reverse map is larger
        than the span) leaves unread slots without a location."""
        table = MemoTable()
        arr = TrackedArray(2100)
        for index in range(1000, 2100):
            node, _ = table.get_or_create(slot_reader, ArgsKey((index,)))
            table.record_implicit(node, IndexLocation(arr, index))
        assert table.reverse_map_size() > 1000
        interned = len(arr._ditto.locations)
        dirty = table.map_locations_to_nodes([RangeLocation(arr, 0, 1000)])
        assert dirty == set()
        assert len(arr._ditto.locations) == interned
