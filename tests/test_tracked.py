"""Write-barrier substrate: TrackedObject / TrackedArray / TrackedList and
the global WriteLog with its two §4 filters (monitored fields, refcounts)."""

from __future__ import annotations

import pytest

from repro import TrackedArray, TrackedList, TrackedObject, tracking_state
from repro.core.locations import (
    FieldLocation,
    IndexLocation,
    LengthLocation,
    RangeLocation,
)
from repro.core.tracked import WriteLog, is_tracked


class Cell(TrackedObject):
    def __init__(self, value=0):
        self.value = value
        self.next = None


def _monitor(*fields):
    tracking_state().monitor_fields(fields)


def _covers_slot(logged, container, index):
    """True if some logged location (point or coalesced range) names
    ``container[index]``."""
    for loc in logged:
        if loc.container is not container:
            continue
        if isinstance(loc, IndexLocation) and loc.index == index:
            return True
        if isinstance(loc, RangeLocation) and loc.covers(index):
            return True
    return False


class TestTrackedObjectBarrier:
    def test_no_log_when_refcount_zero(self):
        _monitor("value")
        cid = tracking_state().write_log.register()
        c = Cell()
        c.value = 5
        assert tracking_state().write_log.consume(cid) == []

    def test_no_log_when_field_unmonitored(self):
        cid = tracking_state().write_log.register()
        c = Cell()
        c._ditto_incref()
        c.value = 5
        assert tracking_state().write_log.consume(cid) == []

    def test_logs_when_monitored_and_referenced(self):
        _monitor("value")
        cid = tracking_state().write_log.register()
        c = Cell()
        c._ditto_incref()
        c.value = 5
        assert tracking_state().write_log.consume(cid) == [
            FieldLocation(c, "value")
        ]

    def test_underscore_fields_never_logged(self):
        _monitor("_private")
        cid = tracking_state().write_log.register()
        c = Cell()
        c._ditto_incref()
        c._private = 1
        assert tracking_state().write_log.consume(cid) == []

    def test_refcount_round_trip(self):
        c = Cell()
        assert c._ditto.refcount == 0
        c._ditto_incref()
        c._ditto_incref()
        assert c._ditto.refcount == 2
        c._ditto_decref()
        assert c._ditto.refcount == 1

    def test_is_tracked(self):
        assert is_tracked(Cell())
        assert is_tracked(TrackedArray(1))
        assert not is_tracked([1])
        assert not is_tracked(42)


class TestTrackedArray:
    def test_init_from_size_and_iterable(self):
        assert list(TrackedArray(3)) == [None, None, None]
        assert list(TrackedArray(2, fill=0)) == [0, 0]
        assert list(TrackedArray([1, 2])) == [1, 2]

    def test_read_write(self):
        a = TrackedArray(3)
        a[1] = "x"
        assert a[1] == "x"
        assert len(a) == 3

    def test_barrier_logs_index(self):
        cid = tracking_state().write_log.register()
        a = TrackedArray(3)
        a._ditto_incref()
        a[2] = 7
        assert tracking_state().write_log.consume(cid) == [
            IndexLocation(a, 2)
        ]

    def test_negative_index_normalized_in_log(self):
        cid = tracking_state().write_log.register()
        a = TrackedArray(3)
        a._ditto_incref()
        a[-1] = 7
        assert tracking_state().write_log.consume(cid) == [
            IndexLocation(a, 2)
        ]
        assert a[2] == 7

    def test_no_log_without_refcount(self):
        cid = tracking_state().write_log.register()
        a = TrackedArray(3)
        a[0] = 1
        assert tracking_state().write_log.consume(cid) == []

    def test_fill(self):
        a = TrackedArray(3)
        a.fill(9)
        assert list(a) == [9, 9, 9]


class TestTrackedList:
    def test_append_logs_length_and_slot(self):
        cid = tracking_state().write_log.register()
        lst = TrackedList([])
        lst._ditto_incref()
        lst.append("a")
        logged = tracking_state().write_log.consume(cid)
        assert LengthLocation(lst) in logged
        assert IndexLocation(lst, 0) in logged
        assert list(lst) == ["a"]

    def test_pop_covers_shifted_slots(self):
        """A head pop shifts every remaining slot; the barrier must cover
        all of them (since the coalescing overhaul, with one range entry
        rather than per-slot appends)."""
        lst = TrackedList([1, 2, 3])
        lst._ditto_incref()
        cid = tracking_state().write_log.register()
        lst.pop(0)
        logged = tracking_state().write_log.consume(cid)
        for slot in (0, 1, 2):
            assert _covers_slot(logged, lst, slot)
        assert LengthLocation(lst) in logged
        assert list(lst) == [2, 3]

    def test_shift_ops_log_one_coalesced_range(self):
        lst = TrackedList(range(100))
        lst._ditto_incref()
        cid = tracking_state().write_log.register()
        lst.insert(0, -1)
        logged = tracking_state().write_log.consume(cid)
        assert logged == [LengthLocation(lst), RangeLocation(lst, 0, 101)]
        lst.pop(0)
        logged = tracking_state().write_log.consume(cid)
        assert logged == [LengthLocation(lst), RangeLocation(lst, 0, 101)]

    def test_tail_ops_log_point_locations(self):
        """Append and tail pop touch exactly one slot — no range entry."""
        lst = TrackedList([1, 2])
        lst._ditto_incref()
        cid = tracking_state().write_log.register()
        lst.append(3)
        assert tracking_state().write_log.consume(cid) == [
            LengthLocation(lst),
            IndexLocation(lst, 2),
        ]
        lst.pop()
        assert tracking_state().write_log.consume(cid) == [
            LengthLocation(lst),
            IndexLocation(lst, 2),
        ]

    def test_insert_and_remove(self):
        lst = TrackedList([1, 3])
        lst.insert(1, 2)
        assert list(lst) == [1, 2, 3]
        lst.remove(2)
        assert list(lst) == [1, 3]

    def test_pop_default_is_last(self):
        lst = TrackedList([1, 2])
        assert lst.pop() == 2

    def test_insert_clamps_like_list_insert(self):
        """``insert`` past either end clamps exactly as ``list.insert``
        does — and (the confirmed staleness bug) the clamped slot must be
        covered by the log, not skipped by an empty range."""
        lst = TrackedList([1, 2])
        lst._ditto_incref()
        cid = tracking_state().write_log.register()
        lst.insert(99, 3)
        assert list(lst) == [1, 2, 3]
        logged = tracking_state().write_log.consume(cid)
        assert _covers_slot(logged, lst, 2)
        assert LengthLocation(lst) in logged
        lst.insert(-99, 0)
        assert list(lst) == [0, 1, 2, 3]
        logged = tracking_state().write_log.consume(cid)
        for slot in range(4):
            assert _covers_slot(logged, lst, slot)

    def test_failed_mutations_leave_log_unchanged(self):
        """Validation happens before logging: a raising mutator must not
        emit phantom locations (the second confirmed bug — ``pop`` on an
        empty list used to log ``<len>`` and ``IndexLocation(-1)``)."""
        log = tracking_state().write_log
        cid = log.register()
        empty = TrackedList([])
        empty._ditto_incref()
        with pytest.raises(IndexError, match="pop from empty list"):
            empty.pop()
        assert log.consume(cid) == []
        lst = TrackedList([1, 2])
        lst._ditto_incref()
        with pytest.raises(IndexError, match="pop index out of range"):
            lst.pop(5)
        with pytest.raises(IndexError, match="pop index out of range"):
            lst.pop(-3)
        with pytest.raises(IndexError, match="assignment index out of range"):
            lst[7] = 9
        with pytest.raises(IndexError, match="assignment index out of range"):
            lst[-3] = 9
        with pytest.raises(ValueError):
            lst.remove(42)
        assert log.consume(cid) == []
        assert list(lst) == [1, 2]

    def test_fill_logs_one_range(self):
        arr = TrackedArray(5, fill=0)
        arr._ditto_incref()
        cid = tracking_state().write_log.register()
        arr.fill(7)
        assert tracking_state().write_log.consume(cid) == [
            RangeLocation(arr, 0, 5)
        ]
        assert list(arr) == [7] * 5


class TestWriteLog:
    def test_consume_returns_since_cursor(self):
        log = WriteLog()
        cid = log.register()
        a = TrackedArray(1)
        loc = IndexLocation(a, 0)
        log.append(loc)
        assert log.consume(cid) == [loc]
        assert log.consume(cid) == []

    def test_no_consumers_drops_writes(self):
        log = WriteLog()
        a = TrackedArray(1)
        log.append(IndexLocation(a, 0))
        assert len(log) == 0

    def test_two_consumers_both_see_write(self):
        log = WriteLog()
        c1, c2 = log.register(), log.register()
        a = TrackedArray(1)
        loc = IndexLocation(a, 0)
        log.append(loc)
        assert log.consume(c1) == [loc]
        assert log.consume(c2) == [loc]

    def test_dedup_of_unread_duplicates(self):
        log = WriteLog()
        cid = log.register()
        a = TrackedArray(1)
        loc = IndexLocation(a, 0)
        log.append(loc)
        log.append(loc)
        log.append(loc)
        assert log.consume(cid) == [loc]

    def test_dedup_respects_lagging_consumer(self):
        log = WriteLog()
        c1 = log.register()
        c2 = log.register()
        a = TrackedArray(1)
        loc = IndexLocation(a, 0)
        log.append(loc)
        assert log.consume(c1) == [loc]
        # c2 has not read position 0 yet; appending again must not be
        # suppressed for c1 (c1 already consumed the first occurrence).
        log.append(loc)
        assert log.consume(c1) == [loc]
        consumed = log.consume(c2)
        assert loc in consumed

    def test_dedup_only_while_unread_by_every_consumer(self):
        log = WriteLog()
        c1, c2 = log.register(), log.register()
        a = TrackedArray(1)
        loc = IndexLocation(a, 0)
        log.append(loc)
        log.append(loc)  # unread by both consumers: deduplicated
        assert len(log) == 1
        assert log.consume(c1) == [loc]
        # Read by c1, still unread by c2: not every consumer would see a
        # suppressed write, so it is appended again.
        log.append(loc)
        assert len(log) == 2
        log.append(loc)  # the new entry is unread by both: deduplicated
        assert len(log) == 2
        assert log.consume(c1) == [loc]
        assert log.consume(c2) == [loc, loc]

    def test_compaction_after_all_caught_up(self):
        log = WriteLog()
        cid = log.register()
        a = TrackedArray(1)
        for _ in range(10):
            log.append(IndexLocation(a, 0))
            log.consume(cid)
        assert len(log) == 0

    def test_registration_starts_at_end(self):
        log = WriteLog()
        c1 = log.register()
        a = TrackedArray(1)
        log.append(IndexLocation(a, 0))
        c2 = log.register()
        assert log.consume(c2) == []
        assert len(log.consume(c1)) == 1

    def test_unregister_allows_compaction(self):
        log = WriteLog()
        c1 = log.register()
        c2 = log.register()
        a = TrackedArray(1)
        log.append(IndexLocation(a, 0))
        log.consume(c1)
        assert len(log) == 1  # c2 still behind
        log.unregister(c2)
        assert len(log) == 0


class TestMonitoredFields:
    def test_monitor_unmonitor_counts(self):
        state = tracking_state()
        state.monitor_fields(["x", "y"])
        state.monitor_fields(["x"])
        assert state.is_monitored("x")
        state.unmonitor_fields(["x"])
        assert state.is_monitored("x")  # still one engine monitoring
        state.unmonitor_fields(["x"])
        assert not state.is_monitored("x")
        assert state.is_monitored("y")

    def test_monitored_fields_property(self):
        state = tracking_state()
        state.monitor_fields(["a"])
        assert "a" in state.monitored_fields
