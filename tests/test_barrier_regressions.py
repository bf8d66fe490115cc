"""Engine-driven regressions for the confirmed TrackedList barrier bugs.

Each test here encodes a *pre-fix failure*: before the barrier overhaul,
``TrackedList.insert(i, v)`` with ``i > len`` logged an empty slot range
(so the appended slot's reader went stale), failed mutations logged
phantom locations before raising, and the runtime normalized negative
reads without recording the length dependency they embody.  The tests
drive real engines to the formerly-stale results and cross-check the
three execution modes through the differential oracle.
"""

from __future__ import annotations

import pytest

from repro import DittoEngine, TrackedList, check, tracking_state
from repro.core.locations import LengthLocation
from repro.qa import CHECK_OP, Op, Oracle, Trace
from repro.structures.ordered_list import IntListElem, is_ordered


@check
def tail_value(v):
    """Reads only ``v[-1]`` — its sole length dependency is the implicit
    one the runtime records while normalizing the negative index."""
    return v[-1]


class TestInsertClampStaleness:
    def test_out_of_range_insert_dirties_tail_reader(self, engine_factory):
        """Pre-fix: ``insert(99, ...)`` logged only ``<len>`` (the slot
        range ``range(99, n+1)`` was empty) while ``list.insert`` clamped
        and wrote slot ``n`` — so the engine kept serving the old tail."""
        lst = TrackedList([1, 2, 3])
        engine = engine_factory(tail_value)
        assert engine.run(lst) == 3
        lst.insert(99, -7)
        assert list(lst) == [1, 2, 3, -7]
        assert engine.run(lst) == tail_value(lst) == -7

    def test_far_negative_insert_dirties_head_reader(self, engine_factory):
        @check
        def head_value(v):
            return v[0]

        lst = TrackedList([5, 6])
        engine = engine_factory(head_value)
        assert engine.run(lst) == 5
        lst.insert(-99, 4)  # clamps to 0, writes the head
        assert engine.run(lst) == head_value(lst) == 4

    def test_append_dirties_negative_tail_reader(self, engine_factory):
        """Growth retargets ``v[-1]`` without writing the old tail slot;
        only the length dependency recorded during negative-index
        normalization makes the reader re-run."""
        lst = TrackedList([10, 20])
        engine = engine_factory(tail_value)
        assert engine.run(lst) == 20
        lst.append(30)
        assert engine.run(lst) == 30

    def test_negative_read_records_length_implicit(self, engine_factory):
        lst = TrackedList([1, 2])
        engine = engine_factory(tail_value)
        engine.run(lst)
        implicits = set()
        for node in engine.table:
            implicits |= node.implicits
        assert LengthLocation(lst) in implicits


class TestFailedMutationsThroughEngine:
    def test_raising_pop_causes_no_spurious_repair(self, engine_factory):
        """A failed mutation must not dirty anything: the next run after a
        raising ``pop`` is a no-op repair, not a phantom re-execution."""
        lst = TrackedList([1, 2, 3])
        engine = engine_factory(tail_value)
        engine.run(lst)
        with pytest.raises(IndexError):
            lst.pop(17)
        with pytest.raises(IndexError):
            lst.pop(-9)
        before = engine.stats.execs
        assert engine.run(lst) == 3
        assert engine.stats.execs == before
        assert engine.stats.dirty_marked == 0

    def test_pop_on_empty_logs_nothing_for_engine(self, engine_factory):
        empty = TrackedList([])
        engine = engine_factory(tail_value)
        with pytest.raises(IndexError):
            engine.run(empty)  # builds the (raising) graph, refcounts > 0
        with pytest.raises(IndexError):
            empty.pop()
        assert tracking_state().write_log.peek(engine._log_cid) == []


class TestModesAgreeOnRepro:
    def test_oracle_agrees_on_clamped_and_failing_ops(self):
        """The exact op shapes of both confirmed bugs, replayed through
        scratch/ditto/naive on a shared heap: out-of-range inserts (clamp
        both ways), out-of-range and empty pops (validated, absorbed by
        the model), plus interleaved checks."""
        trace = Trace(
            "int_vector",
            0,
            [
                Op("pop", (0,)),  # pop on empty: raises, absorbed, no log
                Op("append", (3,)),
                Op("append", (5,)),
                CHECK_OP,
                Op("insert", (99, -7)),  # clamps to tail
                CHECK_OP,
                Op("insert", (-99, 11)),  # clamps to head
                CHECK_OP,
                Op("pop", (42,)),  # out of range: raises, absorbed
                Op("pop", (-1,)),  # valid tail pop
                CHECK_OP,
                Op("corrupt", (1, 8)),
                CHECK_OP,
            ],
        )
        report = Oracle("int_vector", validate=True).run(trace)
        assert report.ok, "\n".join(str(d) for d in report.divergences)
        assert report.checks_run == 6  # 5 explicit + the implicit final
        assert report.audit_findings == {"ditto": [], "naive": []}


class TestAttributeDeletion:
    @pytest.mark.parametrize("mode", ["ditto", "naive"])
    def test_deleted_field_dirties_its_reader(self, engine_factory, mode):
        """Pre-fix: ``TrackedObject`` had no ``__delattr__``, so ``del``
        bypassed the barrier and the engine kept its cached ``True`` while
        the plain check raises."""
        head = IntListElem(1, IntListElem(2, IntListElem(3)))
        engine = engine_factory(is_ordered, mode=mode)
        assert engine.run(head) is True
        del head.next.next
        with pytest.raises(AttributeError) as scratch:
            is_ordered(head)
        with pytest.raises(AttributeError) as incremental:
            engine.run(head)
        assert str(incremental.value) == str(scratch.value)
        assert tracking_state().barrier_counters()["barrier_logged"] == 1

    def test_deletion_passes_the_store_filters(self, engine_factory):
        head = IntListElem(1)  # the check reads head.next, not head.value
        engine = engine_factory(is_ordered)
        assert engine.run(head) is True
        state = tracking_state()
        head.note = "unmonitored"
        del head.note  # monitored-field filter
        del head.value  # per-location filter: nothing reads it
        del IntListElem(2).next  # refcount filter: unreferenced, uncounted
        with pytest.raises(AttributeError):
            del head.missing  # a deletion that raises logs nothing
        assert state.barrier_counters() == {
            "barrier_logged": 0,
            "barrier_filtered": 2,
            "barrier_coalesced": 0,
            "barrier_location_filtered": 1,
        }
        assert engine.run(head) is is_ordered(head) is True


class TestBarrierCounters:
    def test_counters_flow_through_barrier_counters(self):
        lst = TrackedList(range(50))
        engine = DittoEngine(tail_value)
        try:
            engine.run(lst)
            lst.insert(0, -1)  # coalesced range over 51 slots
            engine.run(lst)
            state = tracking_state()
            counters = state.barrier_counters()
            assert counters["barrier_logged"] == state.write_log.logged
            assert counters["barrier_logged"] >= 2
            assert (
                counters["barrier_coalesced"]
                == state.write_log.coalesced
                == 51
            )
            assert counters["barrier_filtered"] == state.barrier_filtered
        finally:
            engine.close()

    def test_filtered_counter_counts_unmonitored_writes(self):
        from repro import TrackedObject

        class Box(TrackedObject):
            pass

        box = Box()
        box._ditto_incref()
        tracking_state().monitor_fields(["seen"])
        before = tracking_state().barrier_filtered
        box.ignored = 1  # referenced container, unmonitored field
        assert tracking_state().barrier_filtered == before + 1
        box.seen = 2  # monitored: logged, not filtered
        assert tracking_state().barrier_filtered == before + 1

    def test_drain_instant_carries_counters(self, engine_factory):
        from repro.obs import RingBufferSink

        sink = RingBufferSink()
        lst = TrackedList([1, 2])
        engine = engine_factory(tail_value, trace_sink=sink)
        engine.run(lst)
        lst.insert(0, 0)
        engine.run(lst)
        instants = sink.instants("barrier_drain")
        assert instants
        args = instants[-1].args
        for key in (
            "barrier_logged",
            "barrier_filtered",
            "barrier_coalesced",
            "pending",
            "dirtied",
        ):
            assert key in args
        assert args["pending"] >= 2
