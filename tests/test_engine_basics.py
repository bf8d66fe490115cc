"""DittoEngine fundamentals: construction, first run, reuse, stats, modes,
lifecycle, error handling."""

from __future__ import annotations

import pytest

from repro import (
    CheckRestrictionError,
    CyclicCheckError,
    DittoEngine,
    EngineStateError,
    ResultTypeError,
    TrackedObject,
    check,
    tracking_state,
)


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def is_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return is_ordered(e.next)


def build_list(values):
    head = None
    for v in reversed(values):
        head = Elem(v, head)
    return head


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            DittoEngine(is_ordered, mode="turbo")

    def test_validates_restrictions_up_front(self):
        @check
        def bad(n):
            if n is None:
                return True
            return bad(n.left) and bad(n.right)

        with pytest.raises(CheckRestrictionError):
            DittoEngine(bad)

    def test_monitors_fields_globally(self, engine_factory):
        engine = engine_factory(is_ordered)
        assert tracking_state().is_monitored("next")
        assert tracking_state().is_monitored("value")
        engine.close()
        assert not tracking_state().is_monitored("next")

    def test_accepts_plain_function(self, engine_factory):
        def raw(e):
            return e is None

        engine = engine_factory(check(raw))
        assert engine.run(None) is True


class TestFirstRun:
    def test_builds_graph(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list([1, 2, 3, 4])
        report = engine.run_with_report(head)
        assert report.result is True
        assert report.incremental is False
        assert report.graph_size == 4
        assert report.delta["execs"] == 4
        assert report.delta["full_runs"] == 1

    def test_failure_result(self, engine_factory):
        engine = engine_factory(is_ordered)
        assert engine.run(build_list([3, 1])) is False

    def test_empty_input_leaf(self, engine_factory):
        engine = engine_factory(is_ordered)
        assert engine.run(None) is True


class TestIncrementalRuns:
    def test_no_change_runs_nothing(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list(range(20))
        engine.run(head)
        report = engine.run_with_report(head)
        assert report.result is True
        assert report.incremental is True
        assert report.delta["execs"] == 0
        assert report.delta["dirty_marked"] == 0

    def test_single_insert_constant_work(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list(range(0, 100, 2))
        engine.run(head)
        # Insert 51 after element 50: exactly one implicit input changes.
        e = head
        while e.value != 50:
            e = e.next
        e.next = Elem(51, e.next)
        report = engine.run_with_report(head)
        assert report.result is True
        assert report.delta["dirty_execs"] == 1
        assert report.delta["execs"] == 2  # predecessor + the new element
        assert report.delta["nodes_created"] == 1

    def test_unrelated_write_ignored(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list([1, 2, 3])
        engine.run(head)
        other = Elem(99)  # tracked, but not part of the computation
        other.value = 100
        report = engine.run_with_report(head)
        assert report.delta["execs"] == 0

    def test_same_value_store_still_dirty(self, engine_factory):
        # Barriers fire on stores, not value changes (paper semantics).
        engine = engine_factory(is_ordered)
        head = build_list([1, 2, 3])
        engine.run(head)
        head.value = 1
        report = engine.run_with_report(head)
        assert report.delta["dirty_execs"] == 1
        assert report.result is True


class TestModes:
    def test_scratch_mode_runs_original(self, engine_factory):
        engine = engine_factory(is_ordered, mode="scratch")
        head = build_list([1, 2])
        assert engine.run(head) is True
        assert engine.graph_size == 0
        assert engine.stats.full_runs == 1

    def test_naive_mode_equivalent(self, engine_factory):
        engine = engine_factory(is_ordered, mode="naive")
        head = build_list([1, 5, 9, 12])
        assert engine.run(head) is True
        head.next.next.value = 10  # deep change: root replays its callee
        assert engine.run(head) is True
        assert engine.stats.replays > 0
        head.next.next.value = 0
        assert engine.run(head) is False

    def test_all_modes_agree_after_mutations(self, engine_factory):
        engines = {
            m: engine_factory(is_ordered, mode=m)
            for m in ("scratch", "naive", "ditto")
        }
        head = build_list([2, 4, 6, 8])
        for _ in range(2):
            results = {m: e.run(head) for m, e in engines.items()}
            assert len(set(results.values())) == 1
            head.next.next.value = head.next.next.value + 1


class TestLifecycle:
    def test_invalidate_forces_full_run(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list([1, 2, 3])
        engine.run(head)
        engine.invalidate()
        assert engine.graph_size == 0
        report = engine.run_with_report(head)
        assert report.delta["full_runs"] == 1
        assert report.result is True

    def test_close_is_idempotent(self):
        engine = DittoEngine(is_ordered)
        engine.run(build_list([1]))
        engine.close()
        engine.close()
        with pytest.raises(EngineStateError):
            engine.run(None)

    def test_context_manager(self):
        with DittoEngine(is_ordered) as engine:
            assert engine.run(None) is True
        with pytest.raises(EngineStateError):
            engine.run(None)

    def test_close_releases_refcounts(self):
        engine = DittoEngine(is_ordered)
        head = build_list([1, 2, 3])
        engine.run(head)
        assert head._ditto.refcount > 0
        engine.close()
        assert head._ditto.refcount == 0


class TestErrorCases:
    def test_cyclic_structure_detected(self, engine_factory):
        engine = engine_factory(is_ordered)
        a = Elem(1)
        b = Elem(1, a)
        a.next = b  # cycle, same values so the order test never fails
        with pytest.raises(CyclicCheckError):
            engine.run(a)

    def test_non_primitive_result_rejected(self, engine_factory):
        @check
        def returns_node(e):
            return e

        engine = engine_factory(returns_node)
        with pytest.raises(ResultTypeError):
            engine.run(Elem(1))

    def test_exception_in_first_run_propagates(self, engine_factory):
        @check
        def divides(e):
            return 1 // e.value == 1

        engine = engine_factory(divides)
        with pytest.raises(ZeroDivisionError):
            engine.run(Elem(0))
        # Graph was invalidated; a corrected input works from scratch.
        assert engine.run(Elem(1)) is True

    def test_graph_snapshot(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list([1, 2])
        engine.run(head)
        snap = engine.graph_snapshot()
        assert snap[("is_ordered", (head,))] is True
        assert len(snap) == 2


class TestRootRetargeting:
    def test_new_head_after_delete_first(self, engine_factory):
        engine = engine_factory(is_ordered)
        head = build_list(range(10))
        engine.run(head)
        size_before = engine.graph_size
        report = engine.run_with_report(head.next)  # "delete first"
        assert report.result is True
        assert report.delta["execs"] == 0  # memoized node re-anchored
        assert engine.graph_size == size_before - 1  # old head pruned

    def test_switch_between_structures(self, engine_factory):
        engine = engine_factory(is_ordered)
        a = build_list([1, 2, 3])
        b = build_list([5, 6])
        assert engine.run(a) is True
        assert engine.run(b) is True
        assert engine.run(a) is True
        # Only a's chain is live after re-anchoring back.
        assert engine.graph_size == 3

    def test_mutations_tracked_across_retarget(self, engine_factory):
        engine = engine_factory(is_ordered)
        a = build_list([1, 2, 3])
        b = build_list([5, 6])
        engine.run(a)
        engine.run(b)
        a.value = 99  # a's nodes were pruned; write must not confuse engine
        assert engine.run(b) is True
        assert engine.run(a) is False

    def test_reentrant_run_rejected(self, engine_factory):
        engine = engine_factory(is_ordered)

        # Simulate re-entrancy via the internal flag.
        engine._running = True
        with pytest.raises(EngineStateError):
            engine.run(None)
        engine._running = False
