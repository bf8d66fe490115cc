"""Multiple engines and invariants coexisting (paper §4: "The
implementation of DITTO supports multiple invariants per class
instantiation, multiple class instantiations per class, and multiple
classes")."""

from __future__ import annotations

from repro import TrackedObject, check, tracking_state


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def multi_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return multi_ordered(e.next)


@check
def multi_all_positive(e):
    if e is None:
        return True
    if e.value <= 0:
        return False
    return multi_all_positive(e.next)


@check
def multi_length(e):
    if e is None:
        return 0
    return 1 + multi_length(e.next)


def build_list(values):
    head = None
    for v in reversed(values):
        head = Elem(v, head)
    return head


class TestMultipleInvariantsOneStructure:
    def test_two_invariants_track_independently(self, engine_factory):
        head = build_list([1, 2, 3])
        ordered = engine_factory(multi_ordered)
        positive = engine_factory(multi_all_positive)
        assert ordered.run(head) is True
        assert positive.run(head) is True
        head.next.value = -5  # breaks both
        assert ordered.run(head) is False
        assert positive.run(head) is False
        head.next.value = 10  # breaks ordering only
        assert ordered.run(head) is False
        assert positive.run(head) is True

    def test_each_engine_sees_every_write_once(self, engine_factory):
        head = build_list([1, 2, 3])
        a = engine_factory(multi_ordered)
        b = engine_factory(multi_ordered)
        a.run(head)
        b.run(head)
        head.value = 0
        ra = a.run_with_report(head)
        rb = b.run_with_report(head)
        assert ra.delta["dirty_execs"] == rb.delta["dirty_execs"] == 1

    def test_lagging_engine_catches_up(self, engine_factory):
        """An engine that skips several checks still sees the union of all
        mutations at its next run."""
        head = build_list([1, 2, 3, 4])
        eager = engine_factory(multi_ordered)
        lazy = engine_factory(multi_ordered)
        eager.run(head)
        lazy.run(head)
        head.value = 0
        eager.run(head)
        head.next.value = 0
        eager.run(head)
        report = lazy.run_with_report(head)
        # Both mutated invocations re-ran (the deeper one inline, while the
        # shallower dirty node executed).
        assert report.delta["execs"] >= 2
        assert report.result is True  # 0, 0, 3, 4 is still ordered

    def test_refcounts_sum_across_engines(self, engine_factory):
        head = build_list([1, 2])
        a = engine_factory(multi_ordered)
        b = engine_factory(multi_all_positive)
        a.run(head)
        count_after_one = head._ditto.refcount
        b.run(head)
        assert head._ditto.refcount > count_after_one
        a.close()
        assert head._ditto.refcount > 0
        b.close()
        assert head._ditto.refcount == 0


class TestMultipleStructures:
    def test_one_engine_many_structures_sequentially(self, engine_factory):
        engine = engine_factory(multi_length)
        lists = [build_list(range(n)) for n in (3, 5, 7)]
        for expected, head in zip((3, 5, 7), lists):
            assert engine.run(head) == expected

    def test_two_engines_two_structures_independent(self, engine_factory):
        a_head = build_list([1, 2, 3])
        b_head = build_list([9, 8])
        a = engine_factory(multi_ordered)
        b = engine_factory(multi_ordered)
        assert a.run(a_head) is True
        assert b.run(b_head) is False
        # Mutating b's structure leaves a's cached graph untouched.
        b_head.value = 0
        report = a.run_with_report(a_head)
        assert report.delta["execs"] == 0
        assert b.run(b_head) is True

    def test_monitored_fields_union(self, engine_factory):
        engine_factory(multi_ordered)
        engine_factory(multi_length)
        state = tracking_state()
        assert state.is_monitored("value")
        assert state.is_monitored("next")


class TestSharedSubstructure:
    def test_two_lists_sharing_a_tail(self, engine_factory):
        tail = build_list([10, 20])
        a_head = Elem(1, tail)
        b_head = Elem(2, tail)
        a = engine_factory(multi_ordered)
        b = engine_factory(multi_ordered)
        assert a.run(a_head) is True
        assert b.run(b_head) is True
        tail.value = 0  # breaks both lists through the shared suffix
        assert a.run(a_head) is False
        assert b.run(b_head) is False

    def test_shared_tail_within_one_engine(self, engine_factory):
        """Two roots checked alternately share memo entries for the common
        suffix only while re-anchoring allows; mutation of the suffix is
        seen whichever root runs next."""
        tail = build_list([5, 6, 7])
        a_head = Elem(1, tail)
        engine = engine_factory(multi_ordered)
        assert engine.run(a_head) is True
        tail.next.value = 0
        assert engine.run(a_head) is False
