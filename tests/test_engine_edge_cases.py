"""Engine edge cases: result types, empty structures, deep recursion,
tuple returns, write-log hygiene, graph reuse limits."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import (
    DittoEngine,
    EngineBusyError,
    TrackedArray,
    TrackedObject,
    check,
    register_pure_helper,
    tracking_state,
)
from repro.bench.runner import run_with_big_stack
from repro.obs import RingBufferSink, enable_profiling, enable_provenance
from repro.structures.ordered_list import IntListElem, is_ordered


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


class TestResultTypes:
    def test_tuple_of_primitives_allowed(self, engine_factory):
        @check
        def min_max(e):
            if e is None:
                return (0, 0)
            rest = min_max(e.next)
            lo = e.value
            hi = e.value
            if e.next is not None:
                r0 = rest[0]
                r1 = rest[1]
                if r0 < lo:
                    lo = r0
                if r1 > hi:
                    hi = r1
            return (lo, hi)

        engine = engine_factory(min_max)
        head = Elem(3, Elem(1, Elem(7)))
        assert engine.run(head) == (1, 7)
        head.next.value = -2
        assert engine.run(head) == (-2, 7)

    def test_string_results(self, engine_factory):
        @check
        def first_word(e):
            if e is None:
                return ""
            return e.value

        engine = engine_factory(first_word)
        assert engine.run(Elem("hi")) == "hi"

    def test_none_result_allowed(self, engine_factory):
        @check
        def nothing(e):
            return None

        engine = engine_factory(nothing)
        assert engine.run(Elem(1)) is None

    def test_float_result(self, engine_factory):
        @check
        def ratio(e):
            if e is None:
                return 0.0
            return e.value / 2

        engine = engine_factory(ratio)
        assert engine.run(Elem(5)) == 2.5


class TestDeepStructures:
    def test_thousand_element_list(self, engine_factory):
        @check
        def deep_count(e):
            if e is None:
                return 0
            return 1 + deep_count(e.next)

        def build_and_run():
            head = None
            for _ in range(5000):
                head = Elem(0, head)
            engine = DittoEngine(deep_count)
            try:
                assert engine.run(head) == 5000
                head.next = None
                assert engine.run(head) == 1
            finally:
                engine.close()
            return True

        assert run_with_big_stack(build_and_run) is True

    def test_run_with_big_stack_propagates_errors(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError):
            run_with_big_stack(boom)

    def test_run_with_big_stack_returns_value(self):
        assert run_with_big_stack(lambda: 42) == 42


class TestRecursionLimitScope:
    def test_caller_limit_restored_after_return_and_raise(
        self, engine_factory
    ):
        """A run raises the interpreter recursion limit for itself only:
        the caller's limit is back after run() returns and after it
        raises."""

        @check
        def sum_of_quotients(e):
            if e is None:
                return 0
            return 12 // e.value + sum_of_quotients(e.next)

        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1500)
        try:
            engine = engine_factory(sum_of_quotients, recursion_limit=20_000)
            head = Elem(1, Elem(2, Elem(3)))
            assert engine.run(head) == 22
            assert sys.getrecursionlimit() == 1500
            head.next.value = 0
            with pytest.raises(ZeroDivisionError):
                engine.run(head)
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(saved)

    def test_run_that_returns_keeps_the_limit_for_a_deeper_run(
        self, engine_factory
    ):
        """The limit is process-wide.  Run A raises it first; run B, on
        another thread, starts under A's raised limit and is still on its
        way down a list deeper than the caller's limit allows when A
        returns.  Both runs succeed, and only the last run out puts the
        caller's limit back.  A pure helper the check calls at every
        element parks each run at the right moment."""
        depth = 1200
        a_inside = threading.Event()
        b_deep = threading.Event()
        a_returned = threading.Event()

        @register_pure_helper
        def hold(position):
            # A parks on its first element until B is deep; B parks near
            # the bottom of its list until A has returned.
            name = threading.current_thread().name
            if name == "run-a" and not a_inside.is_set():
                a_inside.set()
                assert b_deep.wait(10)
            elif (
                name == "run-b"
                and position >= depth - 100
                and not b_deep.is_set()
            ):
                b_deep.set()
                assert a_returned.wait(10)
            return 1

        @check
        def deep_count(e):
            if e is None:
                return 0
            return hold(e.value) + deep_count(e.next)

        deep_head = None
        for position in reversed(range(depth)):
            deep_head = Elem(position, deep_head)
        short_head = Elem(0, Elem(1))
        results = {}

        def run_a():
            try:
                results["a"] = engine_a.run(short_head)
            except BaseException as exc:
                results["a"] = exc
            finally:
                a_inside.set()
                a_returned.set()

        def run_b():
            a_inside.wait(10)
            try:
                results["b"] = engine_b.run(deep_head)
            except BaseException as exc:
                results["b"] = exc
            finally:
                b_deep.set()

        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1500)
        try:
            # The list is too deep for the caller's limit on its own.
            with pytest.raises(RecursionError):
                engine_factory(deep_count).run(deep_head)
            engine_a = engine_factory(deep_count, recursion_limit=20_000)
            engine_b = engine_factory(deep_count, recursion_limit=20_000)
            threads = [threading.Thread(target=run_a, name="run-a"),
                       threading.Thread(target=run_b, name="run-b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert results == {"a": 2, "b": depth}
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(saved)


class TestBusyGuard:
    """``run()`` is single-threaded by contract: a run started while
    another is live on the same engine fails fast with
    ``EngineBusyError`` and leaves the live run unharmed.  A pure helper
    the check calls lets each test act from inside a running check."""

    def test_check_inside_a_running_check_raises_engine_busy(
        self, engine_factory
    ):
        caught = []

        @register_pure_helper
        def reenter(value):
            if not caught:
                try:
                    engine.run(head)
                except EngineBusyError as exc:
                    caught.append(exc)
            return value

        @check
        def reentrant_ordered(e):
            if e is None or e.next is None:
                return True
            if reenter(e.value) > e.next.value:
                return False
            return reentrant_ordered(e.next)

        head = Elem(1, Elem(2, Elem(3)))
        engine = engine_factory(reentrant_ordered)
        assert engine.run(head) is True
        assert len(caught) == 1, (
            "the nested run must fail fast with EngineBusyError"
        )
        head.next.value = 5  # the outer run was unharmed: repair works
        assert engine.run(head) is reentrant_ordered(head) is False

    def test_concurrent_runs_on_one_engine_fail_fast_not_corrupt(
        self, engine_factory
    ):
        started, release = threading.Event(), threading.Event()

        @register_pure_helper
        def wedge(value):
            if threading.current_thread().name == "first-run":
                started.set()
                assert release.wait(5)
            return value

        @check
        def wedged_ordered(e):
            if e is None or e.next is None:
                return True
            if wedge(e.value) > e.next.value:
                return False
            return wedged_ordered(e.next)

        head = Elem(1, Elem(2, Elem(3)))
        engine = engine_factory(wedged_ordered)
        outcome = []
        first = threading.Thread(
            target=lambda: outcome.append(engine.run(head)),
            name="first-run",
        )
        first.start()
        assert started.wait(5), "first run never reached its helper"
        with pytest.raises(EngineBusyError):
            engine.run(head)
        release.set()
        first.join(5)
        assert not first.is_alive()
        assert outcome == [True]
        assert engine.run(head) is True


def _chain(length):
    head = None
    for value in range(length, 0, -1):
        head = IntListElem(value, head)
    return head


def _checks(engine, head):
    try:
        return engine.run(head) is True
    except RecursionError:
        return False


def _longest_scratch_list(engine_factory):
    """Bisect, at the current recursion limit, the longest list the
    unarmed scratch engine checks."""
    scratch = engine_factory(is_ordered, mode="scratch", trace_sink=None)
    lo, hi = 1, 1000
    assert _checks(scratch, _chain(lo))
    assert not _checks(scratch, _chain(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _checks(scratch, _chain(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _assert_depth_parity(engine_factory, arm=lambda engine: None):
    """At limit 1000, ditto and naive engines (each armed by ``arm``)
    check the longest list scratch checks."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        head = _chain(_longest_scratch_list(engine_factory))
        for mode in ("ditto", "naive"):
            engine = engine_factory(is_ordered, mode=mode)
            arm(engine)
            assert _checks(engine, head), mode
    finally:
        sys.setrecursionlimit(saved)


#: One of each observer kind, armed on an engine.
ARMERS = {
    "ring": lambda engine: engine.attach(RingBufferSink()),
    "provenance": enable_provenance,
    "profiling": enable_profiling,
}


class TestDepthParity:
    def test_engines_check_the_longest_list_scratch_checks(
        self, engine_factory
    ):
        """At the caller's recursion limit, the ditto and naive engines
        check the longest list the uninstrumented check handles from
        scratch: the compiled closures spend fewer recursion counts per
        element than the ``@check`` call path.  (Under
        ``--trace-sink=ring`` both engines carry a sink.)"""
        _assert_depth_parity(engine_factory)

    @pytest.mark.parametrize("armer", sorted(ARMERS))
    def test_armed_engines_check_the_longest_list_scratch_checks(
        self, engine_factory, armer
    ):
        """An armed observer leaves the node path as it is: fresh nodes
        are still built inline, so an armed engine reaches the same
        depth as scratch."""
        _assert_depth_parity(engine_factory, ARMERS[armer])


class TestWriteLogHygiene:
    def test_log_stays_bounded_under_churn(self, engine_factory):
        @check
        def watched(e):
            if e is None:
                return True
            return watched(e.next)

        engine = engine_factory(watched)
        head = Elem(1, Elem(2))
        engine.run(head)
        for i in range(500):
            head.next = head.next  # monitored store every iteration
            engine.run(head)
        # Consumed on every run: the global log must not accumulate.
        assert len(tracking_state().write_log) <= 2

    def test_unconsumed_writes_deduplicated(self, engine_factory):
        @check
        def watcher(e):
            if e is None:
                return True
            return watcher(e.next)

        engine = engine_factory(watcher)
        head = Elem(1)
        engine.run(head)
        for _ in range(100):
            head.next = None  # same location, engine never runs
        assert len(tracking_state().write_log) == 1
        assert engine.run(head) is True


class TestArgumentVariety:
    def test_multi_arg_checks(self, engine_factory):
        @check
        def bounded(e, lo, hi):
            if e is None:
                return True
            if e.value < lo or e.value > hi:
                return False
            return bounded(e.next, lo, hi)

        engine = engine_factory(bounded)
        head = Elem(5, Elem(7))
        assert engine.run(head, 0, 10) is True
        assert engine.run(head, 6, 10) is False
        assert engine.run(head, 0, 10) is True  # re-anchor back

    def test_distinct_bounds_distinct_nodes(self, engine_factory):
        @check
        def spans(e, lo, hi):
            if e is None:
                return True
            ok = lo <= e.value
            b = spans(e.next, lo, hi)
            return ok and b

        engine = engine_factory(spans)
        head = Elem(5, Elem(7))
        engine.run(head, 0, 10)
        first = engine.graph_size
        engine.run(head, 1, 10)
        # Different explicit bounds: a parallel chain of invocations was
        # built, then the old chain was pruned after re-anchoring.
        assert engine.graph_size == first

    def test_zero_arg_check_rejected_gracefully(self, engine_factory):
        @check
        def constant():
            return True

        engine = engine_factory(constant)
        assert engine.run() is True
        assert engine.run() is True


class TestTrackedArrayChecks:
    def test_array_growth_via_replacement(self, engine_factory):
        class Holder(TrackedObject):
            def __init__(self, n):
                self.items = TrackedArray(n, fill=0)

        @check
        def all_zero(h, i):
            a = h.items
            if i >= len(a):
                return True
            ok = a[i] == 0
            b = all_zero(h, i + 1)
            return ok and b

        engine = engine_factory(all_zero)
        holder = Holder(4)
        assert engine.run(holder, 0) is True
        bigger = TrackedArray(8, fill=0)
        holder.items = bigger  # single field write replaces the array
        assert engine.run(holder, 0) is True
        bigger[5] = 1
        assert engine.run(holder, 0) is False
