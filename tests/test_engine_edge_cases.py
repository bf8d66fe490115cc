"""Engine edge cases: result types, empty structures, deep recursion,
tuple returns, write-log hygiene, graph reuse limits."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import (
    DittoEngine,
    TrackedArray,
    TrackedObject,
    check,
    tracking_state,
)
from repro.bench.runner import run_with_big_stack


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
        caller's limit back."""

        @check
        def deep_count(e):
            if e is None:
                return 0
            return 1 + deep_count(e.next)

        depth = 1200
        deep_head = None
        for _ in range(depth):
            deep_head = Elem(0, deep_head)
        short_head = Elem(0, Elem(0))
        a_inside = threading.Event()
        b_deep = threading.Event()
        a_returned = threading.Event()

        def hold_a(engine):
            if not a_inside.is_set():
                a_inside.set()
                assert b_deep.wait(10)

        def hold_b(engine):
            if engine.steps >= depth - 100 and not b_deep.is_set():
                b_deep.set()
                assert a_returned.wait(10)

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
            engine_a = engine_factory(
                deep_count, recursion_limit=20_000, step_hook=hold_a,
                step_hook_interval=1,
            )
            engine_b = engine_factory(
                deep_count, recursion_limit=20_000, step_hook=hold_b,
                step_hook_interval=1,
            )
            threads = [threading.Thread(target=run_a),
                       threading.Thread(target=run_b)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert results == {"a": 2, "b": depth}
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(saved)


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
