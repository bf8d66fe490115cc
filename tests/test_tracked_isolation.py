"""One tracking domain: the ``reset_tracking()`` contract, and copies of
checked structures.

Every barrier logs to the current default :class:`TrackingState`.
``reset_tracking()`` retires it, so an engine built before the reset no
longer sees any write: ``run()`` must refuse with ``EngineStateError``
rather than answer from a stale graph.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import (
    DittoEngine,
    EngineStateError,
    TrackedList,
    TrackedObject,
    check,
    reset_tracking,
    tracking_state,
)
from repro.apps.jso import JList, JsObfuscator, generate_program, jso_invariant


class Node(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def iso_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return iso_ordered(e.next)


def build(*values):
    head = None
    for v in reversed(values):
        head = Node(v, head)
    return head


@pytest.mark.parametrize("mode", ["ditto", "naive"])
def test_engine_built_before_reset_tracking_refuses_to_run(
    engine_factory, mode
):
    engine = engine_factory(iso_ordered, mode=mode)
    head = build(1, 2, 3)
    assert engine.run(head) is True
    reset_tracking()
    # Logged to the fresh state, which the old engine never reads.
    head.next.value = 0
    with pytest.raises(EngineStateError, match="reset_tracking"):
        engine.run(head)
    fresh = engine_factory(iso_ordered, mode=mode)
    assert fresh.run(head) is iso_ordered(head) is False


def test_monitored_fields_are_scoped_per_state():
    """``reset_tracking()`` starts from a clean slate: fields monitored
    in the retired state are not monitored in the fresh one."""
    state_a = tracking_state()
    state_a.monitor_fields(["value", "next"])
    reset_tracking()
    state_b = tracking_state()
    assert "value" in state_a.monitored
    assert "value" not in state_b.monitored
    state_a.unmonitor_fields(["value", "next"])
    assert "value" not in state_a.monitored


@pytest.mark.parametrize(
    "keyword", ["tracking", "step_hook", "step_hook_interval"]
)
def test_removed_engine_keywords_raise_type_error(keyword):
    with pytest.raises(TypeError):
        DittoEngine(iso_ordered, **{keyword: None})


# Copies of checked structures. -------------------------------------------------
#
# The header is per-container engine state: a copy, deep copy or unpickled
# object is a new container, unreferenced, and must not share or clone the
# original's counts or interned locations.

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@check
def positive_from(xs, i):
    if i == len(xs):
        return True
    if xs[i] <= 0:
        return False
    return positive_from(xs, i + 1)


@check
def all_positive(xs):
    return positive_from(xs, 0)


def _assert_fresh_header(original, clone):
    header = clone._ditto
    assert header is not original._ditto
    assert (header.refcount, header.locrefs) == (0, 0)
    assert header.locations == {}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copied_jso_gets_a_fresh_header(engine_factory, how):
    jso = JsObfuscator()
    for chunk in generate_program(12, seed=3):
        jso.feed(chunk)
    engine = engine_factory(jso_invariant)
    assert engine.run(jso) is True
    assert jso._ditto.refcount > 0

    clone = COPIES[how](jso)
    _assert_fresh_header(jso, clone)
    before = engine.tracking.barrier_counters()
    # A monitored store to the copy's own field: the copy is unreferenced,
    # so nothing is logged, least of all the original's location.
    clone.names = JList("Protected", clone.names)
    assert engine.tracking.barrier_counters() == before

    assert engine.run(jso) is jso_invariant(jso) is True
    fresh = engine_factory(jso_invariant)
    assert fresh.run(clone) is jso_invariant(clone) is False


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copied_tracked_list_gets_a_fresh_header(engine_factory, how):
    values = TrackedList([3, 1, 4, 1, 5])
    engine = engine_factory(all_positive)
    assert engine.run(values) is True
    assert values._ditto.refcount > 0

    clone = COPIES[how](values)
    _assert_fresh_header(values, clone)
    before = engine.tracking.barrier_counters()
    clone[1] = -1
    clone.append(9)
    clone.insert(0, 2)
    assert engine.tracking.barrier_counters() == before
    # Even a shallow copy has its own backing list.
    assert list(values) == [3, 1, 4, 1, 5]
    assert list(clone) == [2, 3, -1, 4, 1, 5, 9]

    assert engine.run(values) is all_positive(values) is True
    fresh = engine_factory(all_positive)
    assert fresh.run(clone) is all_positive(clone) is False
