"""Per-engine isolation domains: the PR-4 barrier snapshots, unshared.

Regression suite for the cross-wiring bug: ``core/tracked.py`` used to
snapshot the monitored-field frozenset and the bound ``write_log.append``
into *module globals*, so the second engine registered in a process
re-pointed the hot path for every already-tracked structure — and a
fault hook armed against one engine's write log intercepted every other
engine's barriers too.  Each test here failed (or silently cross-wired)
before the per-:class:`TrackingState` scoping.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import (
    DittoEngine,
    FaultPlan,
    TrackedList,
    TrackedObject,
    check,
    inject_faults,
)
from repro.apps.jso import JList, JsObfuscator, generate_program, jso_invariant
from repro.core.errors import TenantIsolationError
from repro.core.tracked import TrackingState, adopt_container

pytestmark = pytest.mark.serving


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


def two_isolated_engines():
    a = DittoEngine(iso_ordered, tracking=TrackingState())
    b = DittoEngine(iso_ordered, tracking=TrackingState())
    return a, b


def test_two_live_engines_log_to_their_own_domains():
    """A barrier fired under tenant A must land in A's log only.

    Before the fix the module-global ``_log_append`` snapshot pointed at
    whichever state registered last, so A's mutations landed in B's log
    (and A's engine went silently stale)."""
    ea, eb = two_isolated_engines()
    try:
        head_a = build(1, 2, 3)
        head_b = build(4, 5, 6)
        assert ea.run(head_a) is True
        assert eb.run(head_b) is True  # second registration: the trigger

        head_a.next.value = 0  # monitored write under tenant A
        assert ea.tracking.write_log.peek(ea._log_cid), (
            "tenant A's own write log must see tenant A's barrier"
        )
        assert not eb.tracking.write_log.peek(eb._log_cid), (
            "tenant B's write log must not see tenant A's barrier"
        )
        # And the repair happens on the right engine.
        assert ea.run(head_a) is False
        assert eb.run(head_b) is True
    finally:
        ea.close()
        eb.close()


def test_fault_hook_armed_on_one_engine_cannot_drop_anothers_barriers():
    """A FaultPlan against tenant A must be unobservable by tenant B.

    Before the fix ``WriteLog.fault_hook`` lived on the single global
    log: arming drop_writes for A dropped B's barriers too, making B
    serve a stale (wrong) answer with no fault of its own."""
    ea, eb = two_isolated_engines()
    try:
        head_a = build(1, 2, 3)
        head_b = build(4, 5, 6)
        assert ea.run(head_a) is True
        assert eb.run(head_b) is True

        with inject_faults(ea, FaultPlan(drop_writes=10)) as injector:
            head_a.next.value = 0  # dropped: A goes stale (by design)
            head_b.next.value = 0  # must NOT be dropped
            assert eb.run(head_b) is False, (
                "tenant B must see its own mutation despite A's fault plan"
            )
            assert ea.run(head_a) is True, (
                "sanity: the fault did bite tenant A (stale answer)"
            )
        assert injector.writes_dropped >= 1
        assert eb.tracking.write_log.fault_hook is None
    finally:
        ea.close()
        eb.close()


def test_monitored_fields_are_scoped_per_state():
    """Monitoring fields for one domain must not enable logging in
    another domain that never registered them."""
    state_a = TrackingState()
    state_b = TrackingState()
    state_a.monitor_fields(["value", "next"])
    assert "value" in state_a.monitored
    assert "value" not in state_b.monitored
    state_a.unmonitor_fields(["value", "next"])
    assert "value" not in state_a.monitored


def test_adoption_conflict_raises_tenant_isolation_error():
    """One live structure read by engines in two different domains is an
    isolation breach and must be refused loudly."""
    ea, eb = two_isolated_engines()
    try:
        head = build(1, 2, 3)
        assert ea.run(head) is True  # A adopts the nodes
        with pytest.raises(TenantIsolationError):
            eb.run(head)
    finally:
        ea.close()
        eb.close()


def test_released_structure_can_be_readopted():
    """Adoption is about *live* references: once the owning engine closes
    (releasing its refcounts), another domain may adopt the structure."""
    ea, eb = two_isolated_engines()
    head = build(1, 2, 3)
    try:
        assert ea.run(head) is True
    finally:
        ea.close()  # releases every reference into the nodes
    try:
        assert eb.run(head) is True
    finally:
        eb.close()


def test_engines_sharing_one_state_share_structures_freely():
    """Engines bound to the *same* domain (the pre-pool idiom, and the
    QA oracle's scratch/ditto/naive trio) still share structures."""
    state = TrackingState()
    ea = DittoEngine(iso_ordered, tracking=state)
    eb = DittoEngine(iso_ordered, tracking=state)
    try:
        head = build(1, 2, 3)
        assert ea.run(head) is True
        assert eb.run(head) is True
        head.next.value = 0
        assert ea.run(head) is False
        assert eb.run(head) is False
    finally:
        ea.close()
        eb.close()


def test_adopt_container_is_idempotent_and_duck_typed():
    state = TrackingState()
    node = Node(1)
    adopt_container(node, state)
    adopt_container(node, state)  # idempotent
    assert node._ditto.state is state
    adopt_container(object(), state)  # non-tracked: silently ignored


# Copies of checked structures. -------------------------------------------------
#
# The header is per-container engine state: a copy, deep copy or unpickled
# object is a new container, unreferenced and unowned, and must not share
# or clone the original's counts, interned locations or owning domain.

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
    assert (header.refcount, header.locrefs, header.state) == (0, 0, None)
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
