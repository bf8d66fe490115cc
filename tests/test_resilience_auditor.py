"""GraphAuditor: a clean graph passes; every corruption class is caught.

The auditor is the resilience layer's first line of defence: it re-derives
the computation graph's representation invariants (memo keys, reverse map,
edges, order records, reference counts, propagation post-conditions) and
reports violations instead of asserting.  These tests corrupt each
dimension deliberately and assert the matching rule fires — detection is
proved, not assumed.

Run with ``--engine-mode=naive`` to exercise the same matrix under the
Figure 6 naive incrementalizer (CI does both).

A node's ``callers`` is ``None``, the bare sole caller, or a
``{caller: multiplicity}`` dict once a second edge arrives, so the
``callers`` corruptions run once on an unshared node (the bare caller) and
once on a node with two distinct callers (the dict form).
"""

from __future__ import annotations

import pytest

from repro import ArgsKey, GraphAuditError, TrackedObject, check
from repro.core.locations import FieldLocation
from repro.core.node import ComputationNode
from repro.resilience import GraphAuditor

pytestmark = pytest.mark.resilience

#: ``shared``: corrupt a node with two distinct callers (the dict form).
FORMS = (False, True)


class Elem(TrackedObject):
    def __init__(self, value, next=None, alt=None):
        self.value = value
        self.next = next
        self.alt = alt


@check
def aud_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return aud_ordered(e.next)


@check
def aud_paths(e):
    if e is None:
        return 0
    return e.value + aud_paths(e.next) + aud_paths(e.alt)


def build(*values):
    head = None
    for v in reversed(values):
        head = Elem(v, head)
    return head


@pytest.fixture
def warm_engine(engine_factory, engine_mode):
    """An engine with a five-node graph that has been run incrementally."""
    engine = engine_factory(aud_ordered, mode=engine_mode)
    head = build(1, 2, 3, 4, 5, 6)
    assert engine.run(head) is True
    head.next.value = 2  # benign mutation: exercises the repair machinery
    assert engine.run(head) is True
    return engine, head


def _callee(engine_factory, engine_mode, warm_engine, shared):
    """An engine and a non-root node whose ``callers`` holds two distinct
    callers in the dict form (``shared``: a diamond, repaired once) or its
    sole caller, bare (the warm chain)."""
    if shared:
        engine = engine_factory(aud_paths, mode=engine_mode)
        bottom = Elem(1)
        top = Elem(0, Elem(2, bottom), Elem(3, bottom))
        assert engine.run(top) == 7
        bottom.value = 4  # re-executes bottom, then both of its callers
        assert engine.run(top) == 13
        node = next(n for n in engine.table if n.caller_count() == 2)
        assert type(node.callers) is dict and len(node.callers) == 2
    else:
        engine, _ = warm_engine
        node = next(
            n for n in engine.table
            if isinstance(n.callers, ComputationNode)
            and n.callers is not engine._anchor
        )
    return engine, node


class TestCleanGraph:
    def test_clean_graph_audits_ok(self, warm_engine):
        engine, _ = warm_engine
        report = engine.audit()
        assert report.ok
        assert report.nodes_audited == engine.graph_size
        assert set(report.rules_run) == {
            "table-keys",
            "reverse-map",
            "edges",
            "node-state",
            "order",
            "scheduling",
            "refcounts",
        }

    def test_empty_graph_audits_ok(self, engine_factory, engine_mode):
        engine = engine_factory(aud_ordered, mode=engine_mode)
        report = engine.audit()
        assert report.ok
        assert report.nodes_audited == 0

    def test_audit_counted_in_stats(self, warm_engine):
        engine, _ = warm_engine
        engine.audit()
        engine.audit()
        assert engine.stats.audits == 2
        assert engine.stats.audit_failures == 0

    def test_audit_ok_after_every_soak_step(self, engine_factory,
                                            engine_mode):
        """The audit must never false-positive across a realistic mutation
        sequence (inserts, updates, deletions, retargets)."""
        engine = engine_factory(aud_ordered, mode=engine_mode)
        head = build(1, 3, 5, 7, 9)
        assert engine.run(head) is True
        mutations = [
            lambda: setattr(head.next, "value", 4),
            lambda: setattr(head, "next", Elem(2, head.next)),
            lambda: setattr(head.next, "next", head.next.next.next),
            lambda: setattr(head, "value", 0),
            lambda: setattr(head.next.next, "value", 100),
        ]
        for mutate in mutations:
            mutate()
            engine.run(head)
            assert engine.audit().ok


def _a_node_with_implicits(engine):
    for node in engine.table:
        if node.implicits:
            return node
    raise AssertionError("no node with implicit arguments")


class TestCorruptionDetection:
    """Each deliberately corrupted invariant produces a finding under the
    matching rule (and ``engine.audit()`` raises by default)."""

    def test_table_key_mismatch(self, warm_engine):
        engine, _ = warm_engine
        node = next(iter(engine.table))
        engine.table._entries[
            (node.func.uid, ArgsKey(("bogus",))._parts)
        ] = node
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("table-keys")

    def test_reverse_map_missing_entry(self, warm_engine):
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        location = next(iter(node.implicits))
        engine.table._reverse[location].discard(node)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("reverse-map")

    def test_reverse_map_phantom_dependent(self, warm_engine):
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        location = next(iter(node.implicits))
        other = next(n for n in engine.table if location not in n.implicits)
        engine.table._reverse[location].add(other)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("reverse-map")

    def test_edge_multiplicity_mismatch(self, warm_engine):
        engine, _ = warm_engine
        node = next(n for n in engine.table if n.calls)
        node.calls.append(node.calls[0])  # phantom call edge
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("edges")

    def test_zero_multiplicity_from_non_caller(
        self, engine_factory, engine_mode, warm_engine
    ):
        """A ``callers`` entry of 0 for a node that never calls the callee
        agrees with the (absent) ``calls`` edge, so only the >= 1 rule can
        see it; left in place it would pin a dead node forever, since an
        empty ``callers`` map is the engine's orphan test."""
        for shared in FORMS:
            engine, callee = _callee(
                engine_factory, engine_mode, warm_engine, shared
            )
            stranger = next(
                n for n in engine.table
                if n is not callee and callee not in n.calls
            )
            if shared:
                callee.callers[stranger] = 0
            else:
                callee.callers = {callee.callers: 1, stranger: 0}
            report = engine.audit(raise_on_failure=False)
            assert report.by_rule("edges")
            assert "multiplicity 0" in str(report.by_rule("edges")[0])

    def test_dirty_node_left_behind(self, warm_engine):
        engine, _ = warm_engine
        next(iter(engine.table)).dirty = True
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("node-state")

    def test_dead_order_record(self, warm_engine):
        engine, _ = warm_engine
        node = next(iter(engine.table))
        engine.order.delete(node)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("order")

    def test_stale_caller_ticks(
        self, engine_factory, engine_mode, warm_engine
    ):
        for shared in FORMS:
            engine, node = _callee(
                engine_factory, engine_mode, warm_engine, shared
            )
            node.value_tick = 10**9  # "value changed after every caller ran"
            report = engine.audit(raise_on_failure=False)
            assert report.by_rule("scheduling")

    def test_undercounted_refcount(self, warm_engine):
        engine, _ = warm_engine
        node = _a_node_with_implicits(engine)
        container = next(iter(node.implicits)).container
        container._ditto.refcount = 0
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("refcounts")

    def test_undercounted_location_refcount(self, engine_factory,
                                            engine_mode):
        """One live location's count at 0 while the container counts stay
        equal: the per-location barrier filter would skip stores to it
        (``third.value = -5`` would go unseen and the engine would keep
        answering True)."""
        engine = engine_factory(aud_ordered, mode=engine_mode)
        head = build(*range(10))
        assert engine.run(head) is True
        third = head.next.next
        location = third._ditto_location("value")
        assert location.refcount > 0
        location.refcount = 0
        report = engine.audit(raise_on_failure=False)
        findings = report.by_rule("refcounts")
        assert findings
        assert "'value'" in str(findings[0])

    def test_implicit_not_the_interned_location(self, warm_engine):
        """One node's implicit argument and its reverse-map key swapped for
        a twin of the interned location, count copied: the two maps still
        mirror each other and every count still covers the graph, but the
        barrier logs the interned instance, which no longer finds the
        node, so the node would never be dirtied."""
        engine, _ = warm_engine
        table = engine.table
        location, node = next(
            (loc, next(iter(readers)))
            for loc, readers in table.reverse_items()
            if len(readers) == 1
        )
        assert type(location) is FieldLocation
        twin = object.__new__(FieldLocation)
        for name in ("container", "field", "refcount"):
            setattr(twin, name, getattr(location, name))
        node.implicits.remove(location)
        node.implicits.add(twin)
        table._reverse[twin] = table._reverse.pop(location)
        report = engine.audit(raise_on_failure=False)
        assert report.by_rule("reverse-map")
        assert {finding.rule for finding in report.findings} == {
            "reverse-map"
        }

    def test_audit_raises_by_default(self, warm_engine):
        engine, _ = warm_engine
        next(iter(engine.table)).dirty = True
        with pytest.raises(GraphAuditError) as exc_info:
            engine.audit()
        assert exc_info.value.report.by_rule("node-state")
        assert engine.stats.audit_failures == 1

    def test_findings_capped_per_rule(self, engine_factory, engine_mode):
        engine = engine_factory(aud_ordered, mode=engine_mode)
        head = build(*range(100))
        engine.run(head)
        for node in engine.table:
            node.dirty = True
        report = engine.audit(raise_on_failure=False)
        per_rule = report.by_rule("node-state")
        assert len(per_rule) <= GraphAuditor.MAX_FINDINGS_PER_RULE + 1
        assert "truncated" in str(per_rule[-1])


class TestParanoiaMode:
    def test_paranoia_audits_every_nth_run(self, engine_factory,
                                           engine_mode):
        engine = engine_factory(aud_ordered, mode=engine_mode, paranoia=2)
        head = build(1, 2, 3)
        for i in range(6):
            head.value = -i  # stays ordered
            engine.run(head)
        assert engine.stats.audits == 3
        assert engine.stats.verify_checks == 3
        assert engine.stats.audit_failures == 0
        assert engine.stats.verify_mismatches == 0

    def test_paranoia_disabled_by_default(self, warm_engine):
        engine, _ = warm_engine
        assert engine.stats.audits == 0
        assert engine.stats.verify_checks == 0

    def test_paranoia_rejects_negative(self, engine_factory):
        with pytest.raises(ValueError):
            engine_factory(aud_ordered, paranoia=-1)

    def test_paranoia_raises_without_policy(self, engine_factory,
                                            engine_mode):
        """Paranoia without a DegradationPolicy escalates instead of
        degrading: a corrupted graph raises GraphAuditError."""
        engine = engine_factory(aud_ordered, mode=engine_mode, paranoia=1)
        head = build(1, 2, 3)
        engine.run(head)
        # Corrupt the deepest node's value tick: neither mode re-executes
        # it for a head-value mutation, so the corruption survives the run
        # and the post-run audit must catch it.
        deepest = max(engine.table, key=lambda n: n.depth)
        deepest.value_tick = 10**9
        head.value = 0
        with pytest.raises(GraphAuditError):
            engine.run(head)
