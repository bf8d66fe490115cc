"""Order-maintenance list (Bender et al.): order queries, relabeling, and a
hypothesis model check against a plain Python list."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import DittoEngine, TrackedObject, check
from repro.core import OrderList, Record
from repro.core.order_maintenance import _UNIVERSE


class TestBasics:
    def test_empty(self):
        ol = OrderList()
        assert len(ol) == 0
        assert list(ol) == []

    def test_insert_first_last(self):
        ol = OrderList()
        b = ol.insert_first()
        c = ol.insert_last()
        a = ol.insert_first()
        assert ol.order(a, b) and ol.order(b, c) and ol.order(a, c)
        assert len(ol) == 3

    def test_insert_after_between(self):
        ol = OrderList()
        a = ol.insert_first()
        c = ol.insert_after(a)
        b = ol.insert_after(a)
        assert ol.order(a, b) and ol.order(b, c)

    def test_insert_before(self):
        ol = OrderList()
        b = ol.insert_first()
        a = ol.insert_before(b)
        assert ol.order(a, b)

    def test_delete(self):
        ol = OrderList()
        a = ol.insert_first()
        b = ol.insert_after(a)
        ol.delete(a)
        assert len(ol) == 1
        assert not a.alive
        assert b.alive
        ol.delete(a)  # idempotent
        assert len(ol) == 1

    def test_foreign_record_rejected(self):
        ol1, ol2 = OrderList(), OrderList()
        a = ol1.insert_first()
        with pytest.raises(ValueError):
            ol2.order(a, a)
        with pytest.raises(ValueError):
            ol2.insert_after(a)
        with pytest.raises(ValueError):
            ol2.insert_before(a)

    def test_iteration_follows_order(self):
        ol = OrderList()
        records = [ol.insert_last() for _ in range(10)]
        assert list(ol) == records


class TestLinkLast:
    """Graph nodes are their own records: ``link_last`` links an element
    the caller already owns instead of creating one."""

    def test_links_existing_elements_in_order(self):
        ol = OrderList()
        first = ol.insert_first()
        mine = [Record(0, None) for _ in range(3)]
        for element in mine:
            ol.link_last(element)
        middle = ol.insert_after(mine[0])
        assert list(ol) == [first, mine[0], middle, mine[1], mine[2]]
        assert len(ol) == 5
        assert all(element.owner is ol for element in mine)
        assert ol.audit() == []
        ol.delete(mine[1])
        ol.delete(mine[1])  # idempotent
        assert list(ol) == [first, mine[0], middle, mine[2]]
        ol.clear()
        assert all(element.owner is None and element.next is None
                   for element in mine)


class _Cell(TrackedObject):
    def __init__(self, next=None):
        self.next = next


@check
def _cells(c):
    if c is None:
        return 0
    return 1 + _cells(c.next)


def test_compiled_call_links_fresh_nodes_at_the_universe_end():
    """The compiled call closure links a fresh node inline on the stride
    fast path and falls back to ``link_last`` when the stride would pass
    the universe end; either way the graph's nodes stay in execution
    order."""
    engine = DittoEngine(_cells, recursion_limit=None)
    try:
        tail = _Cell()
        head = _Cell(_Cell(tail))
        assert engine.run(head) == 3
        engine.order._tail.prev.label = _UNIVERSE - 1
        tail.next = _Cell(_Cell())
        assert engine.run(head) == 5
        engine.validate()
        assert engine.audit().ok
        nodes = list(engine.order)
        assert len(nodes) == engine.graph_size == 5
        assert [n.args[0] for n in nodes[-2:]] == [
            tail.next, tail.next.next,
        ]
    finally:
        engine.close()


class TestRelabeling:
    def test_repeated_insert_after_same_point(self):
        """Inserting always after the head forces label collisions and
        triggers relabeling; order must survive."""
        ol = OrderList()
        anchor = ol.insert_first()
        records = []
        for _ in range(2000):
            records.append(ol.insert_after(anchor))
        # records were inserted right after anchor: newest first.
        expected = [anchor] + records[::-1]
        assert list(ol) == expected
        labels = [record.label for record in ol]
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels)

    def test_repeated_append(self):
        ol = OrderList()
        last = ol.insert_first()
        chain = [last]
        for _ in range(2000):
            last = ol.insert_after(last)
            chain.append(last)
        assert list(ol) == chain

    def test_alternating_pattern(self):
        ol = OrderList()
        pivot = ol.insert_first()
        for i in range(500):
            if i % 2:
                ol.insert_after(pivot)
            else:
                ol.insert_before(pivot)
        labels = [record.label for record in ol]
        assert labels == sorted(set(labels))


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["after", "before", "delete"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=120,
    )
)
def test_model_equivalence(ops):
    """The OrderList agrees with a plain Python list used as a model."""
    ol = OrderList()
    model = [ol.insert_first()]
    for op, pick in ops:
        index = pick % len(model)
        target = model[index]
        if op == "after":
            model.insert(index + 1, ol.insert_after(target))
        elif op == "before":
            model.insert(index, ol.insert_before(target))
        elif len(model) > 1:
            ol.delete(target)
            model.pop(index)
    assert list(ol) == model
    for i in range(len(model) - 1):
        assert ol.order(model[i], model[i + 1])
