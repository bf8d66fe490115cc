"""Order-maintenance list (Bender, Cole, Demaine, Farach-Colton, Zito 2002).

The DITTO implementation keeps computation-graph nodes "ordered using the
order maintenance algorithm due to Bender, et al." instead of re-deriving a
BFS order on every run (paper §3.4).  This module implements the tag/
relabeling ("list-labeling") variant from that paper: every record carries
an integer label drawn from a universe of size 2**62; ``order(a, b)`` is a
label comparison; inserting into a saturated gap relabels the smallest
enclosing aligned tag range whose density is below a geometrically-falling
threshold, giving O(log n) amortized insertions.

A computation node is its own record: it carries the ``label``/``prev``/
``next``/``owner`` slots, and the engine links each node last at creation
time (:meth:`OrderList.link_last`, inlined on the compiled call path),
yielding a total order consistent with the execution order of the check.
The order breaks ties when scheduling dirty-node re-execution and
return-value propagation.  :class:`Record` is the standalone element type
that :meth:`OrderList.insert_after` / :meth:`OrderList.insert_before`
create.
"""

from __future__ import annotations

from typing import Iterator, Optional

#: Labels live in the open interval (0, _UNIVERSE); sentinels take the ends.
_UNIVERSE = 1 << 62
#: Density threshold base 1 < T < 2; range at level ``i`` (size ``2**i``)
#: may be relabeled when its record count is below ``2**i / T**i``.
_T = 1.5
#: Stride for the append fast path.  Bisecting between the last record and
#: the tail sentinel halves the remaining gap on every append, forcing a
#: relabel about every 60 inserts in the append-heavy graph-build phase; a
#: fixed stride leaves ~2**42 appends before the universe end is reached
#: (where the bisect/relabel slow path takes over and re-compacts labels).
_APPEND_GAP = 1 << 20


class Record:
    """A standalone element of an :class:`OrderList`.  Treat as opaque.

    Any object with ``label``/``prev``/``next``/``owner`` attributes can be
    an element; computation nodes are linked directly."""

    __slots__ = ("label", "prev", "next", "owner")

    def __init__(self, label: int, owner: "OrderList | None"):
        self.label = label
        self.prev: Optional[Record] = None
        self.next: Optional[Record] = None
        self.owner = owner

    @property
    def alive(self) -> bool:
        return self.owner is not None

    def __repr__(self) -> str:
        return f"Record(label={self.label})"


class OrderList:
    """A total order supporting O(1) queries and amortized O(log n) inserts.

    ``insert_after(rec)`` / ``insert_before(rec)`` create a new record
    adjacent to ``rec``; ``order(a, b)`` returns True iff ``a`` precedes
    ``b``; ``delete(rec)`` removes a record.  The two sentinel endpoints are
    internal and never exposed.
    """

    def __init__(self) -> None:
        self._head = Record(0, None)
        self._tail = Record(_UNIVERSE, None)
        self._head.next = self._tail
        self._tail.prev = self._head
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Record]:
        rec = self._head.next
        while rec is not self._tail:
            assert rec is not None
            yield rec
            rec = rec.next

    def insert_first(self) -> Record:
        """Insert a record before everything else."""
        return self.insert_after(self._head)

    def insert_last(self) -> Record:
        """Insert a record after everything else."""
        assert self._tail.prev is not None
        return self.insert_after(self._tail.prev)

    def insert_after(self, rec: Record) -> Record:
        """Insert and return a fresh record immediately after ``rec``."""
        if rec is not self._head and rec.owner is not self:
            raise ValueError("record does not belong to this OrderList")
        new = Record(0, None)
        self._link_after(rec, new)
        return new

    def link_last(self, rec: Record) -> None:
        """Link the existing, currently unlinked element ``rec`` after
        everything else (a computation node is its own record)."""
        assert self._tail.prev is not None
        self._link_after(self._tail.prev, rec)

    def _link_after(self, rec: Record, new: Record) -> None:
        nxt = rec.next
        assert nxt is not None
        if nxt is self._tail and rec.label + _APPEND_GAP < _UNIVERSE:
            label = rec.label + _APPEND_GAP
        else:
            if nxt.label - rec.label < 2:
                self._rebalance(rec if rec is not self._head else nxt)
                nxt = rec.next
                assert nxt is not None
            label = (rec.label + nxt.label) // 2
        new.label = label
        new.owner = self
        new.prev, new.next = rec, nxt
        rec.next = new
        nxt.prev = new
        self._size += 1

    def insert_before(self, rec: Record) -> Record:
        if rec.owner is not self:
            raise ValueError("record does not belong to this OrderList")
        assert rec.prev is not None
        return self.insert_after(rec.prev)

    def delete(self, rec: Record) -> None:
        """Remove ``rec`` from the order.  Idempotent."""
        if rec.owner is not self:
            return
        assert rec.prev is not None and rec.next is not None
        rec.prev.next = rec.next
        rec.next.prev = rec.prev
        rec.owner = None
        rec.prev = rec.next = None
        self._size -= 1

    def clear(self) -> None:
        """Remove every record in one walk (graph teardown).  Each record
        ends as ``delete`` leaves it — dead and unlinked, so the discarded
        chain holds no reference cycles — without splicing neighbours one
        deletion at a time."""
        rec = self._head.next
        tail = self._tail
        while rec is not None and rec is not tail:
            nxt = rec.next
            rec.owner = None
            rec.prev = rec.next = None
            rec = nxt
        self._head.next = tail
        tail.prev = self._head
        self._size = 0

    def order(self, a: Record, b: Record) -> bool:
        """True iff ``a`` precedes ``b`` in the list."""
        if a.owner is not self or b.owner is not self:
            raise ValueError("record does not belong to this OrderList")
        return a.label < b.label

    def audit(self) -> list[str]:
        """Structural self-check: walk the list and report every linkage or
        labeling violation as a human-readable string (empty list = sound).

        Used by the resilience layer's :class:`~repro.resilience.auditor.
        GraphAuditor`; kept here because only the list knows its own
        representation invariants (sentinel labels, bidirectional linkage,
        strictly increasing labels, size accounting)."""
        problems: list[str] = []
        if self._head.label != 0:
            problems.append(f"head sentinel label {self._head.label} != 0")
        if self._tail.label != _UNIVERSE:
            problems.append("tail sentinel label moved")
        count = 0
        rec = self._head
        while rec is not self._tail:
            nxt = rec.next
            if nxt is None:
                problems.append(f"forward chain broken after {rec!r}")
                break
            if nxt.prev is not rec:
                problems.append(
                    f"asymmetric linkage: {rec!r}.next.prev is not {rec!r}"
                )
            if nxt.label <= rec.label:
                problems.append(
                    f"labels not strictly increasing: {rec.label} -> "
                    f"{nxt.label}"
                )
            if nxt is not self._tail:
                count += 1
                if nxt.owner is not self:
                    problems.append(f"{nxt!r} in chain but owned elsewhere")
                if count > self._size:
                    problems.append(
                        f"chain longer than recorded size {self._size}"
                    )
                    break
            rec = nxt
        if not problems and count != self._size:
            problems.append(
                f"recorded size {self._size} but walked {count} records"
            )
        return problems

    # Internal: Bender-style range relabeling. ------------------------------

    def _rebalance(self, rec: Record) -> None:
        """Relabel the smallest enclosing aligned tag range around ``rec``
        whose density is below the level threshold."""
        pivot_label = rec.label
        lo = hi = rec
        count = 1
        level = 0
        threshold = 1.0
        while level < 62:
            level += 1
            threshold /= _T
            size = 1 << level
            min_label = pivot_label & ~(size - 1)
            max_label = min_label + size - 1
            while (
                lo.prev is not None
                and lo.prev is not self._head
                and lo.prev.label >= min_label
            ):
                lo = lo.prev
                count += 1
            while (
                hi.next is not None
                and hi.next is not self._tail
                and hi.next.label <= max_label
            ):
                hi = hi.next
                count += 1
            if max_label >= _UNIVERSE:
                break
            # Accept the range only if it is sparse enough *and* even
            # spreading leaves a gap of at least 2, so the pending insert
            # finds a free midpoint label.
            if count / size < threshold and size // (count + 1) >= 2:
                self._relabel_range(lo, count, min_label, size)
                return
        # Fall back to relabeling the whole list across the universe.
        self._relabel_range(
            self._head.next, self._size, 0, _UNIVERSE  # type: ignore[arg-type]
        )

    def _relabel_range(
        self, first: Record, count: int, min_label: int, size: int
    ) -> None:
        """Evenly spread ``count`` records starting at ``first`` over the
        half-open tag range ``[min_label, min_label + size)``, keeping all
        labels strictly positive (the head sentinel owns label 0)."""
        gap = size // (count + 1)
        assert gap >= 1, "tag range too dense to relabel"
        label = min_label
        node: Optional[Record] = first
        for _ in range(count):
            assert node is not None
            label += gap
            node.label = label
            node = node.next
