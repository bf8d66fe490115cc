"""Array-based binary min-heap with a heap-order invariant (extension).

The heap demonstrates DITTO over *array* locations (``IndexLocation``)
rather than object fields.  The invariant-friendly design point, worth
noting for check authors: the backing store is a fixed-capacity
:class:`~repro.core.tracked.TrackedArray` with ``None`` in unused slots, so
the check's per-node work never reads the (frequently changing) element
count — a size change touches only the boundary slot, keeping the dirty set
small.  Growth replaces the whole array, which the ``items`` field barrier
reports as a single mutation (like the hash table's rehash).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..core.tracked import TrackedArray, TrackedObject
from ..instrument.registry import check

_DEFAULT_CAPACITY = 16


@check
def check_heap_order(h, i):
    """Subtree rooted at slot ``i`` satisfies the min-heap property: no
    child is smaller than its parent, and occupied slots are contiguous
    (a child below an empty slot is a violation)."""
    arr = h.items
    if i >= len(arr):
        return True
    x = arr[i]
    li = 2 * i + 1
    ri = 2 * i + 2
    if x is None:
        ok1 = li >= len(arr) or arr[li] is None
        ok2 = ri >= len(arr) or arr[ri] is None
        return ok1 and ok2
    ok = True
    if li < len(arr):
        l = arr[li]
        if l is not None and l < x:
            ok = False
    if ri < len(arr):
        r = arr[ri]
        if r is not None and r < x:
            ok = False
    b1 = check_heap_order(h, li)
    b2 = check_heap_order(h, ri)
    return ok and b1 and b2


@check
def heap_invariant(h):
    """Entry point: the whole heap is min-ordered and contiguous."""
    return check_heap_order(h, 0)


class BinaryHeap(TrackedObject):
    """A min-heap of comparable values."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.items = TrackedArray(capacity)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def peek(self) -> Optional[Any]:
        return self.items[0] if self._size else None

    def __iter__(self) -> Iterator[Any]:
        for i in range(self._size):
            yield self.items[i]

    def push(self, value: Any) -> None:
        """Insert ``value``, growing the backing array if full."""
        if self._size == len(self.items):
            self._grow(2 * len(self.items))
        i = self._size
        self.items[i] = value
        self._size += 1
        self._sift_up(i)

    def pop(self) -> Any:
        """Remove and return the minimum."""
        if self._size == 0:
            raise IndexError("pop from an empty heap")
        top = self.items[0]
        self._size -= 1
        last = self.items[self._size]
        self.items[self._size] = None
        if self._size:
            self.items[0] = last
            self._sift_down(0)
        return top

    def _grow(self, capacity: int) -> None:
        new_items = TrackedArray(capacity)
        for i in range(self._size):
            new_items[i] = self.items[i]
        self.items = new_items

    def _sift_up(self, i: int) -> None:
        items = self.items
        while i > 0:
            parent = (i - 1) // 2
            if items[i] < items[parent]:
                items[i], items[parent] = items[parent], items[i]
                i = parent
            else:
                break

    def _sift_down(self, i: int) -> None:
        items = self.items
        n = self._size
        while True:
            smallest = i
            li = 2 * i + 1
            ri = 2 * i + 2
            if li < n and items[li] < items[smallest]:
                smallest = li
            if ri < n and items[ri] < items[smallest]:
                smallest = ri
            if smallest == i:
                return
            items[i], items[smallest] = items[smallest], items[i]
            i = smallest

    # Fault injection. -----------------------------------------------------------

    def corrupt(self, index: int, value: Any) -> None:
        """Overwrite slot ``index`` without re-heapifying."""
        if not 0 <= index < self._size:
            raise IndexError(index)
        self.items[index] = value
