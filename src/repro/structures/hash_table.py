"""Chained hash table and its bucket-consistency invariant (paper Figure 9).

The invariant — "no entry is in the wrong bucket" — spans two mutually
recursive functions, demonstrating multi-function checks::

    Boolean checkHashBuckets(int i) {
        if (i >= buckets.length) return true;
        boolean b1 = checkHashElements(buckets[i], i),
                b2 = checkHashBuckets(i+1);
        return b1 && b2;
    }
    Boolean checkHashElements(HashElement e, int i) {
        if (e == null) return true;
        return (e.key.hashCode() % buckets.length == i)
               && checkHashElements(e.next, i);
    }

Note the paper's own style: ``checkHashBuckets`` computes ``b1`` and ``b2``
*before* combining them, because a short-circuit ``&&`` whose right operand
is a call guarded by a callee return value would violate the §3.5
restriction.  ``checkHashElements`` may use ``&&`` because its guard is a
heap-derived condition, not a callee return value.

``stable_hash`` replaces Java's ``hashCode``: a deterministic, process-
independent hash so benchmark workloads are reproducible.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..core.tracked import TrackedArray, TrackedObject
from ..instrument.registry import check
from ..instrument.transform import register_pure_helper

_DEFAULT_CAPACITY = 16
_LOAD_FACTOR = 0.75


@register_pure_helper
def stable_hash(key: Any) -> int:
    """Deterministic hash for ints and strings (the ``hashCode`` analog)."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, str):
        h = 0
        for ch in key:
            h = (31 * h + ord(ch)) & 0x7FFFFFFF
        return h
    raise TypeError(f"unhashable key type for HashTable: {type(key).__name__}")


class HashElement(TrackedObject):
    """One chain link: key, value, next."""

    def __init__(
        self, key: Any, value: Any, next: Optional["HashElement"] = None
    ):
        self.key = key
        self.value = value
        self.next = next

    def __repr__(self) -> str:
        return f"HashElement({self.key!r}: {self.value!r})"


@check
def check_hash_elements(table, e, i):
    """Every element chained in bucket ``i`` hashes to bucket ``i``."""
    if e is None:
        return True
    buckets = table.buckets
    return (
        stable_hash(e.key) % len(buckets) == i
        and check_hash_elements(table, e.next, i)
    )


@check
def check_hash_buckets(table, i):
    """Fold :func:`check_hash_elements` over all buckets from ``i`` on."""
    buckets = table.buckets
    if i >= len(buckets):
        return True
    b1 = check_hash_elements(table, buckets[i], i)
    b2 = check_hash_buckets(table, i + 1)
    return b1 and b2


@check
def hash_table_invariant(table):
    """Entry point: the whole table is bucket-consistent."""
    return check_hash_buckets(table, 0)


class HashTable(TrackedObject):
    """A key → value map using chaining, rehashing at 0.75 load factor."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.buckets = TrackedArray(capacity)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _bucket_index(self, key: Any, capacity: int) -> int:
        return stable_hash(key) % capacity

    def get(self, key: Any, default: Any = None) -> Any:
        e = self.buckets[self._bucket_index(key, len(self.buckets))]
        while e is not None:
            if e.key == key:
                return e.value
            e = e.next
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def put(self, key: Any, value: Any) -> None:
        """Insert or update ``key``; rehashes when the load factor exceeds
        0.75 (replacing the bucket array, which the ``buckets`` field write
        barrier reports as one mutation)."""
        index = self._bucket_index(key, len(self.buckets))
        e = self.buckets[index]
        while e is not None:
            if e.key == key:
                e.value = value
                return
            e = e.next
        self.buckets[index] = HashElement(key, value, self.buckets[index])
        self._size += 1
        if self._size > _LOAD_FACTOR * len(self.buckets):
            self._rehash(2 * len(self.buckets))

    def remove(self, key: Any) -> bool:
        """Delete ``key``; True if it was present."""
        index = self._bucket_index(key, len(self.buckets))
        e = self.buckets[index]
        prev: Optional[HashElement] = None
        while e is not None:
            if e.key == key:
                if prev is None:
                    self.buckets[index] = e.next
                else:
                    prev.next = e.next
                self._size -= 1
                return True
            prev, e = e, e.next
        return False

    def _rehash(self, new_capacity: int) -> None:
        new_buckets = TrackedArray(new_capacity)
        for index in range(len(self.buckets)):
            e = self.buckets[index]
            while e is not None:
                nxt = e.next
                j = self._bucket_index(e.key, new_capacity)
                e.next = new_buckets[j]
                new_buckets[j] = e
                e = nxt
        self.buckets = new_buckets

    def items(self) -> Iterator[tuple[Any, Any]]:
        for index in range(len(self.buckets)):
            e = self.buckets[index]
            while e is not None:
                yield (e.key, e.value)
                e = e.next

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    def purge(self, key: Any) -> bool:
        """Remove ``key`` wherever it is, scanning every bucket — the
        repair tool for elements that :meth:`corrupt` displaced (a normal
        :meth:`remove` only looks in the correct bucket)."""
        for index in range(len(self.buckets)):
            e = self.buckets[index]
            prev: Optional[HashElement] = None
            while e is not None:
                if e.key == key:
                    if prev is None:
                        self.buckets[index] = e.next
                    else:
                        prev.next = e.next
                    self._size -= 1
                    return True
                prev, e = e, e.next
        return False

    # Fault injection: move an element into the wrong bucket.
    def corrupt(self, key: Any) -> bool:
        """Relocate ``key``'s element to a wrong bucket (invariant broken)."""
        capacity = len(self.buckets)
        if capacity < 2:
            return False
        index = self._bucket_index(key, capacity)
        e = self.buckets[index]
        prev: Optional[HashElement] = None
        while e is not None:
            if e.key == key:
                if prev is None:
                    self.buckets[index] = e.next
                else:
                    prev.next = e.next
                wrong = (index + 1) % capacity
                e.next = self.buckets[wrong]
                self.buckets[wrong] = e
                return True
            prev, e = e, e.next
        return False
