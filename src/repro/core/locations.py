"""Heap-location model.

DITTO's computation graph records, for every function invocation, the set of
heap locations the invocation's own frame read (its *implicit arguments*,
Definition 1).  Write barriers later report mutations of individual
locations, and a reverse map from locations to computation nodes identifies
the invocations that must be re-executed.

A location is a (container identity, coordinate) pair:

* ``FieldLocation`` — an object field, e.g. ``e.next``.
* ``IndexLocation`` — one slot of an array/list, e.g. ``buckets[i]``.
* ``LengthLocation`` — the length of an array/list (Java's
  ``buckets.length``); growing or shrinking a tracked list mutates it.
* ``RangeLocation`` — a half-open run of slots ``[start, stop)``, the
  write-side coalescing of shift-heavy mutations: one ``insert``/``pop``
  logs a single range instead of one ``IndexLocation`` per shifted slot.
  Ranges exist only in the write log; implicit arguments always name
  individual slots, and the memo table expands ranges against its reverse
  map at drain time.

Identity semantics: a point location *is* its interning.  The three
point constructors return the container's one instance per (class,
coordinate), kept in the container's header (``obj._ditto.locations``,
see :class:`repro.core.tracked.DittoHeader`), so two locations name the
same slot of the same container iff they are the same object — the
paper's pointer-identity treatment of heap objects (§4, "Hashing of
objects").  Point locations therefore keep Python's default identity
``__eq__`` / ``__hash__``: every set, reverse-map and write-log probe
hashes and compares in C.  The first construction stores the instance
with ``dict.setdefault``, so racing constructions still share one.  A
coordinate already interned under another class (``FieldLocation(arr,
"<len>")``) yields a fresh instance that is never interned, and a
container without a header (a duck-typed tracked type) gets a fresh
instance per construction: the memo table canonicalizes those itself
(:class:`repro.core.memo_table.MemoTable`).  Ranges are never interned
and keep structural equality, which the write log's deduplication
needs.

Locations hold a strong reference to their container; they live only
inside memo-table entries, the container's own header and the transient
write log, so this does not leak (entries are pruned when the computation
no longer reaches them).
"""

from __future__ import annotations

from typing import Any, Hashable


def _intern(location: "Location", container: Any, coord: Hashable) -> Any:
    """Shared tail of the point-location constructors: give the fresh
    ``location`` its container and return the container's interned
    instance of its class at ``coord``, interning ``location`` there on
    first use (``setdefault``: a racing construction's instance wins).
    ``location`` itself is returned, never interned, when the container
    has no header or the coordinate is interned under another class."""
    location.container = container
    location.refcount = 0
    try:
        cache = container._ditto.locations
    except AttributeError:
        return location
    interned = cache.setdefault(coord, location)
    return interned if type(interned) is type(location) else location


class Location:
    """Abstract heap location: a container and a coordinate (concrete
    subclasses define ``coordinate``).

    Point locations are interned per container and compare and hash by
    identity (module docstring); :class:`RangeLocation` compares
    structurally.

    ``refcount`` is the per-location analog of the paper's §4 container
    reference count: the number of live implicit-argument entries, across
    all engines, naming exactly this location.  Because the interned
    instance is the one the memo tables increment, the write barrier can
    consult its count and skip logging stores no computation node reads
    (see :mod:`repro.core.tracked`).
    """

    __slots__ = ("container", "refcount")

    def _coord(self) -> Hashable:
        raise NotImplementedError

    @property
    def coordinate(self) -> Hashable:
        return self._coord()

    def read(self) -> Any:
        """Return the value currently stored at this location."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({type(self.container).__name__}"
            f"@{id(self.container):#x}, {self._coord()!r})"
        )


class FieldLocation(Location):
    """The field ``container.<field>`` of a tracked object."""

    __slots__ = ("field",)

    def __new__(cls, container: Any, field: str) -> "FieldLocation":
        location = object.__new__(cls)
        location.field = field
        return _intern(location, container, field)

    def _coord(self) -> Hashable:
        return self.field

    def read(self) -> Any:
        return getattr(self.container, self.field)


class IndexLocation(Location):
    """The slot ``container[index]`` of a tracked array or list."""

    __slots__ = ("index",)

    def __new__(cls, container: Any, index: int) -> "IndexLocation":
        location = object.__new__(cls)
        location.index = index
        return _intern(location, container, index)

    def _coord(self) -> Hashable:
        return self.index

    def read(self) -> Any:
        return self.container[self.index]


class LengthLocation(Location):
    """The length of a tracked array or list (``len(container)``)."""

    __slots__ = ()

    def __new__(cls, container: Any) -> "LengthLocation":
        return _intern(object.__new__(cls), container, "<len>")

    def _coord(self) -> Hashable:
        return "<len>"

    def read(self) -> Any:
        return len(self.container)


class RangeLocation(Location):
    """The slot run ``container[start:stop]`` (half-open), written as one
    coalesced barrier entry by shift-heavy bulk mutations.

    Unlike the point locations, ranges are *not* interned in the
    container's location cache — the set of (start, stop) pairs a workload
    produces is unbounded, and each range is consumed once at the next
    drain.  Structural equality and hashing (same container object, same
    bounds) let the write log deduplicate identical pending ranges.
    """

    __slots__ = ("start", "stop", "_hash")

    def __init__(self, container: Any, start: int, stop: int):
        if start < 0 or stop < start:
            raise ValueError(f"invalid slot range [{start}, {stop})")
        self.container = container
        self.refcount = 0
        self.start = start
        self.stop = stop
        self._hash = hash((id(container), start, stop))

    def _coord(self) -> Hashable:
        return (self.start, self.stop)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.container is other.container  # type: ignore[attr-defined]
            and self.start == other.start  # type: ignore[attr-defined]
            and self.stop == other.stop  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.stop - self.start

    def covers(self, index: int) -> bool:
        """True if slot ``index`` falls inside this range."""
        return self.start <= index < self.stop

    def read(self) -> Any:
        """The current values of the covered slots (diagnostics only —
        drains never read through a range)."""
        return tuple(
            self.container[i]
            for i in range(self.start, min(self.stop, len(self.container)))
        )
