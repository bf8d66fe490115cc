"""Write-barrier substrate: tracked objects, tracked arrays, the write log.

The original DITTO injects write barriers into the *bytecode of the whole
program* and a reference-count header into every class used by invariant
checks (by re-parenting the class hierarchy onto ``IncObject``).  Python has
no ambient bytecode hook, so this reproduction asks data structures checked
by DITTO to derive from :class:`TrackedObject` (and to use
:class:`TrackedArray` / :class:`TrackedList` where Java code would use
arrays).  This is the same contract as the paper's ``IncObject`` rewriting:
every object type an invariant check reads carries the barrier and the
reference count; the rest of the program is untouched.

Both of the paper's Section 4 barrier optimizations are implemented:

1. **Monitored-field filter** — barriers only *log* writes to fields that
   some invariant check actually reads (collected by the static analysis at
   engine-construction time).  Writes to other fields cost one set lookup.
2. **Reference-count filter** — each tracked container carries a count of
   live implicit-argument entries (across all engines) that name one of its
   locations.  A write to a container with a zero count affects no
   computation node and is not logged.
3. **Per-location refinement** — the container count says *some* location
   of the container is read, not *which*.  Engine-managed implicit entries
   additionally bump a per-:class:`~repro.core.locations.Location` count on
   the interned location itself, mirrored into the header's ``locrefs``;
   the memo table stores that same interned instance as the implicit
   argument and maintains all three counts inline.  A store to a monitored
   field of a referenced container whose own location count is zero is
   provably unread and is skipped (counted in
   ``barrier_location_filtered``).  The filter is exact only while every
   container reference is location-attributed: code that bumps the coarse
   count directly (``_ditto_incref``) leaves ``refcount != locrefs`` and
   the barrier falls back to logging every monitored store, preserving the
   pre-refinement behaviour.  Coalesced range barriers always log — a
   range spans many point locations and is not interned.
   :func:`set_location_filter` disables the refinement for A/B
   measurements (``benchmarks/bench_barrier_overhead.py``).

Mutations that pass both filters append their :class:`~repro.core.locations.
Location` to the global :class:`WriteLog`.  Each engine keeps a cursor into
the log and consumes newly-logged locations at the start of its next run;
the log compacts itself once every registered engine has caught up.

One tracking domain
-------------------

As in the paper, there is one heap and one write log.  The process holds
a single current :class:`TrackingState` (:func:`tracking_state`): every
engine registers its monitored fields and its log cursor there when it is
built, and every barrier logs to whichever state is current when it
fires.  Containers do not remember an owner.

:func:`reset_tracking` replaces the current state with a fresh one and
marks the old one ``retired``.  It exists to isolate tests.  An engine
built before the reset still consumes the retired state's log, which no
barrier reaches any more, so its graph could only go stale:
:meth:`~repro.core.engine.DittoEngine.run` raises
:class:`~repro.core.errors.EngineStateError` on such an engine instead.
Closing it is still fine, and releases its reference counts.

Hot-path layout
---------------

The barrier is the tax every mutation of the main program pays, so the
common cases are flattened:

* All per-container engine state lives in one slotted
  :class:`DittoHeader` — the coarse ``refcount``, the location-attributed
  ``locrefs`` and the interned-location cache ``locations`` — held under
  the single attribute ``_ditto``.
  ``TrackedObject.__new__`` and ``TrackedArray.__new__`` create it
  together with the container, and every reader (the barriers, the
  compiled check reads, the memo table, the auditor, the coarse
  ``_ditto_incref`` / ``_ditto_decref`` hooks) does ``h = obj._ditto``
  followed by slot loads and stores.  The header is a separate object
  made at construction for the sake of the *program's* code.  CPython
  3.11+ stores a plain instance's attributes inline, keyed by its class's
  shared keys, until something reads ``obj.__dict__`` or adds a name the
  shared keys cannot take; from then on the instance carries a real dict
  and every attribute access on it is slower (a four-field read loop ran
  2.5x slower on CPython 3.11.7, x86-64, once ``__dict__`` had been
  read; 3.13 keeps the values inline even then).  The shared keys take
  late names only while a class is young: with 30 instances built before
  two more names were added, every one of them got a dict, on 3.11.7 and
  on 3.13.  Counters kept as loose instance attributes, added on first
  read, would therefore cost every checked object its inline storage.
  The one header name, set first in ``__new__``, takes the same
  shared-key slot in every instance, and counter updates are slot stores
  on the header that never reach the instance or its barrier
  ``__setattr__``.  Copies and unpickled objects get a header of their
  own: it is kept out of the copied and pickled state (``__getstate__``).
* Each state snapshots its monitored-field set and its write log's bound
  ``append`` into the ``monitored`` / ``log_append`` attributes, refreshed
  whenever monitoring changes.  An unmonitored attribute store costs one
  refcount check and one frozenset probe; a write to an unreferenced
  container costs the refcount check alone (and is deliberately *not*
  counted — counting would tax the path the filter exists to keep free).
* Shift-heavy list mutations (``insert`` / ``pop`` not at the tail,
  ``fill``) log a single coalesced :class:`~repro.core.locations.
  RangeLocation` covering every shifted slot instead of one
  ``IndexLocation`` per slot; the memo table expands ranges against its
  reverse map at drain time.
* Mutators validate their index *before* logging: a mutation that raises
  (``pop`` from empty, out-of-range ``__setitem__``) leaves the write log
  untouched, and ``insert`` clamps exactly as ``list.insert`` does before
  computing which slots it logs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .locations import (
    FieldLocation,
    IndexLocation,
    LengthLocation,
    Location,
    RangeLocation,
)


class WriteLog:
    """Append-only log of mutated heap locations with per-consumer cursors.

    Consumers (engines) register and receive a consumer id; ``consume(cid)``
    returns every location logged since that consumer's previous call.  A
    location whose latest log position is still unread by *every* consumer
    is not appended again (write deduplication): each consumer will see
    that pending entry.  Once any consumer has read past it, a new write is
    appended, so the consumer that already drained it sees the new write.
    The backing list is compacted whenever all consumers have caught up.
    """

    def __init__(self) -> None:
        self._entries: list[Location] = []
        self._cursors: dict[int, int] = {}
        #: The largest cursor (0 with no consumer).  :meth:`append` reads
        #: it without building an object, so no collection (and no engine
        #: finalizer, which calls :meth:`unregister`) can run between its
        #: dedup test and the append that test guards.
        self._max_cursor = 0
        self._next_cid = 0
        self._last_pos: dict[Location, int] = {}
        #: Lifetime count of barrier events offered to the log (after the
        #: refcount/monitored filters and the fault hook, before write
        #: deduplication).  One coalesced range counts as one event.
        self.logged = 0
        #: Lifetime count of slots covered by coalesced ``RangeLocation``
        #: entries — each such event would have cost this many per-slot
        #: appends under the uncoalesced barrier.
        self.coalesced = 0
        #: Test-only fault hook (see :mod:`repro.resilience.faults`): when
        #: set, every would-be append is offered to the hook first and is
        #: *dropped* if the hook returns True.  Simulates a lost write
        #: barrier — the failure mode paranoia verification exists to catch.
        self.fault_hook: "Any | None" = None

    def register(self) -> int:
        """Register a new consumer; it starts at the current end of the log
        (pre-existing writes predate the consumer's first run and are seen
        by that run from scratch anyway)."""
        cid = self._next_cid
        self._next_cid += 1
        self._cursors[cid] = self._max_cursor = len(self._entries)
        return cid

    def unregister(self, cid: int) -> None:
        self._cursors.pop(cid, None)
        self._max_cursor = max(self._cursors.values(), default=0)
        self._compact()

    def append(self, location: Location) -> None:
        """Log a mutation of ``location`` unless its most recent occurrence
        is still unread by every consumer."""
        if not self._cursors:
            return
        if self.fault_hook is not None and self.fault_hook(location):
            return
        self.logged += 1
        if type(location) is RangeLocation:
            self.coalesced += location.stop - location.start
        last = self._last_pos.get(location)
        if last is not None and last >= self._max_cursor:
            return
        self._last_pos[location] = len(self._entries)
        self._entries.append(location)

    def consume(self, cid: int) -> list[Location]:
        """Return locations logged since consumer ``cid`` last consumed."""
        start = self._cursors[cid]
        pending = self._entries[start:]
        self._cursors[cid] = self._max_cursor = len(self._entries)
        self._compact()
        return pending

    def peek(self, cid: int) -> list[Location]:
        """Locations logged since consumer ``cid`` last consumed, without
        advancing its cursor.  Diagnostics only (e.g. the pending-write dump
        emitted when a guarded block raises mid-mutation)."""
        return self._entries[self._cursors[cid]:]

    def _compact(self) -> None:
        if not self._cursors:
            low = len(self._entries)
        else:
            low = min(self._cursors.values())
        if low == len(self._entries) and self._entries:
            self._entries.clear()
            self._last_pos.clear()
            for cid in self._cursors:
                self._cursors[cid] = 0
            self._max_cursor = 0

    def __len__(self) -> int:
        return len(self._entries)


class TrackingState:
    """The write-barrier domain: a write log and the union of the
    monitored field names of the engines registered with it.

    The process keeps one current state (:func:`tracking_state`); every
    engine and every barrier uses it.  Tests call :func:`reset_tracking`
    to start from a clean slate (see the module docstring).
    """

    def __init__(self) -> None:
        self.write_log = WriteLog()
        # field name -> number of engines monitoring it
        self._monitored_fields: dict[str, int] = {}
        #: Lifetime count of attribute writes to *referenced* containers
        #: that the monitored-field filter suppressed.  (Writes filtered by
        #: the refcount alone are uncounted — see the module docstring.)
        self.barrier_filtered = 0
        #: Lifetime count of monitored writes to *referenced* containers
        #: that the per-location refinement suppressed: the store passed
        #: both §4 filters but no live implicit argument names the exact
        #: location being written.
        self.barrier_location_filtered = 0
        #: Set by :func:`reset_tracking` on the state it replaces; engines
        #: built on a retired state refuse to run.
        self.retired = False
        #: Profiling probe (:mod:`repro.obs.profiler`): when armed, every
        #: location that passes the barrier filters is offered to the probe
        #: *before* it reaches the write log, so the profiler can attribute
        #: the mutation to its call site.  ``None`` (the default) keeps
        #: ``log_append`` the raw bound ``WriteLog.append`` — a disarmed
        #: domain pays nothing.
        self.mutation_probe: "Any | None" = None
        #: Hot-path snapshots (module docstring): the current monitored
        #: field set and the bound ``append`` of this state's write log.
        self.monitored: frozenset[str] = frozenset()
        self.log_append = self.write_log.append

    def monitor_fields(self, fields: Iterable[str]) -> None:
        for f in fields:
            self._monitored_fields[f] = self._monitored_fields.get(f, 0) + 1
        self._refresh()

    def unmonitor_fields(self, fields: Iterable[str]) -> None:
        for f in fields:
            n = self._monitored_fields.get(f, 0) - 1
            if n <= 0:
                self._monitored_fields.pop(f, None)
            else:
                self._monitored_fields[f] = n
        self._refresh()

    def set_mutation_probe(self, probe: "Any | None") -> None:
        """Arm (or, with ``None``, disarm) the profiling mutation probe.

        While armed, every barrier append goes through a wrapper that calls
        ``probe(location)`` first — this is the single choke point all
        barrier paths (attribute stores, element stores, point and range
        logs) funnel through, so one probe observes every mutation of the
        domain.  The probe must be cheap and must not raise; it runs on the
        main program's mutation path.
        """
        self.mutation_probe = probe
        self._refresh()

    def _refresh(self) -> None:
        self.monitored = frozenset(self._monitored_fields)
        probe = self.mutation_probe
        raw_append = self.write_log.append
        if probe is None:
            self.log_append = raw_append
        else:
            def log_append(
                location: Location, _probe=probe, _append=raw_append
            ) -> None:
                _probe(location)
                _append(location)

            self.log_append = log_append

    def is_monitored(self, field: str) -> bool:
        return field in self._monitored_fields

    @property
    def monitored_fields(self) -> frozenset[str]:
        return frozenset(self._monitored_fields)

    def barrier_counters(self) -> dict[str, int]:
        """The barrier throughput counters, by name."""
        return {
            "barrier_logged": self.write_log.logged,
            "barrier_filtered": self.barrier_filtered,
            "barrier_coalesced": self.write_log.coalesced,
            "barrier_location_filtered": self.barrier_location_filtered,
        }


#: The current tracking state (see :func:`tracking_state`).
_state = TrackingState()


#: Per-location refinement toggle (module docstring, optimization 3).
_location_filter = True


def set_location_filter(enabled: bool) -> bool:
    """Enable/disable the per-location barrier refinement.  Returns the
    previous setting.  Exists for A/B benchmarking and for reproducing the
    coarse (container-count only) §4 behaviour; leave it on in normal use.
    """
    global _location_filter
    previous = _location_filter
    _location_filter = bool(enabled)
    return previous


def location_filter_enabled() -> bool:
    """True when the per-location barrier refinement is active."""
    return _location_filter


def tracking_state() -> TrackingState:
    """Return the current :class:`TrackingState`, the one every barrier
    logs to and every new engine registers with."""
    return _state


def reset_tracking() -> None:
    """Replace the current tracking state (write log, monitored fields)
    with a fresh one.

    Intended for test isolation.  The replaced state is marked
    ``retired``, and engines built on it raise
    :class:`~repro.core.errors.EngineStateError` from ``run()``.
    """
    global _state
    _state.retired = True
    _state = TrackingState()


class DittoHeader:
    """All per-container engine state: the paper's ``IncObject`` header.

    One instance per :class:`TrackedObject` / :class:`TrackedArray`, created
    with the container and held under its ``_ditto`` attribute (see the
    module docstring for why it is a separate object made at construction).

    * ``refcount`` — the §4 reference count: live implicit-argument
      entries, across all engines, that name one of the container's
      locations, plus coarse references taken through ``_ditto_incref``.
    * ``locrefs`` — the location-attributed part of ``refcount``; the two
      differ exactly when a coarse reference is live, which turns the
      per-location barrier filter off for the container.
    * ``locations`` — the interned point locations, by coordinate (field
      name, slot index, or ``"<len>"``), filled on first use by the
      location constructors (:mod:`repro.core.locations`).
    """

    __slots__ = ("refcount", "locrefs", "locations")

    def __init__(self) -> None:
        self.refcount = 0
        self.locrefs = 0
        self.locations: dict[Any, Location] = {}


def _reduce_ex(self: Any, protocol: int) -> Any:
    # Protocols 0 and 1 rebuild through ``object.__new__``, which would
    # skip the header; the protocol-2 reduction calls ``cls.__new__``.
    return object.__reduce_ex__(self, max(protocol, 2))


class TrackedObject:
    """Base class for heap objects read by DITTO invariant checks.

    Mirrors the paper's ``IncObject``: carries a reference-count header
    (:class:`DittoHeader`, under ``_ditto``) and a write barrier.  Assigning
    to (or deleting) an attribute of an instance whose reference count is
    positive *and* whose attribute name is read by some check logs the
    mutated :class:`FieldLocation` into the global write log.

    Attributes whose names start with ``_`` are never monitored, so internal
    bookkeeping writes are cheap and invisible to the engines.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "TrackedObject":
        self = object.__new__(cls)
        # The header is the instance's first attribute, so it takes the same
        # shared-key slot in every instance of the class.
        object.__setattr__(self, "_ditto", DittoHeader())
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        header = self._ditto
        if header.refcount > 0 and name[0] != "_":
            state = _state
            if name in state.monitored:
                location = self._ditto_location(name)
                if (
                    location.refcount > 0
                    or header.refcount != header.locrefs
                    or not _location_filter
                ):
                    state.log_append(location)
                else:
                    state.barrier_location_filtered += 1
            else:
                state.barrier_filtered += 1
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        # A deletion is a write: the same barrier as __setattr__, spelled
        # out again so that __setattr__ keeps its single frame.  The
        # deletion runs first, so one that raises logs nothing.
        header = self._ditto
        object.__delattr__(self, name)
        if header.refcount > 0 and name[0] != "_":
            state = _state
            if name in state.monitored:
                location = self._ditto_location(name)
                if (
                    location.refcount > 0
                    or header.refcount != header.locrefs
                    or not _location_filter
                ):
                    state.log_append(location)
                else:
                    state.barrier_location_filtered += 1
            else:
                state.barrier_filtered += 1

    def _ditto_location(self, name: str) -> FieldLocation:
        """Interned :class:`FieldLocation` for ``self.<name>`` — one object
        per (container, field), shared by write barriers and implicit-read
        recording.  A cache hit skips the constructor, which interns the
        location on first use."""
        location = self._ditto.locations.get(name)
        if location is None:
            location = FieldLocation(self, name)
        return location

    # Coarse reference counts (duck-typed container protocol, tests).  The
    # memo table keeps the location-attributed counts inline instead; see
    # MemoTable.record_implicit. -------------------------------------------

    def _ditto_incref(self) -> None:
        self._ditto.refcount += 1

    def _ditto_decref(self) -> None:
        self._ditto.refcount -= 1

    # Copy and pickle: the state is the attributes without the header, so
    # every copy starts unreferenced, with a header of its own from
    # ``__new__``. ---------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = vars(self).copy()
        del state["_ditto"]
        return state

    __reduce_ex__ = _reduce_ex


class TrackedArray:
    """Fixed-length array with write barriers on element stores.

    The Python analog of a Java array used by a check (hash-table buckets,
    the Netcols grid, ``reserved_names``).  Reading is plain indexing; the
    instrumented check records :class:`IndexLocation` /
    :class:`LengthLocation` implicit arguments through its compiled reads.

    Instances are slotted: the backing list and the :class:`DittoHeader`,
    which ``__new__`` creates so that copies and unpickled arrays (which
    skip ``__init__``) get one too.
    """

    __slots__ = ("_items", "_ditto")

    def __new__(cls, *args: Any, **kwargs: Any) -> "TrackedArray":
        self = object.__new__(cls)
        self._ditto = DittoHeader()
        return self

    def __init__(self, initial: Iterable[Any] | int, fill: Any = None):
        if isinstance(initial, int):
            self._items: list[Any] = [fill] * initial
        else:
            self._items = list(initial)

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def _ditto_location(self, index: "int | str") -> Location:
        """Interned :class:`IndexLocation` (or, for the key ``"<len>"``,
        :class:`LengthLocation`) — see ``TrackedObject._ditto_location``."""
        location = self._ditto.locations.get(index)
        if location is None:
            if index == "<len>":
                location = LengthLocation(self)
            else:
                location = IndexLocation(self, index)
        return location

    def __setitem__(self, index: int, value: Any) -> None:
        items = self._items
        header = self._ditto
        if header.refcount > 0:
            if index < 0:
                index += len(items)
            if not 0 <= index < len(items):
                raise IndexError("list assignment index out of range")
            location = self._ditto_location(index)
            if (
                location.refcount > 0
                or header.refcount != header.locrefs
                or not _location_filter
            ):
                _state.log_append(location)
            else:
                _state.barrier_location_filtered += 1
        items[index] = value

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"TrackedArray({self._items!r})"

    def fill(self, value: Any) -> None:
        """Set every slot to ``value`` (bulk store, one coalesced range
        barrier for the whole array).  Ranges are never location-filtered —
        they are not interned and span many point counts."""
        items = self._items
        if self._ditto.refcount > 0 and items:
            self._ditto_log_range(RangeLocation(self, 0, len(items)))
        items[:] = [value] * len(items)

    def _ditto_log_point(self, location: Location) -> None:
        """Log a point mutation unless the per-location refinement proves
        no live implicit argument reads it (see the module docstring)."""
        header = self._ditto
        if (
            location.refcount > 0
            or header.refcount != header.locrefs
            or not _location_filter
        ):
            _state.log_append(location)
        else:
            _state.barrier_location_filtered += 1

    def _ditto_log_range(self, location: Location) -> None:
        """Log a coalesced range barrier."""
        _state.log_append(location)

    def _ditto_incref(self) -> None:
        self._ditto.refcount += 1

    def _ditto_decref(self) -> None:
        self._ditto.refcount -= 1

    # Copy and pickle (see TrackedObject): the state is a copy of the
    # backing list, so a shallow copy does not share it either. -----------

    def __getstate__(self) -> list[Any]:
        return list(self._items)

    def __setstate__(self, items: list[Any]) -> None:
        self._items = items

    __reduce_ex__ = _reduce_ex


class TrackedList(TrackedArray):
    """Growable tracked sequence.

    Structural operations (append/pop/insert/remove) log the length
    location plus the affected slots — a single interned point location
    when only one slot changes (append, tail pop), a coalesced
    :class:`RangeLocation` when slots shift.  Indexes are validated (and,
    for ``insert``, clamped — matching ``list.insert``) *before* anything
    is logged, so a raising mutator leaves the write log untouched.
    """

    __slots__ = ()

    def append(self, value: Any) -> None:
        items = self._items
        if self._ditto.refcount > 0:
            self._ditto_log_point(self._ditto_location("<len>"))
            self._ditto_log_point(self._ditto_location(len(items)))
        items.append(value)

    def pop(self, index: int = -1) -> Any:
        items = self._items
        n = len(items)
        if not n:
            raise IndexError("pop from empty list")
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("pop index out of range")
        if self._ditto.refcount > 0:
            self._ditto_log_point(self._ditto_location("<len>"))
            if index == n - 1:
                self._ditto_log_point(self._ditto_location(index))
            else:
                # Slots index..n-1 all shift down; slot n-1 disappears but
                # a reader of it (necessarily length-guarded pre-shrink)
                # still depends on the old coordinate, so the range covers
                # it too.
                self._ditto_log_range(RangeLocation(self, index, n))
        return items.pop(index)

    def insert(self, index: int, value: Any) -> None:
        items = self._items
        n = len(items)
        # Clamp exactly as list.insert does — *before* computing the slots
        # to log, so an out-of-range index can't silently log an empty run
        # while the underlying list still writes slot 0 or n.
        if index < 0:
            index += n
            if index < 0:
                index = 0
        elif index > n:
            index = n
        if self._ditto.refcount > 0:
            self._ditto_log_point(self._ditto_location("<len>"))
            if index == n:
                self._ditto_log_point(self._ditto_location(index))
            else:
                self._ditto_log_range(RangeLocation(self, index, n + 1))
        items.insert(index, value)

    def remove(self, value: Any) -> None:
        self.pop(self._items.index(value))

    def __repr__(self) -> str:
        return f"TrackedList({self._items!r})"


def is_tracked(obj: Any) -> bool:
    """True if ``obj`` participates in write-barrier tracking."""
    return isinstance(obj, (TrackedObject, TrackedArray))
