"""The memoization table and its reverse (location → nodes) map.

Paper §3.1: "DITTO stores the graph in memory in the form of a table …
indexed by a pair (f, explicit args)"; "In addition … a reverse map, from
heap locations (implicit arguments) to table entries, is created."

The table also centralizes the reference-count maintenance on tracked
containers (paper §4): a container's count equals the number of live
implicit-argument entries, across all nodes in this table, whose location
names the container.  Write barriers consult the count to skip logging
writes no invariant check depends on.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from .argkeys import ArgsKey
from .locations import IndexLocation, Location, RangeLocation
from .node import ComputationNode
from .tracked import TrackedArray, TrackedObject


def _merge_intervals(
    intervals: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Coalesce half-open ``(start, stop)`` intervals into a minimal
    disjoint cover.  Shift-heavy workloads log many overlapping ranges per
    drain (``insert(0)`` at every length produces a new ``(0, n+1)``);
    merging first makes the expansion cost proportional to the covered
    span, not to span × pending ranges."""
    intervals.sort()
    merged: list[tuple[int, int]] = []
    for start, stop in intervals:
        if merged and start <= merged[-1][1]:
            last_start, last_stop = merged[-1]
            if stop > last_stop:
                merged[-1] = (last_start, stop)
        else:
            merged.append((start, stop))
    return merged


#: The shipped tracked types, whose header counts the table maintains
#: inline.
_TRACKED = (TrackedObject, TrackedArray)


def _duck_key(location: Location) -> tuple:
    """Key of a duck-typed container's location in ``MemoTable._duck``."""
    return (type(location), id(location.container), location._coord())


def _release(location: Location, times: int) -> None:
    """Release ``times`` references to ``location``.  The shipped tracked
    types are decremented directly on the location (their interned
    instance; see :meth:`MemoTable.record_implicit`) and the container's
    header; duck-typed containers go through whichever of the
    ``_ditto_decref_loc`` / ``_ditto_decref`` hooks they provide (neither:
    not refcounted)."""
    container = location.container
    if isinstance(container, _TRACKED):
        location.refcount -= times
        header = container._ditto
        header.locrefs -= times
        header.refcount -= times
        return
    decref_loc = getattr(container, "_ditto_decref_loc", None)
    if decref_loc is not None:
        for _ in range(times):
            decref_loc(location)
        return
    decref = getattr(container, "_ditto_decref", None)
    if decref is not None:
        for _ in range(times):
            decref()


if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..instrument.registry import CheckFunction


class MemoTable:
    """Computation graph storage for one engine."""

    def __init__(self) -> None:
        #: ``(uid, parts) -> node``; ``parts`` is ``ArgsKey._parts``, and
        #: the key tuple is the node's own ``key``.
        self._entries: dict[tuple[int, tuple], ComputationNode] = {}
        self._reverse: dict[Location, set[ComputationNode]] = {}
        #: Canonical locations of containers without a header (duck-typed
        #: tracked types), by ``_duck_key``: their location constructors
        #: cannot intern, so the table does.  An entry lives exactly as
        #: long as its location is a reverse-map key, whose strong
        #: reference to the container keeps the ``id()`` from recycling.
        self._duck: dict[tuple, Location] = {}

    # Entry lookup. ----------------------------------------------------------

    def lookup(
        self, func: "CheckFunction", key: ArgsKey
    ) -> Optional[ComputationNode]:
        return self._entries.get((func.uid, key._parts))

    def get_or_create(
        self, func: "CheckFunction", key: ArgsKey
    ) -> tuple[ComputationNode, bool]:
        """Return ``(node, created)`` for invocation ``func(key.args)``."""
        node = self._entries.get((func.uid, key._parts))
        if node is not None:
            return node, False
        node = ComputationNode(func, key)
        self._entries[node.key] = node
        return node, True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ComputationNode]:
        return iter(self._entries.values())

    # Implicit arguments and the reverse map. --------------------------------

    def record_implicit(self, node: ComputationNode, location: Location) -> None:
        """Add ``location`` to ``node``'s implicit arguments, updating the
        reverse map and the container's reference counts.

        For the shipped tracked types ``location`` must be the container's
        interned instance (the one the write barrier logs and whose count
        it consults), which every location constructor returns; it is
        stored as-is in ``node.implicits`` and the reverse map alike, and
        :meth:`clear_implicits` and :meth:`clear` decrement it directly.
        A duck-typed container's locations are canonicalized here."""
        container = location.container
        tracked = isinstance(container, _TRACKED)
        if not tracked:
            key = _duck_key(location)
            location = self._duck.get(key, location)
        if location in node.implicits:
            return
        node.implicits.add(location)
        dependents = self._reverse.get(location)
        if dependents is None:
            dependents = set()
            self._reverse[location] = dependents
        dependents.add(node)
        if tracked:
            # Location-attributed incref, inlined: the per-location count
            # on the interned instance plus the header's exact
            # (``locrefs``) and coarse (``refcount``) counts.
            location.refcount += 1
            header = container._ditto
            header.locrefs += 1
            header.refcount += 1
        else:
            self._duck[key] = location
            incref_loc = getattr(container, "_ditto_incref_loc", None)
            if incref_loc is not None:
                incref_loc(location)
            else:
                incref = getattr(container, "_ditto_incref", None)
                if incref is not None:
                    incref()

    def clear_implicits(self, node: ComputationNode) -> None:
        """Drop all of ``node``'s implicit arguments (before re-execution or
        when pruning), releasing reverse-map entries and reference counts.

        The shipped tracked types are released inline (``_release``
        without its frame): this runs before every re-execution and for
        every pruned node."""
        reverse = self._reverse
        for location in node.implicits:
            dependents = reverse.get(location)
            if dependents is not None:
                dependents.discard(node)
                if not dependents:
                    del reverse[location]
            container = location.container
            if isinstance(container, _TRACKED):
                location.refcount -= 1
                header = container._ditto
                header.locrefs -= 1
                header.refcount -= 1
            else:
                _release(location, 1)
                if location not in reverse:
                    self._duck.pop(_duck_key(location), None)
        node.implicits.clear()

    def _keyed(self, location: Location) -> Location:
        """The instance the reverse map keys ``location`` under: itself,
        or a duck-typed container's canonical twin if one is recorded."""
        if self._duck:
            return self._duck.get(_duck_key(location), location)
        return location

    def nodes_reading(self, location: Location) -> set[ComputationNode]:
        """Nodes whose implicit arguments include ``location``."""
        return self._reverse.get(self._keyed(location), set())

    def map_locations_to_nodes(
        self, locations: Iterable[Location]
    ) -> set[ComputationNode]:
        """``map_locs_to_memo_table_entries`` from Figure 7.

        Point locations probe the reverse map directly.  Coalesced
        :class:`RangeLocation` entries are expanded here — implicit
        arguments always name individual slots, so a range can never hit
        the reverse map as-is.  Ranges are first merged per container,
        then each merged interval is expanded by whichever side is
        smaller: probing the container's interned slot location (if any)
        per covered index, or scanning the reverse map once when the span
        exceeds its size."""
        reverse = self._reverse
        duck = self._duck
        dirty: set[ComputationNode] = set()
        ranges: dict[int, tuple[Any, list[tuple[int, int]]]] = {}
        for loc in locations:
            if type(loc) is RangeLocation:
                if loc.stop > loc.start:
                    entry = ranges.setdefault(id(loc.container),
                                              (loc.container, []))
                    entry[1].append((loc.start, loc.stop))
                continue
            dependents = reverse.get(loc)
            if dependents is None and duck:
                dependents = reverse.get(self._keyed(loc))
            if dependents:
                dirty.update(dependents)
        for container, intervals in ranges.values():
            for start, stop in _merge_intervals(intervals):
                if stop - start <= len(reverse):
                    # A slot no node has read has no interned location, so
                    # the probes intern nothing.
                    if isinstance(container, _TRACKED):
                        probes = map(container._ditto.locations.get,
                                     range(start, stop))
                    else:
                        probes = (
                            duck.get((IndexLocation, id(container), index))
                            for index in range(start, stop)
                        )
                    for probe in probes:
                        if probe is not None:
                            dependents = reverse.get(probe)
                            if dependents:
                                dirty.update(dependents)
                else:
                    for key, dependents in reverse.items():
                        if (
                            type(key) is IndexLocation
                            and key.container is container
                            and start <= key.index < stop
                        ):
                            dirty.update(dependents)
        return dirty

    # Call edges. -------------------------------------------------------------

    def add_edge(self, caller: ComputationNode, callee: ComputationNode) -> None:
        """Record one ``caller -> callee`` call occurrence.  The first edge
        stores the bare caller; a second one promotes ``callers`` to the
        dict form (see :mod:`repro.core.node`)."""
        caller.calls.append(callee)
        callers = callee.callers
        if callers is None:
            callee.callers = caller
        elif type(callers) is dict:
            callers[caller] = callers.get(caller, 0) + 1
        elif callers is caller:
            callee.callers = {caller: 2}
        else:
            callee.callers = {callers: 1, caller: 1}
        new_depth = caller.depth + 1
        if callee.depth == 0 or new_depth < callee.depth:
            callee.depth = new_depth

    def remove_edge(self, caller: ComputationNode, callee: ComputationNode) -> None:
        """Remove one ``caller -> callee`` call occurrence (the caller's
        ``calls`` list is managed by the engine).  The last occurrence
        deletes the ``callers`` entry rather than storing 0, and an emptied
        dict reverts to ``None``, so ``not callee.callers`` is the orphan
        test."""
        callers = callee.callers
        if callers is caller:
            callee.callers = None
        elif type(callers) is dict:
            count = callers.get(caller, 0)
            if count > 1:
                callers[caller] = count - 1
            else:
                callers.pop(caller, None)
                if not callers:
                    callee.callers = None

    # Pruning (Figure 7's ``prune``). ------------------------------------------

    def prune(self, node: ComputationNode) -> list[ComputationNode]:
        """Remove ``node`` and, transitively, any callee left without
        callers.  Returns the list of removed nodes (for stats and for the
        engine to release order-maintenance records).

        A node that is currently executing is never removed, even at zero
        callers: after a rotation-style reshape, a pruning cascade can
        reach an *ancestor of the current execution* through stale edges.
        Such nodes finish their execution and the engine prunes them then
        if they are still unreachable."""
        removed: list[ComputationNode] = []
        entries = self._entries
        stack = [node]
        while stack:
            current = stack.pop()
            if current.in_progress:
                continue  # deferred: the engine re-checks after its exec
            if entries.get(current.key) is not current:
                continue  # already pruned
            del entries[current.key]
            self.clear_implicits(current)
            removed.append(current)
            for callee in current.calls:
                # remove_edge, inlined: a callee left with no callers is
                # pushed for removal.
                callers = callee.callers
                if callers is current or callers is None:
                    callee.callers = None
                    stack.append(callee)
                elif type(callers) is dict:
                    count = callers.get(current, 0)
                    if count > 1:
                        callers[current] = count - 1
                    else:
                        callers.pop(current, None)
                        if not callers:
                            callee.callers = None
                            stack.append(callee)
            current.calls.clear()
            current.callers = None
        return removed

    def contains(self, node: ComputationNode) -> bool:
        return self._entries.get(node.key) is node

    def clear(self) -> list[ComputationNode]:
        """Drop the whole graph (step-limit fallback / engine reset),
        releasing all reference counts.  Returns the removed nodes.

        Batched: releases are counted per location from each node's own
        ``implicits`` (the source :meth:`clear_implicits` uses, so a
        corrupted reverse map cannot over-release), then applied with one
        decrement per location.  Every node's edges are cut so the
        discarded graph holds no reference cycles."""
        removed = list(self._entries.values())
        releases = Counter(chain.from_iterable(
            node.implicits for node in removed
        ))
        for location, times in releases.items():
            _release(location, times)
        for node in removed:
            node.implicits.clear()
            node.calls.clear()
            node.callers = None
        self._entries.clear()
        self._reverse.clear()
        self._duck.clear()
        return removed

    # Introspection used by tests and the graph auditor. -----------------------

    def entries(self) -> Iterator[tuple[tuple[int, tuple], ComputationNode]]:
        """Iterate ``((uid, parts), node)`` pairs — the raw table rows.  The
        auditor uses this to confirm each row's key matches the identity of
        the node stored under it."""
        return iter(self._entries.items())

    def reverse_items(self) -> Iterator[tuple[Location, set[ComputationNode]]]:
        """Iterate ``(location, dependent nodes)`` pairs of the reverse map.
        The auditor cross-checks these against each node's ``implicits``."""
        return iter(self._reverse.items())


    def snapshot(self) -> dict[tuple[str, tuple], object]:
        """Map ``(function name, explicit args)`` to return values, for
        graph-isomorphism assertions in the test suite."""
        return {
            (node.func.name, node.args): node.return_val
            for node in self._entries.values()
        }

    def reverse_map_size(self) -> int:
        return len(self._reverse)
