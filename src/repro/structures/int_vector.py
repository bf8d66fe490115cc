"""A growable tracked vector whose checks live on the barrier hot path.

Every other structure in this package wraps its storage in a
:class:`~repro.core.tracked.TrackedArray` (fixed capacity, point-location
barriers).  ``IntVector`` instead exposes :class:`~repro.core.tracked.
TrackedList`'s *structural* operations — clamping ``insert``, validating
``pop``, range-coalesced shift barriers — directly to the invariant layer
and the differential fuzzer.  The two confirmed staleness bugs in the
list barrier (an unclamped out-of-range ``insert`` logging an empty slot
range; ``pop`` logging phantom locations before raising) were invisible
to the corpus precisely because no registered structure drove these ops;
this one exists so they stay covered.

The checks are written in the paper's style (recursive, side-effect-free)
and are deliberately shaped to expose distinct dependency classes:

* ``vector_checksum_from`` reads every slot *and* the length at every
  recursion level — any lost slot or length barrier flips the digest.
* ``vector_tail`` reads ``v[-1]`` and nothing else.  A negative read
  depends on the length through the runtime's index normalization, not
  through an explicit ``len``; it goes stale under exactly the class of
  bug where a growth op fails to dirty the old tail's reader.
"""

from __future__ import annotations

from ..core.tracked import TrackedList
from ..instrument.registry import check


@check
def vector_checksum_from(v, i):
    """Position-weighted checksum of slots ``i..``: each level contributes
    ``(i + 1) * v[i]``, so a changed value, a shifted slot, or a changed
    length all alter the sum."""
    if i >= len(v):
        return 0
    x = v[i]
    rest = vector_checksum_from(v, i + 1)
    return (i + 1) * x + rest


@check
def vector_tail(v):
    """The last element, read through a negative index.  On an empty
    vector this raises ``IndexError`` — identically under scratch and
    incremental execution, which the differential oracle relies on."""
    return v[-1]


@check
def vector_digest(v):
    """Entry point: checksum and tail combined into one scalar."""
    s = vector_checksum_from(v, 0)
    t = vector_tail(v)
    return s * 31 + t


class IntVector(TrackedList):
    """A growable sequence of small ints.

    Behaviorally identical to :class:`~repro.core.tracked.TrackedList`;
    registered as its own type so the QA layer has a named structure whose
    mutation surface *is* the list barrier."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"IntVector({self._items!r})"
