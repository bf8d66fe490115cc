"""Memo-table key semantics (paper §4, "Hashing of objects").

DITTO's memo table maps a function's explicit-argument list to the
computation node for that invocation.  Because DITTO is automatic, it cannot
ask the programmer for an equality notion, so it uses a conservative
all-purpose strategy:

* **semantic equality** for primitive values (numbers, booleans, strings,
  ``None`` — Python's immutable scalars), and
* **pointer identity** for everything else (heap objects), via ``id()``.

Pointer identity prevents two semantically-equal but distinct heap objects
from sharing a node (if only one were later mutated, the shared cached
result would be wrong for the other).  The hash combines
``id()``-based hashes for objects with value hashes for primitives,
mirroring ``System.identityHashCode`` / ``Object.hashCode`` in the paper.

Two float edge cases need sharper-than-``==`` keys, because ``==`` is
coarser than observable behaviour:

* ``0.0 == -0.0`` yet the two are distinguishable inside a check (via
  ``math.copysign``, ``str``, division); keying them together would let
  one invocation serve the other a stale cached result.  Floats are
  therefore keyed by *(type, value, sign bit)* when zero.
* ``nan != nan``, so a NaN-keyed entry could never be found again — every
  call would miss the memo and leak a fresh node into the table (and the
  unequal-to-itself key would break ``contains``/pruning of those
  entries).  NaN is keyed by *identity*: the same NaN object is the same
  invocation; distinct NaN objects are distinct heap-like values.  The
  key's strong reference to the argument keeps the ``id()`` stable.

The same normalization applies recursively inside primitive tuples,
``complex`` components, and frozenset elements.

``ArgsKey`` instances keep strong references to the argument objects, so an
``id()`` can never be recycled while the key is alive.  The memo table keys
its rows by the plain tuple ``(uid, ArgsKey._parts)``; each row's node holds
the arguments themselves (``node.args``), so an ``id()`` in a row's key can
never be recycled while the row is alive either.
"""

from __future__ import annotations

from math import copysign
from typing import Any

#: Types compared and hashed by value.  ``bool`` is a subclass of ``int``;
#: tuples of primitives also compare by value (they are immutable).
_PRIMITIVE_TYPES = (int, float, str, bytes, complex, frozenset, type(None))

#: Exact types whose Python ``==`` / ``hash`` already agree with the memo
#: semantics (no sign-of-zero or NaN pitfalls) — the ``_freeze`` fast path.
_ATOM_TYPES = frozenset((int, bool, str, bytes, type(None)))

#: Tag for identity-keyed (heap) parts; a unique sentinel so an identity
#: part can never collide with a ``(type, value, ...)`` part.
_ID_TAG = object()

#: Tag marking a NaN part (identity-keyed but type-preserving).
_NAN_TAG = "nan"


def is_primitive(value: Any) -> bool:
    """True if ``value`` is compared semantically in memo keys."""
    if isinstance(value, tuple):
        return all(is_primitive(v) for v in value)
    return isinstance(value, _PRIMITIVE_TYPES)


def _freeze_float(t: type, value: float) -> tuple:
    if value != value:  # NaN: identity semantics (see module docstring)
        return (t, _NAN_TAG, id(value))
    if value == 0.0:
        # +0.0 and -0.0 compare equal; the sign bit splits them.
        return (t, value, copysign(1.0, value))
    return (t, value)


def _freeze(value: Any) -> tuple:
    """Canonical, hashable token for one argument: plain tuple equality on
    tokens is exactly the memo-key equality (type-strict semantic equality
    for primitives with float edges resolved, identity for heap objects)."""
    t = value.__class__
    if t in _ATOM_TYPES:
        return (t, value)
    if t is float:
        return _freeze_float(t, value)
    if t is tuple:
        if is_primitive(value):
            return (t, tuple(_freeze(v) for v in value))
        return (_ID_TAG, id(value))
    if t is complex:
        return (t, _freeze_float(float, value.real),
                _freeze_float(float, value.imag))
    if t is frozenset:
        return (t, frozenset(_freeze(v) for v in value))
    # Subclasses of the primitive types keep semantic comparison but stay
    # type-strict (``t`` is the subclass); the float/complex/frozenset
    # normalizations apply to their subclasses too.
    if isinstance(value, tuple):
        if is_primitive(value):
            return (t, tuple(_freeze(v) for v in value))
        return (_ID_TAG, id(value))
    if isinstance(value, _PRIMITIVE_TYPES):
        if isinstance(value, float):
            return _freeze_float(t, value)
        if isinstance(value, complex):
            return (t, _freeze_float(float, value.real),
                    _freeze_float(float, value.imag))
        if isinstance(value, frozenset):
            return (t, frozenset(_freeze(v) for v in value))
        return (t, value)
    return (_ID_TAG, id(value))


class ArgsKey:
    """Hashable key wrapping one explicit-argument tuple."""

    __slots__ = ("args", "_parts", "_hash")

    def __init__(self, args: tuple):
        self.args = args
        self._parts = parts = tuple(map(_freeze, args))
        self._hash = hash(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArgsKey):
            return NotImplemented
        # Tokens carry the argument's type as their first element, so plain
        # tuple equality is type-strict (1, 1.0 and True never collapse)
        # and the float normalizations above are already baked in.
        return self._parts == other._parts

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ArgsKey{self.args!r}"
