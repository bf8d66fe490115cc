"""Per-structure adapters between the fuzzer and the registered structures.

A :class:`StructureModel` tells the harness everything it needs to fuzz one
structure: how to build a fresh instance, which invariant entry point to
incrementalize, what the entry arguments are, and which operations exist —
each with a weight and a primitive-argument sampler.

Design rules that keep traces shrinkable and replayable:

* **Total application.**  ``apply`` never raises for any argument values:
  index arguments are taken modulo the current size, pops on empty
  structures are no-ops, deletes of absent keys return ``False``.  The
  delta-debugging shrinker removes arbitrary subsets of ops, so every op
  must stay meaningful on whatever state the surviving prefix produces.
  An exception escaping ``apply`` is therefore always a genuine structure
  bug, and the oracle reports it as a divergence.

* **Primitive arguments only.**  Ops may carry ints and short strings,
  never object references, so a trace serializes to a replay file.

* **Bounded universes.**  Keys/values are drawn from small ranges so
  random deletes actually hit, hash buckets collide, and rebalancing
  paths (rotations, splits, merges, rehashes) fire within a few hundred
  ops.

* **Reversible corruption where mutators need consistency.**  Direct
  field writes through the write barriers (the structures' ``corrupt*``
  helpers) are the most valuable steps — they force ``False`` results and
  repair transitions.  Structures whose *mutators* would misbehave on a
  corrupted instance (trees navigating by ordering, ropes navigating by
  cached weights) emit the corruption as a ``corrupt → @check → revert``
  triple; structures whose mutators tolerate arbitrary contents leave the
  corruption in place.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from ..structures import (
    AVLTree,
    BinaryHeap,
    BTree,
    DisjointHeapPair,
    DoublyLinkedList,
    HashTable,
    IntVector,
    OrderedIntList,
    RedBlackTree,
    Rope,
    SkipList,
    avl_invariant,
    btree_invariant,
    dll_invariant,
    hash_table_invariant,
    heap_invariant,
    heaps_disjoint,
    is_ordered,
    rbt_invariant,
    rope_invariant,
    skip_list_invariant,
    vector_digest,
)
from .trace import CHECK_OP, Op


class OpSpec:
    """One fuzzable operation: a weighted primitive-argument sampler plus
    an optional revert sampler (presence makes the generator emit the
    ``corrupt → @check → revert`` triple)."""

    __slots__ = ("name", "weight", "draw", "revert")

    def __init__(
        self,
        name: str,
        weight: int,
        draw: Callable[[random.Random], tuple],
        revert: Optional[Callable[[tuple], Op]] = None,
    ):
        self.name = name
        self.weight = weight
        self.draw = draw
        self.revert = revert


class StructureModel:
    """Adapter between the harness and one registered structure."""

    #: Registry key and CLI name.
    name: str = ""
    #: The invariant entry point (a ``@check`` function).
    entry: Any = None
    #: Operations the generator may emit.
    specs: tuple[OpSpec, ...] = ()

    def fresh(self) -> Any:
        """A new, empty structure instance."""
        raise NotImplementedError

    def check_args(self, structure: Any) -> tuple:
        """Entry-point arguments for the invariant on ``structure``."""
        raise NotImplementedError

    def apply(self, structure: Any, op: Op) -> Any:
        """Apply one mutation op; must be total (see module docstring)."""
        raise NotImplementedError

    # Generation helper shared by every model. -------------------------------

    def random_ops(self, rng: random.Random) -> list[Op]:
        """One weighted random op — expanded to a corrupt/check/revert
        triple when the spec declares a revert."""
        spec = rng.choices(self.specs, [s.weight for s in self.specs])[0]
        args = spec.draw(rng)
        op = Op(spec.name, args)
        if spec.revert is not None:
            return [op, CHECK_OP, spec.revert(args)]
        return [op]

    def _unknown(self, op: Op) -> None:
        raise ValueError(f"{self.name} model has no op {op.name!r}")


# Argument samplers shared across models: small universes on purpose.
def _key(rng: random.Random) -> tuple:
    return (rng.randrange(0, 41),)


def _key_value(rng: random.Random) -> tuple:
    return (rng.randrange(0, 41), rng.randrange(-20, 61))


def _index_value(rng: random.Random) -> tuple:
    return (rng.randrange(0, 64), rng.randrange(-20, 61))


def _nothing(rng: random.Random) -> tuple:
    return ()


def _mod_index(index: int, size: int) -> int:
    """Clamp a raw sampled index onto the current occupancy."""
    return index % size if size > 0 else 0


class OrderedListModel(StructureModel):
    name = "ordered_list"
    entry = is_ordered
    specs = (
        OpSpec("insert", 5, _key),
        OpSpec("delete", 2, _key),
        OpSpec("delete_first", 1, _nothing),
        OpSpec("corrupt", 1, _index_value),
    )

    def fresh(self) -> OrderedIntList:
        return OrderedIntList()

    def check_args(self, lst: OrderedIntList) -> tuple:
        return (lst.head,)

    def apply(self, lst: OrderedIntList, op: Op) -> Any:
        if op.name == "insert":
            return lst.insert(op.args[0])
        if op.name == "delete":
            return lst.delete(op.args[0])
        if op.name == "delete_first":
            return lst.delete_first()
        if op.name == "corrupt":
            if len(lst) == 0:
                return None
            return lst.corrupt(_mod_index(op.args[0], len(lst)), op.args[1])
        self._unknown(op)


class HashTableModel(StructureModel):
    name = "hash_table"
    entry = hash_table_invariant
    specs = (
        OpSpec("put", 5, _key_value),
        OpSpec("remove", 2, _key),
        OpSpec("corrupt", 1, _key),
        OpSpec("purge", 1, _key),
    )

    def fresh(self) -> HashTable:
        # Tiny initial capacity: a few dozen puts force several rehashes.
        return HashTable(capacity=4)

    def check_args(self, table: HashTable) -> tuple:
        return (table,)

    def apply(self, table: HashTable, op: Op) -> Any:
        if op.name == "put":
            return table.put(op.args[0], op.args[1])
        if op.name == "remove":
            return table.remove(op.args[0])
        if op.name == "corrupt":
            return table.corrupt(op.args[0])
        if op.name == "purge":
            return table.purge(op.args[0])
        self._unknown(op)


class RedBlackTreeModel(StructureModel):
    name = "red_black_tree"
    entry = rbt_invariant
    specs = (
        OpSpec(
            "corrupt_color",
            1,
            _key,
            revert=lambda args: Op("corrupt_color", args),
        ),
        OpSpec("insert", 5, _key),
        OpSpec("delete", 2, _key),
    )

    def fresh(self) -> RedBlackTree:
        return RedBlackTree()

    def check_args(self, tree: RedBlackTree) -> tuple:
        return (tree,)

    def apply(self, tree: RedBlackTree, op: Op) -> Any:
        if op.name == "insert":
            return tree.insert(op.args[0])
        if op.name == "delete":
            return tree.delete(op.args[0])
        if op.name == "corrupt_color":
            return tree.corrupt_color(op.args[0])
        self._unknown(op)


class AVLTreeModel(StructureModel):
    name = "avl_tree"
    entry = avl_invariant
    specs = (
        OpSpec(
            "corrupt_height",
            1,
            lambda rng: (rng.randrange(0, 41), rng.randrange(0, 12)),
            revert=lambda args: Op("fix_heights"),
        ),
        OpSpec("insert", 5, _key),
        OpSpec("delete", 2, _key),
    )

    def fresh(self) -> AVLTree:
        return AVLTree()

    def check_args(self, tree: AVLTree) -> tuple:
        return (tree,)

    def apply(self, tree: AVLTree, op: Op) -> Any:
        if op.name == "insert":
            return tree.insert(op.args[0])
        if op.name == "delete":
            return tree.delete(op.args[0])
        if op.name == "corrupt_height":
            return tree.corrupt_height(op.args[0], op.args[1])
        if op.name == "fix_heights":
            return self._fix_heights(tree.root)
        self._unknown(op)

    def _fix_heights(self, node: Any) -> int:
        """Deterministic repair: recompute every cached height bottom-up
        (writes go through the barriers, so engines see the repair)."""
        if node is None:
            return 0
        height = 1 + max(
            self._fix_heights(node.left), self._fix_heights(node.right)
        )
        if node.height != height:
            node.height = height
        return height


class BinaryHeapModel(StructureModel):
    name = "binary_heap"
    entry = heap_invariant
    specs = (
        OpSpec("push", 5, lambda rng: (rng.randrange(-20, 61),)),
        OpSpec("pop", 2, _nothing),
        OpSpec("corrupt", 1, _index_value),
    )

    def fresh(self) -> BinaryHeap:
        return BinaryHeap(capacity=4)

    def check_args(self, heap: BinaryHeap) -> tuple:
        return (heap,)

    def apply(self, heap: BinaryHeap, op: Op) -> Any:
        if op.name == "push":
            return heap.push(op.args[0])
        if op.name == "pop":
            return heap.pop() if len(heap) > 0 else None
        if op.name == "corrupt":
            if len(heap) == 0:
                return None
            return heap.corrupt(_mod_index(op.args[0], len(heap)), op.args[1])
        self._unknown(op)


class BTreeModel(StructureModel):
    name = "btree"
    entry = btree_invariant
    specs = (
        OpSpec(
            "corrupt_key",
            1,
            # Replacement keys live in a disjoint range so the revert's
            # exhaustive scan finds exactly the corrupted cell.
            lambda rng: (rng.randrange(0, 41), 1000 + rng.randrange(0, 100)),
            revert=lambda args: Op("corrupt_key", (args[1], args[0])),
        ),
        # corrupt_count is applicable (for hand-written traces) but not
        # generated: an out-of-range count makes the *check itself* compare
        # None keys, which is a crash of the invariant, not of the engine.
        OpSpec("insert", 5, _key),
        OpSpec("delete", 2, _key),
    )

    def fresh(self) -> BTree:
        # Minimum degree 2: splits and merges fire after a handful of ops.
        return BTree(t=2)

    def check_args(self, tree: BTree) -> tuple:
        return (tree,)

    def apply(self, tree: BTree, op: Op) -> Any:
        if op.name == "insert":
            return tree.insert(op.args[0])
        if op.name == "delete":
            return tree.delete(op.args[0])
        if op.name == "corrupt_key":
            return tree.corrupt_key(op.args[0], op.args[1])
        if op.name == "corrupt_count":
            return tree.corrupt_count(op.args[0])
        self._unknown(op)


class DisjointnessModel(StructureModel):
    name = "disjointness"
    entry = heaps_disjoint
    specs = (
        OpSpec(
            "corrupt_duplicate",
            1,
            _nothing,
            revert=lambda args: Op("repair_duplicates"),
        ),
        OpSpec("submit", 4, lambda rng: (rng.randrange(0, 31),)),
        OpSpec("activate", 2, _nothing),
        OpSpec("complete", 2, _nothing),
        OpSpec("suspend", 1, _nothing),
    )

    def fresh(self) -> DisjointHeapPair:
        return DisjointHeapPair(capacity=8)

    def check_args(self, pair: DisjointHeapPair) -> tuple:
        return (pair,)

    def apply(self, pair: DisjointHeapPair, op: Op) -> Any:
        if op.name == "submit":
            return pair.submit(op.args[0])
        if op.name == "activate":
            return pair.activate()
        if op.name == "complete":
            return pair.complete()
        if op.name == "suspend":
            return pair.suspend()
        if op.name == "corrupt_duplicate":
            return pair.corrupt_duplicate()
        if op.name == "repair_duplicates":
            return self._repair_duplicates(pair)
        self._unknown(op)

    def _repair_duplicates(self, pair: DisjointHeapPair) -> int:
        """Deterministic repair: drop from ``ready`` every value that also
        occurs in ``waiting`` (rebuilding ready through push, so every
        write is barriered)."""
        waiting = {pair.waiting.items[i] for i in range(len(pair.waiting))}
        survivors = []
        removed = 0
        while len(pair.ready) > 0:
            value = pair.ready.pop()
            if value in waiting:
                removed += 1
            else:
                survivors.append(value)
        for value in survivors:
            pair.ready.push(value)
        return removed


class SkipListModel(StructureModel):
    name = "skip_list"
    entry = skip_list_invariant
    specs = (
        OpSpec("insert", 5, _key),
        OpSpec("delete", 2, _key),
        OpSpec(
            "corrupt_value",
            1,
            lambda rng: (rng.randrange(0, 41), rng.randrange(-10, 61)),
        ),
    )

    def fresh(self) -> SkipList:
        # Fixed tower-height seed: replays rebuild identical level shapes.
        return SkipList(seed=0xACE1)

    def check_args(self, sl: SkipList) -> tuple:
        return (sl,)

    def apply(self, sl: SkipList, op: Op) -> Any:
        if op.name == "insert":
            return sl.insert(op.args[0])
        if op.name == "delete":
            return sl.delete(op.args[0])
        if op.name == "corrupt_value":
            return sl.corrupt_value(op.args[0], op.args[1])
        self._unknown(op)


class DoublyLinkedListModel(StructureModel):
    name = "doubly_linked_list"
    entry = dll_invariant
    specs = (
        OpSpec(
            "corrupt_back_pointer",
            1,
            lambda rng: (rng.randrange(0, 64),),
            revert=lambda args: Op("fix_links"),
        ),
        OpSpec("push_front", 3, lambda rng: (rng.randrange(0, 100),)),
        OpSpec("push_back", 3, lambda rng: (rng.randrange(0, 100),)),
        OpSpec("pop_front", 2, _nothing),
        OpSpec("pop_back", 2, _nothing),
        OpSpec(
            "insert_after", 2, lambda rng: (rng.randrange(0, 64), rng.randrange(0, 100))
        ),
    )

    def fresh(self) -> DoublyLinkedList:
        return DoublyLinkedList()

    def check_args(self, lst: DoublyLinkedList) -> tuple:
        return (lst,)

    def apply(self, lst: DoublyLinkedList, op: Op) -> Any:
        if op.name == "push_front":
            return lst.push_front(op.args[0])
        if op.name == "push_back":
            return lst.push_back(op.args[0])
        if op.name == "pop_front":
            return lst.pop_front() if len(lst) > 0 else None
        if op.name == "pop_back":
            return lst.pop_back() if len(lst) > 0 else None
        if op.name == "insert_after":
            if len(lst) == 0:
                return lst.push_back(op.args[1])
            node = lst.head
            for _ in range(_mod_index(op.args[0], len(lst))):
                node = node.next
            return lst.insert_after(node, op.args[1])
        if op.name == "corrupt_back_pointer":
            if len(lst) == 0:
                return None
            return lst.corrupt_back_pointer(_mod_index(op.args[0], len(lst)))
        if op.name == "fix_links":
            return self._fix_links(lst)
        self._unknown(op)

    def _fix_links(self, lst: DoublyLinkedList) -> None:
        """Deterministic repair: rebuild every ``prev`` pointer (and the
        tail) from the forward chain."""
        prev = None
        node = lst.head
        while node is not None:
            if node.prev is not prev:
                node.prev = prev
            prev, node = node, node.next
        if lst.tail is not prev:
            lst.tail = prev


def _raw_index(rng: random.Random) -> int:
    """An index sampled well past either end of any reachable occupancy —
    the barrier hot path must clamp (``insert``), raise cleanly without
    logging (``pop``), or normalize (negative values).  The two confirmed
    TrackedList staleness bugs lived exactly in this regime, which no
    clamped ``_mod_index`` sampler ever reached."""
    return rng.randrange(-160, 224)


class IntVectorModel(StructureModel):
    """Fuzzes the TrackedList barrier itself; see
    :mod:`repro.structures.int_vector`.

    Unlike every other model, the index arguments of ``insert`` and
    ``pop`` are applied *raw* — out-of-range and negative values included.
    ``apply`` stays total: a clamped ``insert`` is list semantics, and an
    out-of-range ``pop`` is absorbed here (the raise itself is part of the
    contract under test and has its own regression tests)."""

    name = "int_vector"
    entry = vector_digest
    #: Sizes stay below this so recursive checks fit the default stack
    #: even outside the recursion-limit-raising test harness.
    MAX_LEN = 96
    specs = (
        OpSpec("append", 4, lambda rng: (rng.randrange(-20, 61),)),
        OpSpec(
            "insert", 4, lambda rng: (_raw_index(rng), rng.randrange(-20, 61))
        ),
        OpSpec("pop", 3, lambda rng: (_raw_index(rng),)),
        OpSpec("corrupt", 1, _index_value),
    )

    def fresh(self) -> IntVector:
        return IntVector([])

    def check_args(self, v: IntVector) -> tuple:
        return (v,)

    def apply(self, v: IntVector, op: Op) -> Any:
        if op.name == "append":
            if len(v) >= self.MAX_LEN:
                return None
            return v.append(op.args[0])
        if op.name == "insert":
            if len(v) >= self.MAX_LEN:
                return None
            return v.insert(op.args[0], op.args[1])
        if op.name == "pop":
            try:
                return v.pop(op.args[0])
            except IndexError:
                return None
        if op.name == "corrupt":
            if len(v) == 0:
                return None
            v[_mod_index(op.args[0], len(v))] = op.args[1]
            return None
        self._unknown(op)


_ALPHABET = "abcdef"


def _text(rng: random.Random) -> str:
    return "".join(
        rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 5))
    )


class RopeModel(StructureModel):
    name = "rope"
    entry = rope_invariant
    specs = (
        OpSpec(
            "corrupt_weight",
            1,
            lambda rng: (1,),
            revert=lambda args: Op("corrupt_weight", (-args[0],)),
        ),
        OpSpec("insert", 4, lambda rng: (rng.randrange(0, 256), _text(rng))),
        OpSpec("append", 2, lambda rng: (_text(rng),)),
        OpSpec(
            "delete", 2, lambda rng: (rng.randrange(0, 256), rng.randrange(1, 8))
        ),
    )

    def fresh(self) -> Rope:
        return Rope("")

    def check_args(self, rope: Rope) -> tuple:
        return (rope,)

    def apply(self, rope: Rope, op: Op) -> Any:
        if op.name == "insert":
            return rope.insert(op.args[0] % (len(rope) + 1), op.args[1])
        if op.name == "append":
            return rope.append(op.args[0])
        if op.name == "delete":
            n = len(rope)
            if n == 0:
                return None
            start = op.args[0] % n
            return rope.delete(start, min(start + op.args[1], n))
        if op.name == "corrupt_weight":
            return rope.corrupt_weight(op.args[0])
        self._unknown(op)


#: All registered models, in the canonical (CLI/report) order.
MODELS: dict[str, StructureModel] = {
    model.name: model
    for model in (
        OrderedListModel(),
        HashTableModel(),
        RedBlackTreeModel(),
        AVLTreeModel(),
        BinaryHeapModel(),
        BTreeModel(),
        DisjointnessModel(),
        SkipListModel(),
        DoublyLinkedListModel(),
        RopeModel(),
        IntVectorModel(),
    )
}


def model_names() -> list[str]:
    return list(MODELS)


def get_model(name: str) -> StructureModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown structure {name!r}; registered: {', '.join(MODELS)}"
        ) from None
