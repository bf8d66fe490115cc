"""Data structures and their invariant checks.

Each module ships a tracked data structure plus invariant checks written in
the paper's style: recursive, side-effect-free functions combining local
properties without short-circuiting over callee results.  The first three
are the paper's benchmark structures (§5.1); the rest extend the evaluation
to additional classic structures.
"""

from .ordered_list import IntListElem, OrderedIntList, is_ordered
from .hash_table import (
    HashElement,
    HashTable,
    check_hash_buckets,
    check_hash_elements,
    hash_table_invariant,
)
from .red_black_tree import (
    BLACK,
    NIL,
    RED,
    RBNode,
    RedBlackTree,
    check_black_depth,
    is_red_black,
    rbt_invariant,
    rbt_is_ordered,
)
from .avl_tree import (
    AVLNode,
    AVLTree,
    avl_invariant,
    avl_is_ordered,
    check_avl_height,
)
from .binary_heap import BinaryHeap, check_heap_order, heap_invariant
from .int_vector import (
    IntVector,
    vector_checksum_from,
    vector_digest,
    vector_tail,
)
from .btree import BTree, BTreeNode, btree_invariant
from .disjointness import (
    DisjointHeapPair,
    check_disjoint_from,
    heaps_disjoint,
    value_in_heap,
)
from .skip_list import SkipList, SkipNode, skip_list_invariant
from .doubly_linked_list import (
    DLLNode,
    DoublyLinkedList,
    dll_invariant,
)
from .rope import (
    Rope,
    RopeConcat,
    RopeLeaf,
    check_rope_leaves,
    check_rope_weights,
    rope_invariant,
)

__all__ = [
    "AVLNode",
    "AVLTree",
    "avl_invariant",
    "avl_is_ordered",
    "NIL",
    "BinaryHeap",
    "BLACK",
    "BTree",
    "BTreeNode",
    "btree_invariant",
    "check_avl_height",
    "check_black_depth",
    "check_disjoint_from",
    "DisjointHeapPair",
    "heaps_disjoint",
    "value_in_heap",
    "check_hash_buckets",
    "check_hash_elements",
    "check_heap_order",
    "dll_invariant",
    "DLLNode",
    "DoublyLinkedList",
    "HashElement",
    "hash_table_invariant",
    "HashTable",
    "heap_invariant",
    "IntListElem",
    "IntVector",
    "is_ordered",
    "is_red_black",
    "OrderedIntList",
    "RBNode",
    "rbt_invariant",
    "rbt_is_ordered",
    "RED",
    "RedBlackTree",
    "Rope",
    "rope_invariant",
    "RopeConcat",
    "RopeLeaf",
    "check_rope_leaves",
    "check_rope_weights",
    "SkipList",
    "skip_list_invariant",
    "SkipNode",
    "vector_checksum_from",
    "vector_digest",
    "vector_tail",
]
