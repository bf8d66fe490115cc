"""Memo-key semantics (paper §4 "Hashing of objects"): semantic equality
for primitives, pointer identity for heap objects."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import ArgsKey, TrackedArray, TrackedList, TrackedObject, check
from repro.core.argkeys import is_primitive


class Box(TrackedObject):
    def __init__(self, value):
        self.value = value


class Cell(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def key_probe(x):
    return True


@check
def probe_cells(c):
    if c is None:
        return True
    b1 = key_probe(c.value)
    b2 = probe_cells(c.next)
    return b1 and b2


class TestIsPrimitive:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -5, 3.25, True, False, None, "abc", b"xy", 1 + 2j,
         frozenset({1}), (), (1, "a", None), ((1, 2), (3,))],
    )
    def test_primitives(self, value):
        assert is_primitive(value)

    @pytest.mark.parametrize(
        "value", [[], {}, set(), object(), Box(1), ([1],), (1, [2])]
    )
    def test_non_primitives(self, value):
        assert not is_primitive(value)


class TestArgsKeyEquality:
    def test_equal_primitive_tuples(self):
        assert ArgsKey((1, "a")) == ArgsKey((1, "a"))
        assert hash(ArgsKey((1, "a"))) == hash(ArgsKey((1, "a")))

    def test_semantically_equal_objects_differ(self):
        a, b = Box(1), Box(1)
        assert ArgsKey((a,)) != ArgsKey((b,))

    def test_same_object_identity(self):
        a = Box(1)
        assert ArgsKey((a,)) == ArgsKey((a,))
        assert hash(ArgsKey((a,))) == hash(ArgsKey((a,)))

    def test_type_distinctions(self):
        # 1, 1.0 and True are == in Python but must not share a node.
        assert ArgsKey((1,)) != ArgsKey((1.0,))
        assert ArgsKey((1,)) != ArgsKey((True,))
        assert ArgsKey((0,)) != ArgsKey((False,))

    def test_arity_distinguishes(self):
        assert ArgsKey((1,)) != ArgsKey((1, 1))

    def test_mixed_object_and_primitive(self):
        a = Box(1)
        assert ArgsKey((a, 3)) == ArgsKey((a, 3))
        assert ArgsKey((a, 3)) != ArgsKey((a, 4))

    def test_none_is_semantic(self):
        assert ArgsKey((None,)) == ArgsKey((None,))

    def test_not_equal_to_other_types(self):
        assert ArgsKey((1,)) != (1,)
        assert (ArgsKey((1,)) == (1,)) is False

    def test_repr(self):
        assert "ArgsKey" in repr(ArgsKey((1,)))


class TestArgsKeyHypothesis:
    @given(st.tuples(st.integers(), st.text(), st.booleans()))
    def test_reflexive(self, args):
        assert ArgsKey(args) == ArgsKey(args)
        assert hash(ArgsKey(args)) == hash(ArgsKey(args))

    @given(
        st.lists(st.one_of(st.integers(), st.text(), st.none()), max_size=4),
        st.lists(st.one_of(st.integers(), st.text(), st.none()), max_size=4),
    )
    def test_eq_implies_hash_eq(self, a, b):
        ka, kb = ArgsKey(tuple(a)), ArgsKey(tuple(b))
        if ka == kb:
            assert hash(ka) == hash(kb)
            assert tuple(a) == tuple(b)

    @given(st.integers())
    def test_usable_as_dict_key(self, n):
        table = {ArgsKey((n,)): "x"}
        assert table[ArgsKey((n,))] == "x"


class TestHashCollisions:
    """Keys whose *hashes* collide must still compare unequal — the memo
    table then probes past the collision instead of aliasing two
    invocations onto one node."""

    def test_minus_one_minus_two(self):
        # CPython quirk: hash(-1) == hash(-2) == -2.
        ka, kb = ArgsKey((-1,)), ArgsKey((-2,))
        assert hash(-1) == hash(-2)  # the premise of the test
        assert ka != kb
        table = {ka: "a", kb: "b"}
        assert table[ArgsKey((-1,))] == "a"
        assert table[ArgsKey((-2,))] == "b"

    def test_numeric_tower_collides_but_never_aliases(self):
        # hash(True) == hash(1) == hash(1.0), yet each type gets its own
        # invocation (the engine's type-strict semantic equality).
        keys = [ArgsKey((True,)), ArgsKey((1,)), ArgsKey((1.0,))]
        assert hash(True) == hash(1) == hash(1.0)
        table = {k: i for i, k in enumerate(keys)}
        assert len(table) == 3
        assert table[ArgsKey((True,))] == 0
        assert table[ArgsKey((1,))] == 1
        assert table[ArgsKey((1.0,))] == 2

    def test_zero_tower(self):
        table = {ArgsKey((0,)): "int", ArgsKey((False,)): "bool",
                 ArgsKey((0.0,)): "float"}
        assert len(table) == 3
        assert table[ArgsKey((False,))] == "bool"

    def test_nested_tuple_collision(self):
        # Same-hash, different-type leaves inside primitive tuples.
        ka, kb = ArgsKey(((1, -1),)), ArgsKey(((1.0, -2),))
        assert ka != kb
        assert {ka: 1, kb: 2}[ArgsKey(((1, -1),))] == 1


class TestMutableArguments:
    """Heap objects key by identity: equal contents never alias, and
    mutation never migrates an invocation to a different node."""

    def test_equal_content_lists_do_not_alias(self):
        a, b = [1, 2, 3], [1, 2, 3]
        ka, kb = ArgsKey((a,)), ArgsKey((b,))
        assert a == b and ka != kb
        table = {ka: "a", kb: "b"}
        assert table[ArgsKey((a,))] == "a"
        assert table[ArgsKey((b,))] == "b"

    def test_mutation_does_not_change_key(self):
        # The classic mutable-default-argument trap: the same list object
        # reused across calls is the *same* invocation even after it has
        # been mutated in place (id-based hashing is mutation-stable).
        shared = []
        key_before = ArgsKey((shared,))
        table = {key_before: "node"}
        shared.append(42)
        assert ArgsKey((shared,)) == key_before
        assert hash(ArgsKey((shared,))) == hash(key_before)
        assert table[ArgsKey((shared,))] == "node"

    def test_equal_content_dicts_and_boxes(self):
        d1, d2 = {"k": 1}, {"k": 1}
        assert ArgsKey((d1,)) != ArgsKey((d2,))
        b1, b2 = Box(7), Box(7)
        table = {ArgsKey((b1,)): 1, ArgsKey((b2,)): 2}
        assert len(table) == 2

    def test_key_keeps_argument_alive(self):
        # Strong reference: the id() in the key can never be recycled by
        # a newly allocated object while the memo entry lives.
        key = ArgsKey(([1, 2],))
        assert key.args[0] == [1, 2]
        churn = [[i] for i in range(1000)]  # allocation pressure
        del churn
        assert ArgsKey((key.args[0],)) == key

    def test_mixed_identity_and_collision(self):
        box = Box(0)
        ka, kb = ArgsKey((box, -1)), ArgsKey((box, -2))
        assert ka != kb
        assert {ka: "a", kb: "b"}[ArgsKey((box, -2))] == "b"


class TestFloatEdges:
    """The IEEE-754 edge cases of float-keyed invocations.

    ``0.0 == -0.0`` yet ``1/0.0 != 1/-0.0``: sharing a memo node between
    the two zeros serves one sign's result for the other.  ``nan != nan``
    (even to itself) means value-equality keys can never memo-hit a NaN
    invocation, leaking one fresh node per run.  Keys therefore encode the
    sign bit of zeros and fall back to identity for NaN."""

    def test_signed_zeros_do_not_alias(self):
        ka, kb = ArgsKey((0.0,)), ArgsKey((-0.0,))
        assert 0.0 == -0.0  # the premise: Python equality conflates them
        assert ka != kb
        table = {ka: "pos", kb: "neg"}
        assert len(table) == 2
        assert table[ArgsKey((0.0,))] == "pos"
        assert table[ArgsKey((-0.0,))] == "neg"

    def test_signed_zeros_nested_in_tuples(self):
        assert ArgsKey(((0.0, 1),)) != ArgsKey(((-0.0, 1),))
        assert ArgsKey((complex(0.0, 0.0),)) == ArgsKey((complex(0.0, 0.0),))

    def test_nonzero_floats_stay_semantic(self):
        assert ArgsKey((1.5,)) == ArgsKey((1.5,))
        assert hash(ArgsKey((1.5,))) == hash(ArgsKey((1.5,)))
        assert ArgsKey((0.0,)) == ArgsKey((0.0,))
        assert ArgsKey((-0.0,)) == ArgsKey((-0.0,))

    def test_same_nan_object_memo_hits(self):
        nan = float("nan")
        ka, kb = ArgsKey((nan,)), ArgsKey((nan,))
        assert nan != nan  # the premise: value equality can never hit
        assert ka == kb
        assert hash(ka) == hash(kb)
        assert {ka: "node"}[kb] == "node"

    def test_distinct_nan_objects_do_not_alias(self):
        # Different NaN payload/object: identity semantics, like heap args.
        a, b = float("nan"), float("nan")
        assert a is not b
        assert ArgsKey((a,)) != ArgsKey((b,))

    def test_float_subclass_zero_keeps_type_tag(self):
        class MyFloat(float):
            pass

        assert ArgsKey((MyFloat(0.0),)) != ArgsKey((0.0,))
        assert ArgsKey((MyFloat(0.0),)) == ArgsKey((MyFloat(0.0),))


class TestFloatEdgesEngine:
    """End-to-end regressions: the unsound aliasing observable through a
    real engine (stale result for the other zero; NaN node leak)."""

    def test_negative_zero_not_served_stale_result(self, engine_factory):
        @check
        def renders_negative(x):
            return str(x) == "-0.0"

        engine = engine_factory(renders_negative)
        # Pinned differential corpus entry: scratch execution of the
        # uninstrumented check is ground truth at every step.
        assert engine.run(0.0) is renders_negative.original(0.0) is False
        # Before the sign-bit fix this reused the 0.0 node: False.
        assert engine.run(-0.0) is renders_negative.original(-0.0) is True

    def test_nan_reruns_do_not_leak_nodes(self, engine_factory):
        @check
        def self_equal(x):
            return x == x

        nan = float("nan")
        engine = engine_factory(self_equal)
        assert engine.run(nan) is False
        size = engine.graph_size
        created = engine.stats.nodes_created
        for _ in range(5):
            assert engine.run(nan) is False
        # Before the identity fix every rerun missed the memo probe and
        # minted a fresh root node.
        assert engine.graph_size == size
        assert engine.stats.nodes_created == created


class TestMemoKeyParityEngine:
    """The compiled call closure builds its memo key without an ``ArgsKey``;
    its probe must still split and merge calls exactly as ``ArgsKey``
    equality does."""

    def test_dcall_probe_matches_argskey(self, engine_factory):
        nan, other_nan = float("nan"), float("nan")
        values = [
            1, 1.0, True, 0.0, -0.0, nan, nan, other_nan,
            tuple([1, 2]), tuple([1, 2]), Box(5), Box(5), None,
        ]
        # No leaf calls: key_probe(None) must be a memoized call too.
        engine = engine_factory(probe_cells, leaf_optimization=False)

        def probe_nodes():
            return sum(1 for n in engine.table if n.func is key_probe)

        seen: set[ArgsKey] = set()
        head = None
        for value in values:
            key = ArgsKey((value,))
            is_new = key not in seen
            seen.add(key)
            head = Cell(value, head)  # the new root calls key_probe(value)
            before = probe_nodes()
            assert engine.run(head) is True
            assert probe_nodes() == before + is_new, (value, is_new)
        assert probe_nodes() == len(seen) == 11


class _Int(int):
    pass


class _Float(float):
    pass


class _Tuple(tuple):
    pass


class TestMemoKeyParityCorpus:
    """Every row key the compiled call closure stores is exactly
    ``(uid, ArgsKey(args)._parts)``: the inline spelling for exact atoms
    and tracked containers and ``_freeze`` for everything else agree."""

    def test_stored_keys_equal_argskey_parts(self, engine_factory):
        corpus = [
            1, True, 1.0, 0.0, -0.0, float("nan"),
            "s", b"b", None,
            (1, "a", (2.5, None)), (1, Box(0)),
            _Int(3), _Float(-0.0), _Tuple((1, 2)),
            complex(1, -0.0), frozenset({1, "x"}),
            Box(1), TrackedArray([1]), TrackedList([2]), object(),
        ]
        # No leaf calls: key_probe(None) must be a memoized call too.
        engine = engine_factory(probe_cells, leaf_optimization=False)
        head = None
        for value in corpus:
            head = Cell(value, head)
        assert engine.run(head) is True
        rows = list(engine.table.entries())
        for key, node in rows:
            assert key == (node.func.uid, ArgsKey(node.args)._parts)
        probed = {key for key, node in rows if node.func is key_probe}
        assert probed == {
            (key_probe.uid, ArgsKey((value,))._parts) for value in corpus
        }
        assert len(probed) == len(corpus)
