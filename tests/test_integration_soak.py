"""Integration soak: several engines over several structures in one
process, long mixed scenarios with periodic internal validation.

This is the closest test to the paper's deployment story — a program with
many live data structures, each carrying always-on incremental invariant
checks through thousands of operations.
"""

from __future__ import annotations

import random

from repro import DittoEngine, tracking_state
from repro.apps import (
    JsObfuscator,
    NetcolsBot,
    NetcolsGame,
    generate_program,
    jso_invariant,
    netcols_invariant,
)
from repro.structures import (
    AVLTree,
    BTree,
    HashTable,
    OrderedIntList,
    RedBlackTree,
    avl_invariant,
    btree_invariant,
    hash_table_invariant,
    is_ordered,
    rbt_invariant,
)


class TestWholeProgramSoak:
    def test_five_structures_two_apps_interleaved(self, engine_factory):
        rng = random.Random(0xACE)

        lst = OrderedIntList()
        table = HashTable()
        rbt = RedBlackTree()
        avl = AVLTree()
        btree = BTree(t=3)
        game = NetcolsGame(10, 16)
        bot = NetcolsBot(game, seed=5)
        jso = JsObfuscator()
        chunks = iter(generate_program(2000, seed=6))

        engines = {
            "list": engine_factory(is_ordered),
            "hash": engine_factory(hash_table_invariant),
            "rbt": engine_factory(rbt_invariant),
            "avl": engine_factory(avl_invariant),
            "btree": engine_factory(btree_invariant),
            "game": engine_factory(netcols_invariant),
            "jso": engine_factory(jso_invariant),
        }
        values: list[int] = []

        def check_all():
            assert engines["list"].run(lst.head) is True
            assert engines["hash"].run(table) is True
            assert engines["rbt"].run(rbt) is True
            assert engines["avl"].run(avl) is True
            assert engines["btree"].run(btree) is True
            assert engines["game"].run(game) is True
            assert engines["jso"].run(jso) is True

        check_all()
        for step in range(600):
            victim = rng.randrange(7)
            if victim == 0:
                if rng.random() < 0.6 or not values:
                    v = rng.randrange(10_000)
                    lst.insert(v)
                    values.append(v)
                else:
                    lst.delete(values.pop(rng.randrange(len(values))))
            elif victim == 1:
                k = rng.randrange(500)
                if rng.random() < 0.6:
                    table.put(k, k)
                else:
                    table.remove(k)
            elif victim == 2:
                k = rng.randrange(500)
                if rng.random() < 0.6:
                    rbt.insert(k)
                else:
                    rbt.delete(k)
            elif victim == 3:
                k = rng.randrange(500)
                if rng.random() < 0.6:
                    avl.insert(k)
                else:
                    avl.delete(k)
            elif victim == 4:
                k = rng.randrange(500)
                if rng.random() < 0.6:
                    btree.insert(k)
                else:
                    btree.delete(k)
            elif victim == 5:
                bot.step()
            else:
                jso.feed(next(chunks))
            # Only the touched structure's engine runs each step — the
            # others must stay coherent regardless.
            check_all()
            if step % 120 == 0:
                for engine in engines.values():
                    engine.validate()

        for engine in engines.values():
            engine.validate()
        # From-scratch agreement at the end of the soak.
        assert is_ordered(lst.head) is True
        assert hash_table_invariant(table) is True
        assert rbt_invariant(rbt) is True
        assert avl_invariant(avl) is True
        assert btree_invariant(btree) is True
        assert netcols_invariant(game) is True
        assert jso_invariant(jso) is True

    def test_write_log_bounded_through_soak(self, engine_factory):
        engine = engine_factory(is_ordered)
        lst = OrderedIntList()
        rng = random.Random(3)
        engine.run(lst.head)
        for _ in range(800):
            if rng.random() < 0.6 or len(lst) == 0:
                lst.insert(rng.randrange(1000))
            else:
                lst.delete_first()
            engine.run(lst.head)
        # The single consumer keeps up, so the global log stays compacted.
        assert len(tracking_state().write_log) == 0
        engine.validate()

    def test_engine_churn_lifecycle(self):
        """Creating and closing many engines must not leak monitored
        fields, log consumers, or reference counts."""
        lst = OrderedIntList()
        for v in range(30):
            lst.insert(v)
        for _ in range(20):
            engine = DittoEngine(is_ordered)
            assert engine.run(lst.head) is True
            engine.close()
        assert not tracking_state().is_monitored("next")
        assert lst.head._ditto.refcount == 0
        assert len(tracking_state().write_log) == 0
