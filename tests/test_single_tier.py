"""One execution tier: every engine runs the compiled closures, and the
Figure 3 view renders exactly the rewrite that runs.

``instrumented_source()`` spells each diverted operation as a call on
``__ditto_rt__`` (the paper's Figure 3 shape); the compiled check spells
the same operation as a pre-bound closure.  Mapping one spelling onto the
other must reproduce the compiled source byte for byte, so the view
cannot drift from the code the engine executes.
"""

from __future__ import annotations

import re

import pytest

from repro import DittoEngine
from repro.apps.jso import jso_invariant
from repro.apps.netcols import netcols_invariant
from repro.structures import IntVector, vector_digest
from repro.structures.hash_table import hash_table_invariant
from repro.structures.ordered_list import is_ordered
from repro.structures.red_black_tree import rbt_invariant

PAPER_CHECKS = {
    "is_ordered": is_ordered,
    "hash_table_invariant": hash_table_invariant,
    "rbt_invariant": rbt_invariant,
    "netcols_invariant": netcols_invariant,
    "jso_invariant": jso_invariant,
}

#: Figure 3 spelling -> compiled closure spelling.
CLOSURE_SPELLINGS = {
    "__ditto_rt__.get_attr(": "__dget__(",
    "__ditto_rt__.get_item(": "__ditem__(",
    "__ditto_rt__.get_len(": "__dlen__(",
    "__ditto_rt__.helper(": "__dhelper__(",
    "__ditto_rt__.method(": "__dmethod__(",
}


def _as_compiled(source: str, name: str) -> str:
    """Respell a Figure 3 rendering the way the engine compiles it."""
    source = re.sub(
        r"__ditto_rt__\.call\((\d+)(?:, )?", r"__dcall_\1__(", source
    )
    for figure3, closure in CLOSURE_SPELLINGS.items():
        source = source.replace(figure3, closure)
    return re.sub(
        rf"^def {name}\(", f"def __ditto_{name}__(", source, flags=re.M
    )


@pytest.mark.parametrize("mode", ["ditto", "naive"])
def test_every_engine_compiles_the_one_tier(mode, monkeypatch):
    # The retired tier switch no longer selects anything.
    monkeypatch.setenv("DITTO_SPECIALIZE", "0")
    engine = DittoEngine(rbt_invariant, mode=mode, recursion_limit=None)
    try:
        assert engine._compiled
        assert all(
            getattr(compiled, "__ditto_specialized__", False)
            for compiled in engine._compiled.values()
        )
    finally:
        engine.close()
    with pytest.raises(TypeError):
        DittoEngine(rbt_invariant, specialize="off")


def test_every_engine_repairs_through_the_memo_graph(monkeypatch):
    # The retired repair-strategy switch no longer selects anything.
    monkeypatch.setenv("DITTO_STRATEGY", "derived")
    vec = IntVector(range(20))
    engine = DittoEngine(vector_digest, recursion_limit=None)
    try:
        assert engine.run(vec) == vector_digest.original(vec)
        assert engine.graph_size > 0
    finally:
        engine.close()
    with pytest.raises(TypeError):
        DittoEngine(vector_digest, strategy="memo")


@pytest.mark.parametrize("name", sorted(PAPER_CHECKS))
def test_figure3_view_renders_the_compiled_rewrite(name):
    engine = DittoEngine(PAPER_CHECKS[name], recursion_limit=None)
    try:
        assert engine.entry.name == name
        for fn in engine.functions.values():
            view = engine.instrumented_source(fn)
            assert "__ditto_rt__" in view
            compiled = engine._compiled[fn.uid].__ditto_source__
            assert _as_compiled(view, fn.name) == compiled
    finally:
        engine.close()
