"""Repair provenance: enable/disable, recorded chain, text/DOT rendering."""

from __future__ import annotations

import pytest

from repro import TrackedObject, check
from repro.obs import (
    disable_provenance,
    enable_provenance,
    explain_last_run,
)
from repro.obs import RunRecorder
from repro.obs.provenance import _dot_escape
from repro.obs.trace import members


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def prov_len(e):
    if e is None:
        return 0
    return 1 + prov_len(e.next)


def _chain(n):
    head = None
    for v in range(n, 0, -1):
        head = Elem(v, head)
    return head


class TestLifecycle:
    def test_explain_requires_enable(self, engine_factory):
        engine = engine_factory(prov_len)
        engine.run(_chain(3))
        with pytest.raises(ValueError, match="enable_provenance"):
            explain_last_run(engine)

    def test_explain_requires_a_recorded_run(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        with pytest.raises(ValueError, match="no recorded run"):
            explain_last_run(engine)

    def test_enable_is_idempotent(self, engine_factory):
        engine = engine_factory(prov_len)
        recorder = enable_provenance(engine)
        assert enable_provenance(engine) is recorder

    def test_disable_detaches(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        engine.run(_chain(3))
        disable_provenance(engine)
        assert not any(
            isinstance(m, RunRecorder) for m in members(engine.observer)
        )
        with pytest.raises(ValueError):
            explain_last_run(engine)


class TestRecordedChain:
    def test_initial_run_recorded(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        engine.run(_chain(3))
        explanation = explain_last_run(engine)
        record = explanation.record
        assert record.incremental is False
        assert record.mutated == []
        assert record.aborted is False
        assert record.duration > 0
        # Graph build executes one node per element (the None call is
        # leaf-inlined) in the exec phase.
        assert len(record.executed) == 3
        assert all(phase == "exec" for _, phase in record.executed)
        assert "initial (graph build)" in explanation.text()

    def test_mutation_chain(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        head = _chain(6)
        engine.run(head)
        head.next.next = Elem(99, head.next.next)  # splice after 2nd elem
        engine.run(head)
        record = explain_last_run(engine).record
        assert record.incremental is True
        assert record.mutated, "the splice must appear as a mutation"
        # Each mutated location maps to the node(s) it dirtied.
        dirtied = [n for labels in record.dirtied.values() for n in labels]
        assert any("prov_len" in label for label in dirtied)
        # The splice re-executes the dirty node, the new node, and the
        # ancestors whose return values changed (propagate phase).
        phases = {phase for _, phase in record.executed}
        assert "exec" in phases
        assert "propagate" in phases

    def test_prune_recorded(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        head = _chain(6)
        engine.run(head)
        head.next.next = None  # drop a 4-node suffix
        engine.run(head)
        record = explain_last_run(engine).record
        assert len(record.pruned) == 4
        assert all("prov_len" in label for label in record.pruned)

    def test_phase_times_recorded(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        head = _chain(4)
        engine.run(head)
        head.next.next = None
        engine.run(head)
        record = explain_last_run(engine).record
        assert "exec" in record.phase_times
        assert all(v >= 0 for v in record.phase_times.values())


class TestRendering:
    def _explained(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        head = _chain(6)
        engine.run(head)
        head.next.next = Elem(99, head.next.next)
        engine.run(head)
        return explain_last_run(engine)

    def test_text_sections(self, engine_factory):
        text = self._explained(engine_factory).text()
        assert "incremental" in text
        assert "mutated" in text
        assert "dirtied" in text
        assert "re-executed" in text
        assert "[exec]" in text
        assert "phases:" in text
        assert str(self._explained(engine_factory))  # __str__ delegates

    def test_dot_structure(self, engine_factory):
        dot = self._explained(engine_factory).dot()
        assert dot.startswith("digraph provenance {")
        assert dot.rstrip().endswith("}")
        assert 'label="dirtied"' in dot  # location -> node edge
        assert 'color="orange"' in dot  # mutated location
        assert 'color="red"' in dot  # re-executed node
        # Propagation ancestors hang off the dashed phase marker.
        assert "propagate phase" in dot
        assert "style=dashed" in dot

    def test_no_mutation_run(self, engine_factory):
        engine = engine_factory(prov_len)
        enable_provenance(engine)
        head = _chain(3)
        engine.run(head)
        engine.run(head)  # nothing changed in between
        explanation = explain_last_run(engine)
        assert explanation.record.incremental is True
        assert "no mutations since the previous run" in explanation.text()


@check
def prov_tagged(e, tag):
    if e is None:
        return len(tag)
    return 1 + prov_tagged(e.next, tag)


class TestDotEscaping:
    """Regression: labels carry ``repr``'d check arguments, and a string
    argument with a quote or newline used to truncate the DOT ``label``
    attribute mid-string."""

    def test_escape_rules(self):
        assert _dot_escape('a"b') == 'a\\"b'
        assert _dot_escape("a\nb") == "a\\nb"
        assert _dot_escape("a\r\nb") == "a\\nb"
        # Backslashes are escaped *first*, so a literal two-character
        # "\n" sequence survives as text instead of becoming a break.
        assert _dot_escape("a\\nb") == "a\\\\nb"
        assert _dot_escape('say "hi"\nbye') == 'say \\"hi\\"\\nbye'

    def test_dot_with_quote_and_newline_in_string_arg(
        self, engine_factory
    ):
        engine = engine_factory(prov_tagged)
        enable_provenance(engine)
        engine.run(_chain(2), 'he said "hi"\nbye')
        dot = explain_last_run(engine).dot()
        # The quotes inside the repr'd argument are escaped...
        assert '\\"hi\\"' in dot
        # ...and every line is a complete statement: no raw quote ends a
        # label early (an even count of unescaped quotes per line).
        for line in dot.splitlines():
            unescaped = line.replace('\\"', "")
            assert unescaped.count('"') % 2 == 0, line
