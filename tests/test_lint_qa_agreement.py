"""Differential agreement between the static linter and the QA oracle.

The linter's soundness claim has two directions, and both are tested
against the PR-3 differential harness (scratch re-execution is ground
truth):

* **Lint-clean implies no divergence.**  The shipped structure modules
  lint with zero errors, and seeded fuzzing of their invariants finds no
  divergence between incremental and scratch execution.
* **Lint findings predict real divergence.**  A barrier-bypassing mutator
  (the canonical ``object.__setattr__`` shape) is flagged by a DIT rule —
  and actually drives the incremental engine into serving a stale result
  that from-scratch execution contradicts.  Suppressing the lint (noqa)
  removes the diagnostic but not the divergence: the rule is load-bearing,
  not cosmetic.
"""

from __future__ import annotations

import os

import pytest

from repro import DittoEngine
from repro.lint.modlint import lint_paths
from repro.qa.generator import TraceGenerator
from repro.qa.oracle import Oracle
from repro.structures.ordered_list import OrderedIntList, is_ordered

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
STRUCTURES_DIR = os.path.join(REPO_SRC, "repro", "structures")

#: Fixed seeds so failures are reproducible bug reports, not flakes.
SEEDS = (1001, 2002)


def test_shipped_structures_lint_clean():
    report = lint_paths([STRUCTURES_DIR])
    assert report.exit_code() == 0, report.format_text()


@pytest.mark.parametrize("structure", ["ordered_list", "binary_heap"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lint_clean_checks_never_diverge(structure, seed):
    """Direction 1: the lint-passing invariants agree with scratch
    execution over seeded mutation traces."""
    trace = TraceGenerator(structure, seed=seed, op_count=120).generate()
    report = Oracle(structure).run(trace)
    assert report.ok, [str(d) for d in report.divergences]
    assert report.checks_run > 0


# A barrier-bypassing mutator, exactly the shape DIT101 exists for. -----------

BYPASS_SOURCE = '''\
from repro import TrackedObject, check


class Elem(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def bypassed_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return bypassed_ordered(e.next)


def corrupt_quietly(e, value):
    object.__setattr__(e, "value", value){noqa}
'''


def _bypass(elem, value):
    """The runtime twin of ``corrupt_quietly``: store without the barrier."""
    object.__setattr__(elem, "value", value)


def test_bypass_mutator_is_flagged_by_lint(tmp_path):
    path = tmp_path / "bypassing.py"
    path.write_text(BYPASS_SOURCE.format(noqa=""))
    report = lint_paths([str(path)])
    assert "DIT101" in report.codes()
    assert report.exit_code() == 1


def test_bypass_mutator_reproduces_divergence(engine_factory):
    """Direction 2: the flagged store really does desynchronize the
    incremental engine from scratch execution."""
    engine = engine_factory(is_ordered)
    lst = OrderedIntList()
    for value in (1, 3, 5, 7, 9):
        lst.insert(value)
    assert engine.run(lst.head) is True

    _bypass(lst.head.next, 100)  # 1,100,5,... — now out of order
    incremental = engine.run(lst.head)
    scratch = is_ordered.original(lst.head)
    assert scratch is False
    assert incremental is True  # stale: the write was never logged
    assert incremental != scratch

    # The same store through the barrier is repaired correctly.
    lst.head.next.value = 100
    assert engine.run(lst.head) is False


def test_pure_method_reads_are_attributed(engine_factory):
    """Agreement, method edition — direction 1: a registered pure method
    whose reads are depth-1 lints clean (no DIT008), and the engine
    attributes those reads to the calling node, so mutating the field the
    *method* (not the check body) reads still dirties and repairs the
    graph.  Before method-read attribution this served a stale result:
    the method dispatch policed purity but recorded nothing."""
    from repro import TrackedObject, check, register_pure_method

    class Tag(TrackedObject):
        def __init__(self, tag, next=None):
            self.tag = tag
            self.next = next

        def tag_upper(self):
            return self.tag.upper()

    register_pure_method(Tag, "tag_upper")

    @check
    def no_bad_tags(e):
        if e is None:
            return True
        if e.tag_upper() == "BAD":
            return False
        return no_bad_tags(e.next)

    engine = engine_factory(no_bad_tags)
    head = Tag("alpha", Tag("beta", Tag("gamma")))
    assert engine.run(head) is True

    head.next.tag = "bad"  # through the barrier; read only by the method
    incremental = engine.run(head)
    scratch = no_bad_tags.original(head)
    assert scratch is False
    assert incremental == scratch, (
        "method-read left unattributed: stale result served"
    )


def test_unattributable_method_flagged_and_diverges(
    tmp_path, engine_factory
):
    """Agreement, method edition — direction 2: a registered pure method
    with depth-2 reads is flagged (DIT008) — and the finding is
    load-bearing: only the depth-1 receiver read is attributable, so
    mutating the deeper location really does leave the incremental result
    stale against scratch execution."""
    deep_source = (
        "from repro import TrackedObject, check, register_pure_method\n"
        "\n"
        "class Owner(TrackedObject):\n"
        "    def __init__(self, name):\n"
        "        self.name = name\n"
        "\n"
        "class Purse(TrackedObject):\n"
        "    def __init__(self, owner):\n"
        "        self.owner = owner\n"
        "    def owner_name(self):\n"
        "        return self.owner.name\n"
        "\n"
        "register_pure_method(Purse, 'owner_name')\n"
        "\n"
        "@check\n"
        "def purse_named(p):\n"
        "    return p is None or p.owner_name() != ''\n"
    )
    path = tmp_path / "deep_method.py"
    path.write_text(deep_source)
    report = lint_paths([str(path)])
    assert "DIT008" in report.codes()
    assert report.exit_code() == 1

    from repro import TrackedObject, check, register_pure_method

    class Owner(TrackedObject):
        def __init__(self, name):
            self.name = name

    class Purse(TrackedObject):
        def __init__(self, owner):
            self.owner = owner

        def owner_name(self):
            return self.owner.name

    register_pure_method(Purse, "owner_name")

    @check
    def purse_named(p):
        return p is None or p.owner_name() != ""

    engine = engine_factory(purse_named)
    purse = Purse(Owner("ada"))
    assert engine.run(purse) is True

    purse.owner.name = ""  # depth-2: beyond attributable summaries
    incremental = engine.run(purse)
    scratch = purse_named.original(purse)
    assert scratch is False
    assert incremental is True  # stale, exactly as DIT008 predicts
    assert incremental != scratch


def test_suppressed_lint_still_diverges(tmp_path, engine_factory):
    """noqa silences the diagnostic, not the bug: the suppressed variant
    lints clean yet the runtime divergence is unchanged."""
    path = tmp_path / "suppressed.py"
    path.write_text(BYPASS_SOURCE.format(noqa="  # noqa: DIT101"))
    report = lint_paths([str(path)])
    assert "DIT101" not in report.codes()
    assert report.exit_code() == 0

    engine = engine_factory(is_ordered)
    lst = OrderedIntList()
    for value in (2, 4, 6):
        lst.insert(value)
    assert engine.run(lst.head) is True
    _bypass(lst.head, 50)  # 50,4,6 — unordered, but unlogged
    assert engine.run(lst.head) is True  # still stale
    assert is_ordered.original(lst.head) is False


# DIT2xx agreement: classification verdicts and the strategy axis. -------------


def test_dit2xx_rejected_check_never_runs_derived():
    """Agreement, strategy edition: a check the lint layer rejects for
    derived maintenance (DIT202/DIT203) is exactly a check the hybrid
    engine keeps on the memo path, and the strict derived strategy
    refuses outright.  A rejected check can never silently run derived."""
    from repro.core.errors import CheckRestrictionError
    from repro.derive import classify_entry
    from repro.lint import build_plan
    from repro.structures import hash_table_invariant, heap_invariant

    for entry in (heap_invariant, hash_table_invariant, is_ordered):
        classification = classify_entry(entry)
        assert not classification.ok

        plan = build_plan(entry)
        codes = {d.code for d in plan.diagnostics}
        assert codes & {"DIT202", "DIT203"}
        assert "DIT201" not in codes

        engine = DittoEngine(entry, strategy="hybrid")
        try:
            assert engine.active_strategy == "memo"
            assert engine.derived is None
        finally:
            engine.close()

        with pytest.raises(CheckRestrictionError):
            DittoEngine(entry, strategy="derived")


def test_dit201_accepted_check_runs_derived_and_agrees():
    """The flip side: a DIT201-noted entry actually activates the derived
    strategy under hybrid, and its maintained value stays bit-identical
    to scratch execution across point mutations."""
    from repro.lint import build_plan
    from repro.structures import IntVector, vector_sum

    plan = build_plan(vector_sum)
    assert "DIT201" in {d.code for d in plan.diagnostics}
    # Informational only: the note does not gate registration.
    assert plan.ok

    engine = DittoEngine(vector_sum, strategy="hybrid")
    try:
        assert engine.active_strategy == "derived"
        vec = IntVector(range(30))
        assert engine.run(vec) == vector_sum.original(vec)
        vec[7] = -100
        vec.append(41)
        vec.pop()
        assert engine.run(vec) == vector_sum.original(vec)
    finally:
        engine.close()
