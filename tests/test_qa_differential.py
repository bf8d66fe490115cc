"""Tier-1 bridge into the differential-fuzzing harness (`repro.qa`).

Runs a fixed-seed corpus over every registered structure — the paper's
equivalence contract ("incremental == from-scratch", §3.1) checked
mechanically — plus the resilience drill the harness exists for: a
deliberately injected fault must be *caught* as a divergence, *shrunk*
to a tiny reproducer, and *replayable* from its artifact file.
"""

from __future__ import annotations

import json

import pytest

from repro import DittoEngine
from repro.obs import validate_chrome_trace
from repro.obs.sinks import ChromeTraceSink
from repro.qa import (
    CHECK_OP,
    Op,
    Oracle,
    Shrinker,
    Trace,
    TraceGenerator,
    fault_op,
    get_model,
    model_names,
    python_reproducer,
    replay_trace,
    write_reproducer,
)
from repro.qa.cli import main as qa_main

#: The tier-1 corpus: every structure, two seeds, a few hundred ops.
CORPUS_SEEDS = (0, 1)
CORPUS_OPS = 250


class TestFixedSeedCorpus:
    @pytest.mark.parametrize("structure", model_names())
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_no_divergence(self, structure, seed):
        trace = TraceGenerator(
            structure, seed=seed, op_count=CORPUS_OPS
        ).generate()
        report = Oracle(structure, validate=True).run(trace)
        assert report.ok, "\n".join(str(d) for d in report.divergences)
        assert report.checks_run > 0
        assert report.audit_findings == {"ditto": [], "naive": []}

    def test_generation_is_deterministic(self):
        a = TraceGenerator("rope", seed=7, op_count=120).generate()
        b = TraceGenerator("rope", seed=7, op_count=120).generate()
        assert a.ops == b.ops
        c = TraceGenerator("rope", seed=8, op_count=120).generate()
        assert a.ops != c.ops

    def test_int_vector_corpus_exercises_hostile_indexes(self):
        """The int_vector model must feed the barrier raw out-of-range and
        negative indexes — the regime where both confirmed TrackedList
        bugs lived.  Asserted on the pinned corpus seeds so the coverage
        cannot silently regress."""
        for seed in CORPUS_SEEDS:
            trace = TraceGenerator(
                "int_vector", seed=seed, op_count=CORPUS_OPS
            ).generate()
            indexed = [
                op for op in trace.ops if op.name in ("insert", "pop")
            ]
            assert any(op.args[0] < 0 for op in indexed)
            assert any(op.args[0] > 96 for op in indexed)  # past MAX_LEN

    def test_every_model_emits_corruption(self):
        """The corpus must exercise direct field writes, not just clean
        mutators: every model generates at least one corrupt-style op
        within a few hundred draws."""
        for name in model_names():
            trace = TraceGenerator(name, seed=0, op_count=400).generate()
            assert any(
                op.name.startswith("corrupt") for op in trace.ops
            ), f"{name} corpus never corrupts"


def _drill_trace(padding_seed: int = 3) -> Trace:
    """A trace that provably diverges: random padding, then drain the
    list to a known state, build the graph, drop one write barrier, and
    corrupt the head.  Scratch sees False; the incremental engines serve
    stale True."""
    trace = TraceGenerator(
        "ordered_list", seed=padding_seed, op_count=200, check_prob=0.2
    ).generate()
    trace.ops += [Op("delete_first") for _ in range(100)]
    trace.ops += [
        Op("insert", (1,)),
        Op("insert", (5,)),
        CHECK_OP,
        fault_op("drop_writes", 1),
        Op("corrupt", (0, 99)),
    ]
    return trace


class TestFaultDrill:
    def test_injected_fault_is_caught(self):
        report = Oracle("ordered_list").run(_drill_trace())
        assert not report.ok
        assert report.faults_armed == 1
        divergence = report.divergences[0]
        assert divergence.kind == "return_mismatch"
        assert divergence.details["scratch"] == ("value", False)
        assert divergence.details["ditto"] == ("value", True)

    def test_shrinks_to_at_most_ten_ops(self, tmp_path):
        trace = _drill_trace()
        result = Shrinker(
            trace, kind="return_mismatch", max_replays=1500
        ).shrink()
        assert len(result) <= 10
        assert result.original_len == len(trace)
        # The reproducer still carries the fault op and a corruption.
        names = [op.name for op in result.trace.ops]
        assert "@fault" in names and "corrupt" in names
        # Artifacts round-trip: replay file and runnable snippet.
        replay_path, snippet_path = write_reproducer(
            result.trace, str(tmp_path), result.kind, result.original_len
        )
        reloaded = Trace.load(replay_path)
        assert reloaded.ops == result.trace.ops
        assert not replay_trace(reloaded).ok
        snippet = open(snippet_path).read()
        assert "replay_trace" in snippet and "assert not report.ok" in snippet

    def test_replay_via_cli(self, tmp_path, capsys):
        result = Shrinker(
            _drill_trace(), kind="return_mismatch", max_replays=1500
        ).shrink()
        path = tmp_path / "repro.json"
        result.trace.save(str(path))
        # Plain replay exits 1 (a divergence is a failure)…
        assert qa_main(["--replay", str(path)]) == 1
        # …artifact verification mode exits 0 (it *expects* one).
        assert qa_main(["--replay", str(path), "--expect-divergence"]) == 0
        out = capsys.readouterr().out
        assert "divergence reproduced" in out

    def test_corrupt_returns_fault_is_caught_when_consumed(self):
        """A corrupted cached return value is latent under optimistic
        reuse until some caller re-executes and consumes it.  Corrupting
        the deepest node (``is_ordered(n3)``: True -> False) and then
        dirtying the *middle* cell with a sortedness-preserving write
        makes ``is_ordered(n2)`` re-execute, reuse the poisoned child
        cache, and return False while scratch still sees a sorted list."""
        trace = Trace(
            "ordered_list",
            0,
            [
                Op("insert", (1,)),
                Op("insert", (2,)),
                Op("insert", (3,)),
                CHECK_OP,
                fault_op("corrupt_returns", 1),
                Op("corrupt", (1, 1)),  # [1, 1, 3] — still ordered
            ],
        )
        report = Oracle("ordered_list").run(trace)
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.kind == "return_mismatch"
        assert divergence.details["scratch"] == ("value", True)
        assert divergence.details["ditto"] == ("value", False)


class TestObsIntegration:
    def test_oracle_has_no_metrics_option(self):
        with pytest.raises(TypeError):
            Oracle("binary_heap", metrics=None)

    def test_chrome_trace_written_and_valid(self, tmp_path):
        path = tmp_path / "qa_trace.json"
        sink = ChromeTraceSink(str(path), "repro.qa-test")
        trace = TraceGenerator("rope", seed=0, op_count=60).generate()
        report = Oracle("rope", trace_sink=sink).run(trace)
        sink.close()
        assert report.ok
        validate_chrome_trace(str(path), strict=True)
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("name") == "exec" for e in events)


class TestCli:
    def test_clean_fuzz_exits_zero(self, capsys):
        code = qa_main(
            ["--seed", "0", "--ops", "60", "--structure", "skip_list"]
        )
        assert code == 0
        assert "skip_list" in capsys.readouterr().out

    def test_metrics_line_totals_the_reports(self, capsys, monkeypatch):
        """``--metrics`` ends the output with one JSON line: the reports
        of the replayed traces, summed."""
        reports = []
        replay = Oracle.run

        def recording_run(self, trace):
            report = replay(self, trace)
            reports.append(report)
            return report

        monkeypatch.setattr(Oracle, "run", recording_run)
        code = qa_main(
            [
                "--seed", "0", "--ops", "60",
                "--structure", "binary_heap", "--structure", "rope",
                "--metrics",
            ]
        )
        assert code == 0
        totals = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert len(reports) == totals["traces"] == 2
        assert totals["ops"] == sum(r.ops_applied for r in reports)
        assert totals["checks"] == sum(r.checks_run for r in reports)
        assert totals["divergences"] == 0
        assert totals["seconds"] == pytest.approx(
            sum(r.duration for r in reports), abs=1e-5
        )

    def test_validate_reaches_the_fuzz_oracle(self, monkeypatch):
        validated = []
        monkeypatch.setattr(
            DittoEngine, "validate", lambda self: validated.append(self.mode)
        )
        code = qa_main(
            [
                "--seed", "0", "--ops", "60", "--structure", "skip_list",
                "--validate",
            ]
        )
        assert code == 0
        assert sorted(validated) == ["ditto", "naive"]

    def test_list(self, capsys):
        assert qa_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in model_names():
            assert name in out

    def test_divergent_fuzz_writes_artifacts(self, tmp_path, capsys,
                                             monkeypatch):
        """End to end through the CLI: a trace generator patched to emit
        the drill trace makes the CLI catch, shrink, and persist."""
        drill = _drill_trace()
        monkeypatch.setattr(
            TraceGenerator, "generate", lambda self, inject=None: drill
        )
        code = qa_main(
            [
                "--structure",
                "ordered_list",
                "--artifacts",
                str(tmp_path),
                "--max-shrink-replays",
                "1500",
            ]
        )
        assert code == 1
        artifacts = sorted(p.name for p in tmp_path.iterdir())
        assert artifacts == [
            "qa_repro_ordered_list_seed3.json",
            "qa_repro_ordered_list_seed3.py",
        ]
        shrunk = Trace.load(str(tmp_path / artifacts[0]))
        assert len(shrunk) <= 10


class TestTraceRoundTrip:
    def test_json_round_trip(self, tmp_path):
        trace = TraceGenerator("btree", seed=5, op_count=40).generate()
        path = tmp_path / "t.json"
        trace.save(str(path))
        assert Trace.load(str(path)).ops == trace.ops

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "structure": "rope", "ops": []}')
        with pytest.raises(ValueError, match="replay file"):
            Trace.load(str(path))

    def test_reproducer_snippet_is_runnable(self, tmp_path):
        """The generated snippet must execute as written (it asserts the
        divergence reproduces, then exits 1)."""
        result = Shrinker(
            _drill_trace(), kind="return_mismatch", max_replays=1500
        ).shrink()
        source = python_reproducer(result.trace, result.kind)
        with pytest.raises(SystemExit):
            exec(compile(source, "<reproducer>", "exec"), {})


class TestModelContracts:
    @pytest.mark.parametrize("structure", model_names())
    def test_apply_is_total_on_empty_structures(self, structure):
        """Shrinking can strip all the setup ops; whatever remains must
        apply to a fresh structure without raising."""
        model = get_model(structure)
        trace = TraceGenerator(structure, seed=2, op_count=150).generate()
        fresh = model.fresh()
        for op in trace.ops:
            if op.name.startswith("@"):
                continue
            model.apply(fresh, op)  # must not raise

    @pytest.mark.parametrize("structure", model_names())
    def test_args_are_json_primitives(self, structure):
        trace = TraceGenerator(structure, seed=4, op_count=150).generate()
        for op in trace.ops:
            for arg in op.args:
                assert isinstance(arg, (int, float, str, bool)), (
                    structure,
                    op,
                )
