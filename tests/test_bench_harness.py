"""Benchmark harness: workloads preserve invariants, the runner produces
sane measurements, the report renders, and the CLI runs end to end."""

from __future__ import annotations

import pytest

from repro.bench import (
    WORKLOADS,
    Workload,
    find_crossover,
    format_phase_breakdown,
    format_series,
    format_table,
    get_workload,
    measure_modes,
    measure_soak,
    speedup_series,
    sweep,
)
from repro.bench.report import format_crossover
from repro.bench.runner import run_cycle
from repro.core.engine import DittoEngine


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_build_and_mutate_preserves_invariant(self, name):
        workload = get_workload(name, 20, seed=1)
        assert workload.run_full_check() is True
        for _ in range(15):
            workload.mutate()
            assert workload.run_full_check() is True

    @pytest.mark.parametrize("name", ["ordered_list", "red_black_tree"])
    def test_deterministic_in_seed(self, name):
        a = get_workload(name, 30, seed=9)
        b = get_workload(name, 30, seed=9)
        for _ in range(10):
            a.mutate()
            b.mutate()
        assert a.run_full_check() == b.run_full_check() is True

    def test_sizes_respected(self):
        lst = get_workload("ordered_list", 25)
        assert len(lst.structure) == 25
        rbt = get_workload("red_black_tree", 25)
        assert len(rbt.structure) == 25
        hsh = get_workload("hash_table", 25)
        assert len(hsh.structure) == 25

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("nope", 10)

    def test_jso_exhaustion_churns(self):
        workload = get_workload("jso", 5, seed=2)
        for _ in range(12):  # more mutations than chunks
            workload.mutate()
        assert workload.run_full_check() is True


class TestRunner:
    def test_measure_modes_all(self):
        results = measure_modes(
            "ordered_list", 30, 10, ("none", "full", "ditto", "naive")
        )
        assert set(results) == {"none", "full", "ditto", "naive"}
        for mode, r in results.items():
            assert r.seconds >= 0
            assert r.mode == mode
        assert results["none"].checks == 0
        assert results["full"].checks == 10

    def test_run_cycle_flags_violations(self):
        workload = get_workload("ordered_list", 10)
        workload.structure.corrupt(0, 10**9)
        with pytest.raises(AssertionError):
            run_cycle(workload, 1, "full")

    def test_run_cycle_incremental(self):
        workload = get_workload("ordered_list", 10)
        engine = DittoEngine(workload.entry)
        engine.run(*workload.check_args())
        checks = run_cycle(workload, 5, "ditto", engine)
        assert checks == 5
        engine.close()

    def test_sweep_rows(self):
        rows = sweep("ordered_list", (10, 20), mods=5)
        assert [r.size for r in rows] == [10, 20]
        for row in rows:
            assert row.full_s > 0 and row.ditto_s > 0
            assert row.speedup == pytest.approx(row.full_s / row.ditto_s)

    def test_speedup_series_shape(self):
        series = speedup_series("ordered_list", (10, 20), mods=5)
        assert [s for s, _ in series] == [10, 20]

    def test_crossover_exists_for_ordered_list(self):
        result = find_crossover("ordered_list", mods=200, lo=4, hi=500)
        # With the paper's measurement protocol (many modifications per
        # instantiation) DITTO wins well below 500 elements; the exact
        # crossover varies by machine.  Each probe keeps the best of the
        # default three timings: a single timing lost the n=500 probe on
        # a loaded 2-core host.
        assert result.crossover_size is not None
        assert result.crossover_size <= 500
        assert result.probes

    def test_engine_options_forwarded(self):
        results = measure_modes(
            "ordered_list", 15, 5, ("ditto",),
            engine_options={"leaf_optimization": False},
        )
        assert results["ditto"].seconds >= 0

    def test_measure_modes_phase_times(self):
        results = measure_modes(
            "ordered_list", 20, 5, ("full", "ditto")
        )
        assert results["full"].phase_times == {}  # no engine ran
        ditto_phases = results["ditto"].phase_times
        assert "exec" in ditto_phases
        assert all(v > 0 for v in ditto_phases.values())

    def test_measure_soak(self):
        result = measure_soak("ordered_list", 25, 8)
        assert result.mods == 8
        assert len(result.run_durations) == 8
        assert all(d > 0 for d in result.run_durations)
        assert result.counters["incremental_runs"] == 8
        assert "exec" in result.phase_times
        assert result.graph_size > 0
        # Per-run phase sums stay inside the soak's wall clock.
        assert sum(result.phase_times.values()) <= result.seconds + 0.05

    def test_measure_soak_with_trace_sink(self):
        from repro.obs import RingBufferSink

        sink = RingBufferSink()
        measure_soak(
            "ordered_list", 20, 5,
            engine_options={"trace_sink": sink},
        )
        assert sink.events_emitted > 0
        assert sink.spans("exec")


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "long"], [(1, 2), (33, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_series(self):
        rows = sweep("ordered_list", (10,), mods=3)
        out = format_series("title", rows)
        assert "title" in out and "DITTO" in out

    def test_format_crossover(self):
        result = find_crossover("ordered_list", mods=5, lo=4, hi=16,
                                repeats=1)
        out = format_crossover([result])
        assert "ordered_list" in out

    def test_format_phase_breakdown(self):
        out = format_phase_breakdown(
            {"exec": 0.75, "prune": 0.25}, total=2.0
        )
        lines = out.splitlines()
        assert "phase" in lines[0] and "share" in lines[0]
        # Rows are sorted by descending time; the gap to the total shows
        # up as the unattributed row.
        body = "\n".join(lines[2:])
        assert body.index("exec") < body.index("prune")
        assert "37.5%" in body
        assert "(unattributed)" in body
        assert "50.0%" in body

    def test_format_phase_breakdown_without_total(self):
        out = format_phase_breakdown({"exec": 1.0})
        assert "100.0%" in out
        assert "(unattributed)" not in out


class TestCli:
    def test_quick_fig11_single(self, capsys):
        from repro.bench.cli import main

        assert main(["fig11", "--quick", "--workload", "ordered_list",
                     "--mods", "5"]) == 0
        out = capsys.readouterr().out
        assert "fig11-ordered_list" in out
        assert "speedup" in out

    def test_quick_netcols(self, capsys):
        from repro.bench.cli import main

        assert main(["netcols", "--quick", "--mods", "5"]) == 0
        assert "frame time" in capsys.readouterr().out

    def test_quick_ablation(self, capsys):
        from repro.bench.cli import main

        assert main(["ablation", "--quick", "--mods", "4"]) == 0
        out = capsys.readouterr().out
        assert "abl-optimistic" in out and "abl-impl" in out

    def test_quick_fig14(self, capsys):
        from repro.bench.cli import main

        assert main(["fig14", "--quick", "--mods", "4"]) == 0
        assert "fig14-jso" in capsys.readouterr().out

    def test_json_output(self, capsys, tmp_path):
        import json

        from repro.bench.cli import main

        path = tmp_path / "bench.json"
        assert main(["fig11", "--quick", "--workload", "ordered_list",
                     "--mods", "5", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        rows = payload["fig11"]["workloads"]["ordered_list"]
        assert [r["size"] for r in rows] == [50, 200, 800]
        assert all(r["full_s"] > 0 for r in rows)
        assert payload["meta"]["quick"] is True

    def test_overhead_command(self, capsys):
        from repro.bench.cli import main

        assert main(["overhead", "--quick", "--workload",
                     "ordered_list"]) == 0
        out = capsys.readouterr().out
        assert "graph nodes" in out
        assert "nodes/element" in out

    def test_fig11_prints_chart(self, capsys):
        from repro.bench.cli import main

        main(["fig11", "--quick", "--workload", "ordered_list",
              "--mods", "5"])
        out = capsys.readouterr().out
        assert "time (s) vs size" in out
        assert "D = ditto" in out

    def test_soak_command_json_and_trace(self, capsys, tmp_path):
        import json

        from repro.bench.cli import main
        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        json_path = tmp_path / "soak.json"
        assert main(["soak", "--quick", "--mods", "6",
                     "--trace", str(trace_path),
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "obs-soak" in out
        assert "per-run latency" in out
        assert "share" in out  # the phase-breakdown table
        # The JSON payload carries the per-phase breakdown.
        payload = json.loads(json_path.read_text())
        assert "exec" in payload["soak"]["phase_times"]
        assert len(payload["soak"]["run_durations"]) == 6
        # The --trace file is a loadable Chrome trace.
        assert validate_chrome_trace(str(trace_path)) == []

    def test_fig11_with_trace(self, capsys, tmp_path):
        from repro.bench.cli import main
        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "fig11_trace.json"
        assert main(["fig11", "--quick", "--workload", "ordered_list",
                     "--mods", "4", "--trace", str(trace_path)]) == 0
        assert "Chrome trace written" in capsys.readouterr().out
        assert validate_chrome_trace(str(trace_path)) == []
