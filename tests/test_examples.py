"""Every example script must run end-to-end and print what it promises."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "first check:   True" in out
        assert "after corrupt: False" in out
        assert "__ditto_rt__" in out  # instrumented source shown

    def test_netcols_game(self):
        out = run_example("netcols_game.py", "40")
        assert "ms/frame" in out
        assert "final board" in out

    def test_jso_obfuscate(self):
        out = run_example("jso_obfuscate.py", "30")
        assert "names renamed" in out
        assert "invariant after the bug: False" in out

    def test_red_black_debugging(self):
        out = run_example("red_black_debugging.py")
        assert "invariant violated immediately after operation" in out

    def test_data_breakpoints(self):
        out = run_example("data_breakpoints.py")
        assert "data breakpoint hit" in out
        assert "sloppy_decrease_key" in out

    def test_iterative_to_recursive(self):
        out = run_example("iterative_to_recursive.py")
        assert "generated entry point" in out
        assert "caught at the faulty method's boundary" in out
        assert "per checked operation" in out

    def test_graph_inspection(self):
        out = run_example("graph_inspection.py")
        assert "rbt_invariant" in out
        assert "(shared)" in out
        assert "Graphviz rendering written" in out

    def test_profiling_trace(self):
        out = run_example("profiling_trace.py", "30")
        assert "where did repair time go" in out
        assert "exec" in out
        assert "re-executed" in out  # the provenance explanation
        assert "per-run counter deltas" in out
        assert "dirty_execs" in out
        assert "valid" in out  # the Chrome trace validated clean
        assert "top mutation sites" in out  # the profiler's report
