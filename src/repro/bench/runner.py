"""Timed experiment runner: mode comparisons, size sweeps, crossover search.

Reproduces the paper's measurement protocol (§5.1): "Each data structure is
instantiated at several sizes and then modified N times.  … In each case,
wall-clock time, including GC and all other VM and incrementalization
overheads, is measured."  A measurement interleaves one mutation with one
invariant check, under one of three modes:

* ``"none"``   — mutations only (Figure 11's "no invariant checks" curve);
* ``"full"``   — the original recursive check after every mutation
  (Figure 11's "invariants" curve);
* ``"ditto"``  — the optimistic incrementalized check (Figure 11's
  "incrementalized invariants" curve);
* ``"naive"``  — the Figure 6 incrementalizer, for the ablation benches.

All DITTO overheads are inside the timed region: engine construction
(instrumentation, static analysis), write barriers during mutations, and
graph maintenance — matching the paper's "all overheads considered"
crossover definition.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.engine import DittoEngine
from .workloads import Workload, get_workload

MODES = ("none", "full", "ditto", "naive")

#: Recursive checks on large structures exceed CPython's default limit.
_RECURSION_LIMIT = 1_000_000
#: Worker-thread C stack: deep recursive checks (a 5,000-element list is
#: ~30k interpreter frames) overflow the default thread stack.
_STACK_BYTES = 512 * 1024 * 1024


def _ensure_recursion_room() -> None:
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)


def run_with_big_stack(fn: Callable[[], object]) -> object:
    """Run ``fn`` on a thread with a large C stack, so deeply recursive
    checks (list-shaped structures at Figure 11 sizes) cannot overflow."""
    _ensure_recursion_room()
    result: list[object] = []
    error: list[BaseException] = []

    def target() -> None:
        try:
            result.append(fn())
        except BaseException as exc:  # propagate to the caller
            error.append(exc)

    old_size = threading.stack_size(_STACK_BYTES)
    try:
        worker = threading.Thread(target=target, name="ditto-bench")
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_size)
    if error:
        raise error[0]
    return result[0]


@dataclass
class ModeResult:
    """One timed measurement."""

    workload: str
    size: int
    mods: int
    mode: str
    seconds: float
    checks: int = 0
    #: Engine-phase wall-clock totals over the measurement (empty for the
    #: ``none``/``full`` modes, which run no engine).
    phase_times: dict[str, float] = field(default_factory=dict)


@dataclass
class SoakResult:
    """One long mutate+check soak of a single engine: where repair time
    went, per phase, plus the per-run latency distribution."""

    workload: str
    size: int
    mods: int
    mode: str
    seconds: float
    #: Sum of per-run phase durations across the whole soak.
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds of each incremental run, in order.
    run_durations: list[float] = field(default_factory=list)
    #: Lifetime engine-counter deltas over the soak (dirty_execs, ...).
    counters: dict[str, int] = field(default_factory=dict)
    graph_size: int = 0


@dataclass
class SweepRow:
    """Figure 11 row: one size, all modes."""

    size: int
    none_s: float
    full_s: float
    ditto_s: float
    speedup: float  # full / ditto


@dataclass
class CrossoverResult:
    """§5.1.1 crossover: the smallest size where the incrementalized check
    beats the original, all overheads considered."""

    workload: str
    crossover_size: Optional[int]
    probes: list[tuple[int, float, float]] = field(default_factory=list)


def run_cycle(
    workload: Workload,
    mods: int,
    mode: str,
    engine: Optional[DittoEngine] = None,
) -> int:
    """Run ``mods`` mutation+check events; returns number of checks run.
    The check is executed after every mutation, as at the method
    entry/exits in the paper's Figure 1 usage."""
    checks = 0
    if mode == "none":
        for _ in range(mods):
            workload.mutate()
        return 0
    if mode == "full":
        for _ in range(mods):
            workload.mutate()
            result = workload.run_full_check()
            checks += 1
            if result is False:
                raise AssertionError("invariant unexpectedly violated")
        return checks
    assert engine is not None
    for _ in range(mods):
        workload.mutate()
        result = engine.run(*workload.check_args())
        checks += 1
        if result is False:
            raise AssertionError("invariant unexpectedly violated")
    return checks


def measure_modes(
    workload_name: str,
    size: int,
    mods: int,
    modes: Sequence[str] = ("none", "full", "ditto"),
    seed: int = 0xD1770,
    engine_options: Optional[dict] = None,
) -> dict[str, ModeResult]:
    """Time each mode on a fresh, identically-seeded workload instance.

    Runs on a large-stack worker thread (see :func:`run_with_big_stack`)."""
    return run_with_big_stack(
        lambda: _measure_modes_inner(
            workload_name, size, mods, modes, seed, engine_options
        )
    )


def _measure_modes_inner(
    workload_name: str,
    size: int,
    mods: int,
    modes: Sequence[str],
    seed: int,
    engine_options: Optional[dict],
) -> dict[str, ModeResult]:
    results: dict[str, ModeResult] = {}
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        workload = get_workload(workload_name, size, seed=seed)
        engine = None
        if mode in ("ditto", "naive"):
            # Engine construction is the paper's *offline* transformation
            # ("very small offline overhead"); it happens once per program,
            # outside the timed region.  Everything at runtime — the
            # initial graph-building check, write barriers, graph
            # maintenance — is timed.
            engine = DittoEngine(
                workload.entry, mode=mode, **(engine_options or {})
            )
        start = time.perf_counter()
        if engine is not None:
            engine.run(*workload.check_args())  # initial graph build
        elif mode == "full":
            workload.run_full_check()
        checks = run_cycle(workload, mods, mode, engine)
        elapsed = time.perf_counter() - start
        phase_times: dict[str, float] = {}
        if engine is not None:
            phase_times = {
                phase: seconds
                for phase, seconds in engine.stats.timers().items()
                if seconds > 0.0
            }
            engine.close()
        results[mode] = ModeResult(
            workload=workload_name,
            size=size,
            mods=mods,
            mode=mode,
            seconds=elapsed,
            checks=checks,
            phase_times=phase_times,
        )
    return results


def measure_soak(
    workload_name: str,
    size: int,
    mods: int,
    mode: str = "ditto",
    seed: int = 0xD1770,
    engine_options: Optional[dict] = None,
) -> SoakResult:
    """One engine, ``mods`` mutate+check events, per-run reporting: the
    phase breakdown the paper's overhead discussion calls for.

    Unlike :func:`measure_modes` (opaque wall clock, minimal overhead)
    this uses ``run_with_report`` per event to capture each run's phase
    times and latency; use it for the breakdown, not for crossovers."""
    return run_with_big_stack(
        lambda: _measure_soak_inner(
            workload_name, size, mods, mode, seed, engine_options
        )
    )


def _measure_soak_inner(
    workload_name: str,
    size: int,
    mods: int,
    mode: str,
    seed: int,
    engine_options: Optional[dict],
) -> SoakResult:
    workload = get_workload(workload_name, size, seed=seed)
    engine = DittoEngine(workload.entry, mode=mode, **(engine_options or {}))
    try:
        start = time.perf_counter()
        engine.run(*workload.check_args())  # initial graph build
        before = engine.stats.snapshot()
        phase_times: dict[str, float] = {}
        durations: list[float] = []
        for _ in range(mods):
            workload.mutate()
            report = engine.run_with_report(*workload.check_args())
            if report.result is False:
                raise AssertionError("invariant unexpectedly violated")
            durations.append(report.duration)
            for phase, seconds in report.phase_times.items():
                phase_times[phase] = phase_times.get(phase, 0.0) + seconds
        elapsed = time.perf_counter() - start
        return SoakResult(
            workload=workload_name,
            size=size,
            mods=mods,
            mode=mode,
            seconds=elapsed,
            phase_times=phase_times,
            run_durations=durations,
            counters=engine.stats.delta(before),
            graph_size=engine.graph_size,
        )
    finally:
        engine.close()


def sweep(
    workload_name: str,
    sizes: Sequence[int],
    mods: int,
    seed: int = 0xD1770,
    engine_options: Optional[dict] = None,
) -> list[SweepRow]:
    """Figure 11: one row per size with all three curves."""
    rows = []
    for size in sizes:
        measured = measure_modes(
            workload_name, size, mods, ("none", "full", "ditto"), seed,
            engine_options=engine_options,
        )
        full_s = measured["full"].seconds
        ditto_s = measured["ditto"].seconds
        rows.append(
            SweepRow(
                size=size,
                none_s=measured["none"].seconds,
                full_s=full_s,
                ditto_s=ditto_s,
                speedup=(full_s / ditto_s) if ditto_s > 0 else float("inf"),
            )
        )
    return rows


def speedup_series(
    workload_name: str,
    sizes: Sequence[int],
    mods: int,
    seed: int = 0xD1770,
) -> list[tuple[int, float]]:
    """(size, full/ditto speedup) pairs — the abstract's scaling claim."""
    return [
        (row.size, row.speedup)
        for row in sweep(workload_name, sizes, mods, seed)
    ]


def find_crossover(
    workload_name: str,
    mods: int = 200,
    lo: int = 10,
    hi: int = 2000,
    seed: int = 0xD1770,
    repeats: int = 3,
    engine_options: Optional[dict] = None,
) -> CrossoverResult:
    """Binary-search the smallest size at which the DITTO check beats the
    full check, all overheads considered (§5.1.1).

    Each probe times both modes ``repeats`` times and keeps the minimum, to
    damp scheduler noise.  Returns ``crossover_size=None`` if DITTO never
    wins below ``hi``.  ``engine_options`` are forwarded to the DITTO
    engine.
    """
    probes: list[tuple[int, float, float]] = []

    def ditto_wins(size: int) -> tuple[bool, float, float]:
        best_full = min(
            measure_modes(workload_name, size, mods, ("full",), seed)[
                "full"
            ].seconds
            for _ in range(repeats)
        )
        best_ditto = min(
            measure_modes(
                workload_name, size, mods, ("ditto",), seed,
                engine_options=engine_options,
            )["ditto"].seconds
            for _ in range(repeats)
        )
        probes.append((size, best_full, best_ditto))
        return best_ditto < best_full, best_full, best_ditto

    wins_hi, _, _ = ditto_wins(hi)
    if not wins_hi:
        return CrossoverResult(workload_name, None, probes)
    wins_lo, _, _ = ditto_wins(lo)
    if wins_lo:
        return CrossoverResult(workload_name, lo, probes)
    while hi - lo > max(1, lo // 8):
        mid = (lo + hi) // 2
        wins, _, _ = ditto_wins(mid)
        if wins:
            hi = mid
        else:
            lo = mid
    return CrossoverResult(workload_name, hi, probes)
