"""Command-line harness regenerating every table and figure in the paper.

Usage::

    python -m repro.bench all            # everything (slow)
    python -m repro.bench fig11          # Figure 11, all three structures
    python -m repro.bench fig11 --workload red_black_tree
    python -m repro.bench crossover      # §5.1.1 crossover-size table
    python -m repro.bench speedup        # abstract's speedup-scaling claim
    python -m repro.bench fig14          # Figure 14, JSO size sweep
    python -m repro.bench netcols        # §5.2 per-frame event-loop times
    python -m repro.bench ablation       # naive-vs-optimistic + impl toggles
    python -m repro.bench soak           # one engine, per-phase breakdown

``--quick`` shrinks sizes/mod counts by ~4x for a fast sanity pass.

``--trace out.json`` attaches a Chrome trace-event sink
(:class:`repro.obs.ChromeTraceSink`) to every engine the experiment
constructs and writes the combined trace on exit — load it in Perfetto
(https://ui.perfetto.dev) to see the per-phase spans.  Tracing adds
per-event overhead, so don't compare traced timings against untraced ones.

``--profile PREFIX`` attaches one shared repair-cost attribution profiler
(:class:`repro.obs.RepairProfiler`) to every engine, prints the top
mutation sites by induced re-execution on exit, and writes
``PREFIX.folded.txt`` (flamegraph.pl / speedscope folded stacks) and
``PREFIX.speedscope.json``.  Same caveat as ``--trace``: profiled
timings are not comparable to unprofiled ones.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Optional, Sequence

from ..obs.profiler import RepairProfiler
from ..obs.sinks import ChromeTraceSink
from .runner import find_crossover, measure_modes, measure_soak, sweep
from .report import (
    figure11_chart,
    format_crossover,
    format_phase_breakdown,
    format_series,
    format_table,
)
from .workloads import get_workload


def _engine_options(args: argparse.Namespace) -> dict[str, Any]:
    """Engine options shared by every experiment: the ``--trace`` sink and
    the ``--profile`` attribution profiler (see ``runner.make_engine``)."""
    options: dict[str, Any] = {}
    sink = getattr(args, "trace_sink", None)
    if sink is not None:
        options["trace_sink"] = sink
    profiler = getattr(args, "profiler", None)
    if profiler is not None:
        options["observers"] = [profiler]
    return options

#: Figure 11 structures and their paper-reported crossovers.
FIG11_WORKLOADS = ("ordered_list", "hash_table", "red_black_tree")
PAPER_CROSSOVERS = {
    "ordered_list": 250,
    "hash_table": 100,
    "red_black_tree": 200,
}

FULL_SIZES = (50, 100, 200, 400, 800, 1600, 3200)
QUICK_SIZES = (50, 200, 800)


def cmd_fig11(args: argparse.Namespace) -> dict[str, Any]:
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    mods = args.mods or (100 if args.quick else 400)
    workloads = [args.workload] if args.workload else list(FIG11_WORKLOADS)
    payload: dict[str, Any] = {"mods": mods, "workloads": {}}
    for name in workloads:
        rows = sweep(
            name, sizes, mods, seed=args.seed,
            engine_options=_engine_options(args),
        )
        print(
            format_series(
                f"\n[fig11-{name}] {mods} modifications per size "
                f"(paper: Figure 11, {name.replace('_', ' ')})",
                rows,
            )
        )
        print()
        print(figure11_chart(f"time (s) vs size — {name}", rows))
        payload["workloads"][name] = [
            {
                "size": row.size,
                "none_s": row.none_s,
                "full_s": row.full_s,
                "ditto_s": row.ditto_s,
                "speedup": row.speedup,
            }
            for row in rows
        ]
    return payload


def cmd_crossover(args: argparse.Namespace) -> dict[str, Any]:
    mods = args.mods or (60 if args.quick else 200)
    results = []
    for name in FIG11_WORKLOADS:
        result = find_crossover(
            name,
            mods=mods,
            lo=5,
            hi=600 if args.quick else 2000,
            seed=args.seed,
            repeats=2 if args.quick else 3,
        )
        results.append(result)
    print("\n[tab-crossover] smallest size where DITTO beats the full check")
    print(format_crossover(results))
    print(
        format_table(
            ["workload", "paper crossover"],
            [(k, v) for k, v in PAPER_CROSSOVERS.items()],
        )
    )
    return {
        "measured": {
            r.workload: r.crossover_size for r in results
        },
        "paper": dict(PAPER_CROSSOVERS),
    }


def cmd_speedup(args: argparse.Namespace) -> dict[str, Any]:
    sizes = (200, 800, 3200) if args.quick else (200, 800, 3200, 5000)
    # Enough modifications that the one-time graph build amortizes away,
    # approximating the paper's 10,000-modification protocol.
    mods = args.mods or (150 if args.quick else 400)
    print(
        "\n[claim-speedup] paper: ~5x at 5,000 elements, growing linearly;"
        " 7.5x average at 3,200"
    )
    rows = []
    for name in FIG11_WORKLOADS:
        series = sweep(name, sizes, mods, seed=args.seed)
        for row in series:
            rows.append((name, row.size, f"{row.speedup:.2f}x"))
    print(format_table(["workload", "size", "speedup (full/DITTO)"], rows))
    at_3200 = [
        float(r[2][:-1]) for r in rows if r[1] == 3200
    ]
    if at_3200:
        print(
            f"average speedup at 3200 elements: "
            f"{sum(at_3200) / len(at_3200):.2f}x (paper: 7.5x)"
        )
    return {
        "series": [
            {"workload": w, "size": s, "speedup": float(sp[:-1])}
            for w, s, sp in rows
        ],
        "avg_at_3200": (sum(at_3200) / len(at_3200)) if at_3200 else None,
    }


def cmd_fig14(args: argparse.Namespace) -> dict[str, Any]:
    sizes = (50, 100, 200) if args.quick else (50, 100, 200, 400, 800)
    print("\n[fig14-jso] end-to-end obfuscation time vs input size")
    rows = []
    payload = []
    for size in sizes:
        measured = measure_modes(
            "jso", size, mods=size, modes=("none", "full", "ditto"),
            seed=args.seed,
        )
        full_s = measured["full"].seconds
        ditto_s = measured["ditto"].seconds
        rows.append(
            (
                size,
                f"{measured['none'].seconds:.3f}",
                f"{full_s:.3f}",
                f"{ditto_s:.3f}",
                f"{full_s / ditto_s:.2f}x",
            )
        )
        payload.append(
            {
                "functions": size,
                "none_s": measured["none"].seconds,
                "full_s": full_s,
                "ditto_s": ditto_s,
            }
        )
    print(
        format_table(
            ["functions", "no check (s)", "full check (s)", "DITTO (s)",
             "speedup"],
            rows,
        )
    )
    return {"series": payload}


def cmd_netcols(args: argparse.Namespace) -> dict[str, Any]:
    frames = args.mods or (100 if args.quick else 400)
    width = 24 if args.quick else 48
    print(
        f"\n[claim-netcols] average event-loop frame time, {width}x20 grid "
        f"(paper: 80ms full -> 15ms DITTO on its grid/machine)"
    )
    rows = []
    payload: dict[str, Any] = {"grid_width": width, "frames": frames,
                               "ms_per_frame": {}}
    for mode in ("none", "full", "ditto"):
        measured = measure_modes(
            "netcols", width, frames, (mode,), seed=args.seed
        )[mode]
        per_frame = 1000.0 * measured.seconds / frames
        payload["ms_per_frame"][mode] = per_frame
        rows.append((mode, f"{per_frame:.3f} ms/frame"))
    print(format_table(["mode", "frame time"], rows))
    return payload


def cmd_ablation(args: argparse.Namespace) -> dict[str, Any]:
    size = 200 if args.quick else 800
    mods = args.mods or (60 if args.quick else 200)
    print(f"\n[abl-optimistic] naive (Fig. 6) vs optimistic (Fig. 7), "
          f"size {size}, {mods} mods")
    rows = []
    payload: dict[str, Any] = {"size": size, "mods": mods,
                               "optimistic_vs_naive": {}, "variants": {},
                               "phase_times": {}}
    for name in FIG11_WORKLOADS:
        measured = measure_modes(
            name, size, mods, ("full", "naive", "ditto"), seed=args.seed,
            engine_options=_engine_options(args),
        )
        payload["optimistic_vs_naive"][name] = {
            mode: measured[mode].seconds
            for mode in ("full", "naive", "ditto")
        }
        payload["phase_times"][name] = {
            mode: measured[mode].phase_times
            for mode in ("naive", "ditto")
        }
        rows.append(
            (
                name,
                f"{measured['full'].seconds:.3f}",
                f"{measured['naive'].seconds:.3f}",
                f"{measured['ditto'].seconds:.3f}",
            )
        )
    print(format_table(
        ["workload", "full (s)", "naive (s)", "optimistic (s)"], rows
    ))

    print(f"\n[abl-impl] implementation-choice toggles, ordered_list "
          f"size {size}")
    variants = [
        ("default", {}),
        ("no leaf-call optimization", {"leaf_optimization": False}),
        ("step-limit fallback (tight)", {"step_limit": 50_000}),
    ]
    rows = []
    for label, options in variants:
        measured = measure_modes(
            "ordered_list", size, mods, ("ditto",), seed=args.seed,
            engine_options={**_engine_options(args), **options},
        )["ditto"]
        payload["variants"][label] = measured.seconds
        rows.append((label, f"{measured.seconds:.3f}"))
    print(format_table(["engine variant", "DITTO (s)"], rows))
    return payload


def cmd_overhead(args: argparse.Namespace) -> dict[str, Any]:
    """Space overhead of the incrementalization data structures (§5.1.1
    mentions "some baseline overhead due to write barriers and the
    incrementalization data structures that have to be maintained")."""
    from ..debug import graph_stats
    from .runner import make_engine, run_with_big_stack
    from .workloads import get_workload

    sizes = (100, 400) if args.quick else (100, 400, 1600)
    workloads = (
        [args.workload] if args.workload else list(FIG11_WORKLOADS)
    )
    print("\n[ext-overhead] computation-graph size per structure size")
    rows = []
    payload: dict[str, Any] = {}

    def measure(name: str, size: int) -> dict[str, float]:
        workload = get_workload(name, size, seed=args.seed)
        engine = make_engine(workload.entry, "ditto", _engine_options(args))
        try:
            engine.run(*workload.check_args())
            stats = graph_stats(engine)
            stats["reverse_map"] = engine.table.reverse_map_size()
            return stats
        finally:
            engine.close()

    for name in workloads:
        payload[name] = {}
        for size in sizes:
            stats = run_with_big_stack(lambda: measure(name, size))
            payload[name][size] = stats
            rows.append(
                (
                    name,
                    size,
                    int(stats["nodes"]),
                    int(stats["edges"]),
                    int(stats["implicits"]),
                    int(stats["reverse_map"]),
                    f"{stats['nodes'] / size:.2f}",
                )
            )
    print(
        format_table(
            ["workload", "size", "graph nodes", "edges", "implicit args",
             "reverse-map keys", "nodes/element"],
            rows,
        )
    )
    return payload


def cmd_soak(args: argparse.Namespace) -> dict[str, Any]:
    """Per-phase breakdown of one long mutate+check soak: where does
    repair time go?  (The paper's overhead discussion, made concrete.)"""
    size = 200 if args.quick else 1000
    mods = args.mods or (100 if args.quick else 500)
    workload = args.workload or "ordered_list"
    print(f"\n[obs-soak] {workload} size {size}, {mods} mutate+check "
          f"events, mode ditto")
    result = measure_soak(
        workload, size, mods, mode="ditto", seed=args.seed,
        engine_options=_engine_options(args),
    )
    print(format_phase_breakdown(result.phase_times, total=result.seconds))
    durations = sorted(result.run_durations)
    if durations:
        mid = durations[len(durations) // 2]
        p95 = durations[min(len(durations) - 1,
                            int(0.95 * len(durations)))]
        print(
            f"\nper-run latency: median {mid * 1e3:.3f} ms, "
            f"p95 {p95 * 1e3:.3f} ms, max {durations[-1] * 1e3:.3f} ms"
        )
    print(f"graph size after soak: {result.graph_size} nodes")
    return {
        "workload": result.workload,
        "size": result.size,
        "mods": result.mods,
        "mode": result.mode,
        "seconds": result.seconds,
        "phase_times": result.phase_times,
        "run_durations": result.run_durations,
        "counters": result.counters,
        "graph_size": result.graph_size,
    }


COMMANDS = {
    "fig11": cmd_fig11,
    "crossover": cmd_crossover,
    "speedup": cmd_speedup,
    "fig14": cmd_fig14,
    "netcols": cmd_netcols,
    "ablation": cmd_ablation,
    "overhead": cmd_overhead,
    "soak": cmd_soak,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment", choices=sorted(COMMANDS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument("--workload", help="restrict fig11 to one workload")
    parser.add_argument("--mods", type=int, help="modifications per run")
    parser.add_argument("--seed", type=int, default=0xD1770)
    parser.add_argument(
        "--quick", action="store_true", help="smaller sizes, faster run"
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the measured data as JSON (for CI/regression "
             "tracking)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace-event file of every engine's phase "
             "spans (open in Perfetto)",
    )
    parser.add_argument(
        "--profile", metavar="PREFIX",
        help="attach the repair-cost attribution profiler; writes "
             "PREFIX.folded.txt and PREFIX.speedscope.json and prints "
             "the top mutation sites by induced re-execution",
    )
    args = parser.parse_args(argv)

    sink: Optional[ChromeTraceSink] = None
    if args.trace:
        sink = ChromeTraceSink(args.trace)
    args.trace_sink = sink
    args.profiler = RepairProfiler() if args.profile else None

    start = time.perf_counter()
    payload: dict[str, Any] = {}
    try:
        if args.experiment == "all":
            for name in ("fig11", "crossover", "speedup", "fig14",
                         "netcols", "ablation", "overhead", "soak"):
                payload[name] = COMMANDS[name](args)
        else:
            payload[args.experiment] = COMMANDS[args.experiment](args)
    finally:
        if sink is not None:
            sink.close()
            print(f"\n(Chrome trace written to {args.trace} — "
                  f"{sink.events_emitted} events; open in Perfetto)")
        if args.profiler is not None:
            print()
            print(args.profiler.report(top=10))
            folded_path = f"{args.profile}.folded.txt"
            speedscope_path = f"{args.profile}.speedscope.json"
            args.profiler.write_folded(folded_path)
            args.profiler.write_speedscope(speedscope_path)
            print(f"\n(profile written to {folded_path} and "
                  f"{speedscope_path} — load the latter in "
                  f"https://www.speedscope.app)")
            args.profiler.detach_all()
    elapsed = time.perf_counter() - start
    if args.json:
        payload["meta"] = {"quick": args.quick, "seed": args.seed,
                           "seconds": elapsed}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\n(JSON written to {args.json})")
    print(f"\n(total bench time: {elapsed:.1f}s)")
    return 0
