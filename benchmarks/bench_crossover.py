"""§5.1.1 crossover table: at the paper's reported crossover sizes
(ordered list 250, hash table 100, red-black tree 200) and above, the
incrementalized check should beat the full check within each group.

Compare the ``full`` and ``ditto`` rows inside each
``crossover-<workload>-<size>`` group of the benchmark output; regenerate
the search-based table with ``python -m repro.bench crossover``.

Run this module as a script to emit/gate the ``BENCH_crossover.json``
perf-trajectory record:

    python benchmarks/bench_crossover.py --emit BENCH_crossover.json \
        --check benchmarks/BENCH_crossover.json

The standalone bench walks a fixed geometric size ladder per workload and
times, at every rung, the full recursive check and the DITTO check, best
of ``--repeats``.  The DITTO check runs the engine's compiled closures;
the record keeps their historical name: the crossover is stored under
``specialized`` and the rung timings under ``specialized_s``.  The
crossover is suffix-win: the smallest rung from which the DITTO check
beats the full check at that rung *and every larger one* (a single noisy
mid-ladder win cannot fake a crossover), log-log interpolated between the
last losing and first winning rung so the estimate moves continuously
instead of in 1.5x rung jumps.  A check that never wins is *censored*:
its crossover clamps to the ladder maximum and carries
``censored: true``.

The gate fails when the incremental win erodes: on each gated workload
the crossover must be finite (not censored) and must stay within 2x of
the baseline's (a rung-aware backstop: estimates jitter by one 1.33–1.5x
ladder rung, so 2x is a sustained regression).  Wall-clock rung timings
are recorded for trajectory plots but not gated (machine-dependent);
they live in a list, which the ``repro.obs analyze`` drift net
deliberately does not recurse into.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import pytest

from repro.bench.runner import measure_modes

#: (workload, paper crossover size)
PAPER_CROSSOVERS = (
    ("ordered_list", 250),
    ("hash_table", 100),
    ("red_black_tree", 200),
)
MODS_PER_ROUND = 40


@pytest.mark.parametrize("workload,size", PAPER_CROSSOVERS)
@pytest.mark.parametrize("mode", ["full", "ditto"])
def test_crossover_at_paper_size(benchmark, cycle_factory, workload, size,
                                 mode):
    benchmark.group = f"crossover-{workload}-{size}"
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["paper_crossover"] = size
    benchmark.extra_info["mode"] = mode
    cycle = cycle_factory(workload, size, mode, MODS_PER_ROUND)
    benchmark.pedantic(cycle, rounds=3, iterations=1, warmup_rounds=1)


# Standalone emit/gate entry point (CI's BENCH_crossover.json). ---------------

#: Geometric size ladder (~1.33–1.5x rungs).  The top rung doubles as the
#: censoring clamp for a check that never crosses.
LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
          1024, 1536, 2048, 3072)
#: Mutations per measurement, per workload — tuned so the crossover sits
#: in the regime the paper measures (§5.1): enough repairs that the
#: incremental check can win, few enough that the graph build still
#: matters.
CROSSOVER_WORKLOADS = {
    "ordered_list": 44,
    "hash_table": 32,
    "red_black_tree": 64,
}
REPEATS = 5
SEED = 0xD1770


def _best_seconds(workload, size, mods, mode, repeats):
    return min(
        measure_modes(workload, size, mods, (mode,), SEED)[mode].seconds
        for _ in range(repeats)
    )


def measure_ladder(workload, mods, ladder=LADDER, repeats=REPEATS):
    """One row per rung: full-check and DITTO-check seconds."""
    return [
        {
            "size": size,
            "full_s": _best_seconds(workload, size, mods, "full", repeats),
            "specialized_s": _best_seconds(
                workload, size, mods, "ditto", repeats
            ),
        }
        for size in ladder
    ]


def _interpolate(s_lose, d_lose, s_win, d_win):
    """Log-log interpolation of the deficit curve d(s) = ditto/full to the
    d == 1 crossing between the last losing and first winning rung."""
    num = math.log(d_lose)
    den = math.log(d_lose) - math.log(d_win)
    frac = num / den if den > 0 else 1.0
    return math.exp(
        math.log(s_lose) + frac * (math.log(s_win) - math.log(s_lose))
    )


def ladder_crossover(rows):
    """Suffix-win crossover of the DITTO check over a measured ladder."""
    key = "specialized_s"
    win_idx = None
    for i in range(len(rows) - 1, -1, -1):
        if rows[i][key] < rows[i]["full_s"]:
            win_idx = i
        else:
            break
    if win_idx is None:
        return {"crossover": rows[-1]["size"], "censored": True}
    win = rows[win_idx]
    if win_idx == 0:
        return {"crossover": win["size"], "censored": False,
                "win_rung": win["size"]}
    lose = rows[win_idx - 1]
    estimate = _interpolate(
        lose["size"], lose[key] / lose["full_s"],
        win["size"], win[key] / win["full_s"],
    )
    return {"crossover": int(round(estimate)), "censored": False,
            "win_rung": win["size"]}


def run_crossover_benchmark(workloads=None, ladder=LADDER, repeats=REPEATS):
    workloads = dict(workloads or CROSSOVER_WORKLOADS)
    result = {
        "benchmark": "specialization-crossover",
        "generated_by": "benchmarks/bench_crossover.py",
        "params": {
            "ladder": list(ladder),
            "repeats": repeats,
            "seed": SEED,
        },
        "workloads": {},
    }
    for name in sorted(workloads):
        mods = workloads[name]
        rows = measure_ladder(name, mods, ladder, repeats)
        result["workloads"][name] = {
            "mods": mods,
            "ladder": rows,
            "specialized": ladder_crossover(rows),
        }
    return result


#: Gate thresholds (see the module docstring).
GATED_WORKLOADS = ("ordered_list", "hash_table", "red_black_tree")
#: Backstop on the specialized crossover vs the committed baseline.  A
#: crossover estimate jitters by up to one ladder rung (1.33–1.5x) run to
#: run even with best-of-5 timings; 2x means a sustained multi-rung
#: regression, not noise.
MAX_SPEC_GROWTH = 2.0
#: Baselines smaller than this are floored before the 2x comparison: at
#: the bottom of the ladder one rung of jitter exceeds any multiplicative
#: tolerance (a crossover of 41 vs 99 is two rungs, not a 2.4x slowdown).
MIN_SPEC_FLOOR = 64


def check_against_baseline(result, baseline):
    """Return a list of failure messages (empty when the gate passes)."""
    failures = []
    for name in GATED_WORKLOADS:
        wl = result["workloads"].get(name)
        if wl is None:
            failures.append(f"{name}: missing from the bench result")
            continue
        spec = wl["specialized"]
        if spec["censored"]:
            failures.append(
                f"{name}: specialized tier never crossed below "
                f"size {spec['crossover']}"
            )
        if baseline is None:
            continue
        base_wl = (baseline.get("workloads") or {}).get(name)
        if base_wl is None:
            continue
        base_spec = base_wl["specialized"]
        if not spec["censored"] and not base_spec["censored"]:
            limit = (
                max(base_spec["crossover"], MIN_SPEC_FLOOR)
                * MAX_SPEC_GROWTH
            )
            if spec["crossover"] > limit:
                failures.append(
                    f"{name}: specialized crossover {spec['crossover']} "
                    f"regressed >20% vs baseline {base_spec['crossover']}"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--emit", metavar="PATH", help="write BENCH_crossover.json here"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="gate against a committed BENCH_crossover.json",
    )
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--workload", action="append", metavar="NAME=MODS", default=None,
        help="override the measured workloads (repeatable)",
    )
    args = parser.parse_args(argv)

    workloads = None
    if args.workload:
        workloads = {}
        for spec in args.workload:
            name, _, mods = spec.partition("=")
            workloads[name] = int(mods) if mods else CROSSOVER_WORKLOADS[name]

    result = run_crossover_benchmark(workloads, repeats=args.repeats)
    for name, wl in sorted(result["workloads"].items()):
        spec = wl["specialized"]
        print(
            f"{name}: specialized crossover {spec['crossover']}"
            f"{' (censored)' if spec['censored'] else ''} "
            f"(mods={wl['mods']})"
        )
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.emit}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_against_baseline(result, baseline)
        if failures:
            for failure in failures:
                print(f"GATE FAILURE: {failure}", file=sys.stderr)
            return 1
        print(f"gate passed vs {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
