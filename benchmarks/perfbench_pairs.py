"""Alternating parent/change pairs over the paper-workload benchmark.

    python benchmarks/perfbench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload jso --pairs 10 --seconds 30

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository (a
``git clone`` or ``git archive`` of each commit).  Pair ``i`` (from 1)
runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0`` once
in each checkout; which side runs first flips every pair, so drift on
a shared host lands on both sides alike.  Any run that does not read
``"correct": true, "failed": 0`` aborts the comparison.

For every end-to-end metric declared in ``BENCHMARK.json`` it prints both
medians, the parent's interquartile range, the change's wins and ties over
the pairs, and whether the change's median is inside the metric's bound.
A gain may be claimed when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's IQR (``claim``).
The bounds are read from the change's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from perfbench_exact import run_perfbench

#: Share of pairs the change must win before a gain may be claimed.
WIN_SHARE = 0.9


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(parent: list[dict], change: list[dict],
              end_to_end: list[dict]) -> list[dict]:
    """Per end-to-end metric, compare pair-aligned runs (``parent[i]`` and
    ``change[i]`` are pair ``i``).  ``end_to_end`` is the
    ``BENCHMARK.json`` list of ``{name, better, bound, ...}``."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        p_med, c_med = statistics.median(p), statistics.median(c)
        iqr = _iqr(p)
        gain = sign * (c_med - p_med)
        rows.append({
            "name": name,
            "parent_median": p_med,
            "change_median": c_med,
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "parent_iqr": iqr,
            "pairs": len(p),
            "wins": wins,
            "ties": ties,
            "bound": metric["bound"],
            "within_bound": gain >= -metric["bound"] * abs(p_med),
            "claim": wins >= WIN_SHARE * len(p) and gain > iqr,
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    lines = [
        f"{workload}: {rows[0]['pairs'] if rows else 0} alternating pairs",
        f"{'metric':<20} {'parent':>12} {'change':>12} {'change%':>8} "
        f"{'p.IQR':>10} {'wins':>5} {'ties':>4} {'bound':>6} "
        f"{'within':>6} {'claim':>5}",
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<20} {r['parent_median']:>12.4g} "
            f"{r['change_median']:>12.4g} {r['change_pct']:>+7.1f}% "
            f"{r['parent_iqr']:>10.4g} {r['wins']:>5} {r['ties']:>4} "
            f"{r['bound']:>6.2f} {str(r['within_bound']):>6} "
            f"{str(r['claim']):>5}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        parser.error(
            f"--workload must be one of {', '.join(workloads)}, "
            f"got {args.workload!r}"
        )
    parent: list[dict] = []
    change: list[dict] = []
    for seed in range(1, args.pairs + 1):
        sides = [(parent, args.parent), (change, args.change)]
        if seed % 2 == 0:
            sides.reverse()
        for runs, checkout in sides:
            metrics = run_perfbench(checkout, args.workload, seed,
                                    args.seconds, trace=0)
            runs.append({name: m["value"] for name, m in metrics.items()})
        print(
            f"pair {seed} ({'change' if seed % 2 == 0 else 'parent'} "
            f"first): " + ", ".join(
                f"{m['name']} {parent[-1][m['name']]:.4g} -> "
                f"{change[-1][m['name']]:.4g}"
                for m in declared["end_to_end"]
            ),
            flush=True,
        )
    rows = summarize(parent, change, declared["end_to_end"])
    print(format_rows(args.workload, rows))
    return 0 if all(r["within_bound"] for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
