"""Deterministic exact-counter gate over the paper-workload benchmark.

    python benchmarks/perfbench_exact.py --emit PERFBENCH_exact.json
    python benchmarks/perfbench_exact.py --check benchmarks/PERFBENCH_exact.json

Runs ``perfbench/run.py --workload all --seed S --seconds 1 --trace 1`` for
each seed in ``SEEDS`` and keeps the per-layer metrics whose
``BENCHMARK.json`` unit is ``count``, ``count/event`` or ``ratio`` -- the
counters that do not depend on the machine (the ``EXACT`` rule of
``perfbench/test_perfbench.py``).  ``--check`` fails on any inequality
against the baseline and names every key that differs; a change that moves
a counter on purpose re-emits the baseline and says why.  Wall-clock
metrics are not gated here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
EXACT_UNITS = ("count", "count/event", "ratio")


def exact_names() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        metric["name"]
        for metric in declared["per_layer"]
        if metric["unit"] in EXACT_UNITS
    ]


def run_perfbench(checkout: Path, workload: str, seed: int,
                  seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its ``metrics``
    mapping.  Aborts unless the run reads ``"correct": true,
    "failed": 0``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench failed in {checkout} (seed {seed})")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise SystemExit(
            f"perfbench in {checkout} (seed {seed}): "
            f"correct={result['correct']} failed={result['failed']}"
        )
    return result["metrics"]


def measure(seed: int, names: list[str]) -> dict:
    """One traced ``--workload all`` run: its exact counters, keyed
    ``<workload>/<metric>``."""
    metrics = run_perfbench(ROOT, "all", seed, 1, trace=1)
    return {
        key: metric["value"]
        for key, metric in sorted(metrics.items())
        if key.split("/", 1)[1] in names
    }


def differences(result: dict, baseline: dict) -> list[str]:
    """Every ``seed <s> <key>`` whose value differs from the baseline (a key
    missing on one side counts as a difference)."""
    diffs = []
    for seed in sorted(set(result) | set(baseline)):
        got, want = result.get(seed, {}), baseline.get(seed, {})
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                diffs.append(
                    f"seed {seed} {key}: {want.get(key)!r} -> {got.get(key)!r}"
                )
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emit", metavar="PATH",
                        help="write the exact counters here")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail unless every counter equals the baseline's")
    args = parser.parse_args(argv)
    names = exact_names()
    result = {str(seed): measure(seed, names) for seed in SEEDS}
    print(f"{sum(map(len, result.values()))} exact counters over seeds "
          f"{', '.join(result)}")
    if args.emit:
        Path(args.emit).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.emit}")
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        diffs = differences(result, baseline)
        if diffs:
            for diff in diffs:
                print(f"EXACT COUNTER CHANGED: {diff}", file=sys.stderr)
            return 1
        print(f"every exact counter equals {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
