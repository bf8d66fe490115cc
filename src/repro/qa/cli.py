"""``python -m repro.qa`` — the differential-fuzzing command line.

Usage::

    python -m repro.qa --seed 0 --ops 500            # all structures
    python -m repro.qa --structure rope --seed 7
    python -m repro.qa --time-budget 600             # nightly: seed sweep
    python -m repro.qa --inject drop_writes=2@120    # resilience drill
    python -m repro.qa --replay qa_repro_rope_seed7.json
    python -m repro.qa --list

On divergence the trace is delta-debugged down to a minimal reproducer
and written to ``--artifacts`` (default ``qa_artifacts/``) as both a
replay file and a runnable Python snippet; the exit status is 1.

``--trace FILE`` attaches a Chrome trace-event sink to the incremental
engines (load the output in Perfetto); ``--metrics`` ends the output with
one JSON line of the run's totals: ``traces``, ``ops``, ``checks``,
``divergences`` and ``seconds`` (summed over the replayed traces).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from ..obs.sinks import ChromeTraceSink
from .generator import TraceGenerator
from .models import model_names
from .oracle import Oracle, OracleReport
from .replay import format_report, write_reproducer
from .shrinker import Shrinker
from .trace import FAULT_KINDS, Trace


def _parse_inject(spec: str) -> tuple[str, int, int]:
    """``kind=amount@index`` → (kind, amount, index)."""
    try:
        kind, rest = spec.split("=", 1)
        amount, at = rest.split("@", 1)
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError
        return kind, int(amount), int(at)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--inject wants KIND=AMOUNT@INDEX with KIND in {FAULT_KINDS}, "
            f"got {spec!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="Differential fuzzing of the DITTO engines: random "
        "mutation/check traces, diffed against from-scratch execution.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--ops", type=int, default=500, help="ops per generated trace"
    )
    parser.add_argument(
        "--structure",
        action="append",
        choices=model_names() + ["all"],
        help="structure(s) to fuzz (repeatable; default: all)",
    )
    parser.add_argument(
        "--check-prob",
        type=float,
        default=0.25,
        help="probability of an interleaved differential check per op",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep fuzzing fresh seeds (base seed, +1, +2, …) across all "
        "selected structures until the budget is spent",
    )
    parser.add_argument(
        "--inject",
        type=_parse_inject,
        default=None,
        metavar="KIND=AMOUNT@INDEX",
        help="splice an @fault op into each generated trace "
        f"(KIND in {', '.join(FAULT_KINDS)})",
    )
    parser.add_argument(
        "--replay", metavar="FILE", help="replay a saved trace instead"
    )
    parser.add_argument(
        "--expect-divergence",
        action="store_true",
        help="with --replay: exit 0 iff the divergence still reproduces "
        "(artifact verification)",
    )
    parser.add_argument(
        "--artifacts",
        default="qa_artifacts",
        help="directory for shrunk reproducers (default: qa_artifacts)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without minimizing them",
    )
    parser.add_argument(
        "--max-shrink-replays",
        type=int,
        default=2000,
        help="delta-debugging replay budget per divergence",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the end-of-trace GraphAuditor pass",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="also run the assertion-based engine.validate() after each "
        "trace (slower, catches internal bookkeeping drift)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace of the incremental engines' phases",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="end with one JSON line of the run's totals (traces, ops, "
        "checks, divergences, seconds)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered structures"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="per-trace audit detail"
    )
    return parser


def _structures(args: argparse.Namespace) -> list[str]:
    chosen = args.structure or ["all"]
    if "all" in chosen:
        return model_names()
    # Preserve CLI order, drop duplicates.
    return list(dict.fromkeys(chosen))


def _totals(reports: list[OracleReport]) -> dict[str, float]:
    """The ``--metrics`` line: the replayed traces' reports, summed."""
    return {
        "traces": len(reports),
        "ops": sum(r.ops_applied for r in reports),
        "checks": sum(r.checks_run for r in reports),
        "divergences": sum(len(r.divergences) for r in reports),
        "seconds": round(sum(r.duration for r in reports), 6),
    }


def _fuzz_one(
    name: str,
    seed: int,
    args: argparse.Namespace,
    oracle: Oracle,
) -> OracleReport:
    """Generate + replay one trace; shrink and persist on divergence.
    Returns the replay's report."""
    generator = TraceGenerator(
        name, seed=seed, op_count=args.ops, check_prob=args.check_prob
    )
    trace = generator.generate(inject=args.inject)
    report = oracle.run(trace)
    print(format_report(report, verbose=args.verbose))
    if report.ok or args.no_shrink:
        return report
    kind = report.divergences[0].kind
    shrinker = Shrinker(
        trace,
        kind=kind,
        max_replays=args.max_shrink_replays,
        audit=not args.no_audit,
        validate=args.validate,
    )
    result = shrinker.shrink()
    replay_path, snippet_path = write_reproducer(
        result.trace, args.artifacts, kind, result.original_len
    )
    print(
        f"  shrunk {result.original_len} -> {len(result)} ops "
        f"({result.replays} replays); reproducer:"
    )
    print(f"    {replay_path}")
    print(f"    {snippet_path}")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in model_names():
            print(name)
        return 0

    reports: list[OracleReport] = []
    sink = ChromeTraceSink(args.trace, "repro.qa") if args.trace else None

    try:
        if args.replay:
            trace = Trace.load(args.replay)
            oracle = Oracle(
                trace.structure,
                audit=not args.no_audit,
                validate=args.validate,
                trace_sink=sink,
            )
            report = oracle.run(trace)
            reports.append(report)
            print(format_report(report, verbose=args.verbose))
            if args.expect_divergence:
                if report.ok:
                    print("expected a divergence; trace replayed clean")
                    return 1
                print("divergence reproduced")
                return 0
            return 0 if report.ok else 1

        deadline = (
            time.monotonic() + args.time_budget
            if args.time_budget is not None
            else None
        )
        seed = args.seed
        rounds = 0
        while True:
            for name in _structures(args):
                oracle = Oracle(
                    name,
                    audit=not args.no_audit,
                    validate=args.validate,
                    trace_sink=sink,
                )
                reports.append(_fuzz_one(name, seed, args, oracle))
                if deadline is not None and time.monotonic() >= deadline:
                    break
            rounds += 1
            if deadline is None or time.monotonic() >= deadline:
                break
            seed += 1
        if deadline is not None:
            print(f"time budget spent after {rounds} round(s)")
        return 0 if all(report.ok for report in reports) else 1
    finally:
        if args.metrics:
            print(json.dumps(_totals(reports)))
        if sink is not None:
            sink.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
