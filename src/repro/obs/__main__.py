"""CLI for the observability layer.

``python -m repro.obs analyze`` reads back the artifacts the layer
writes — flight-recorder dumps, repair profiles, JSONL traces, and
committed ``BENCH_*.json`` history — summarizes them, and (with
``--against``/``--gate``) fails the build on benchmark drift.  See
:mod:`repro.obs.analyze`.
"""

from __future__ import annotations

import argparse
from typing import Optional

from .analyze import analyze


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "analyze",
        help="summarize observability artifacts; diff/gate BENCH history",
        add_help=False,  # repro.obs.analyze owns the full arg surface
    )
    args, rest = parser.parse_known_args(argv)
    if args.command == "analyze":
        return analyze(rest)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
