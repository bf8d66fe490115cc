"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 — no error-severity findings (warnings alone never gate
unless ``--strict-warnings``); 1 — at least one gating finding; 2 — usage
error (no such path and nothing linted).

Examples::

    python -m repro.lint src/repro/structures examples
    python -m repro.lint src/repro/structures --format json > lint.json
    python -m repro.lint --rules         # print the rule catalogue
    python -m repro.lint --explain DIT003   # one rule, in depth
"""

from __future__ import annotations

import argparse
import sys

from .modlint import lint_paths
from .rules import RULES


def _print_rules() -> None:
    for code in sorted(RULES):
        rule = RULES[code]
        print(f"{code}  {rule.severity:<7}  {rule.name:<26} {rule.summary}")


def _explain_rule(code: str) -> int:
    rule = RULES.get(code.upper())
    if rule is None:
        known = ", ".join(sorted(RULES))
        print(f"error: unknown rule code {code!r} (known: {known})",
              file=sys.stderr)
        return 2
    print(f"{rule.code} ({rule.name}) — severity: {rule.severity}")
    print()
    print(rule.summary)
    if rule.rationale:
        print()
        print(rule.rationale)
    if rule.example:
        print()
        print("Example:")
        for line in rule.example.splitlines():
            print(f"    {line}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Whole-program soundness linter for DITTO invariant checks: "
            "interprocedural check admissibility (DIT0xx) and write-barrier "
            "bypass detection (DIT1xx)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (directories are walked for .py)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write the report (in the chosen format) to this file",
    )
    parser.add_argument(
        "--strict-warnings",
        action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print one rule's summary, rationale, and example, then exit "
             "(exit code 2 for an unknown code)",
    )
    args = parser.parse_args(argv)

    if args.explain:
        return _explain_rule(args.explain)
    if args.rules:
        _print_rules()
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --rules)", file=sys.stderr)
        return 2

    report = lint_paths(args.paths)
    if report.files_linted == 0 and report.diagnostics:
        # Nothing lintable and only path errors: usage problem.
        for diag in report.sorted():
            print(diag.format(), file=sys.stderr)
        return 2

    rendered = (
        report.to_json() if args.format == "json" else report.format_text()
    )
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(
                report.to_json()
                if args.format == "json"
                else report.format_text() + "\n"
            )
    return report.exit_code(strict_warnings=args.strict_warnings)
