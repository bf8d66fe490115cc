"""``repro.lint`` — whole-program soundness analysis for invariant checks.

Two consumers, one rule catalogue (:mod:`repro.lint.rules`):

* **File mode** (``python -m repro.lint paths...`` / :func:`lint_paths`):
  parses the given files as one program — no imports executed — and runs
  interprocedural check admissibility (DIT0xx) plus barrier-bypass
  detection (DIT1xx).  This is the CI gate.
* **Live mode** (:func:`build_plan` / ``DittoEngine(..., lint=...)`` /
  ``engine.lint()``): resolves the real registered objects, producing an
  :class:`EntryPlan` whose per-entry monitored-field set and helper read
  summaries the engine consumes directly.
"""

from .interproc import EntryPlan, build_plan
from .modlint import lint_paths
from .purity import HelperSummary, analyze_helper, analyze_helper_tree
from .rules import ERROR, RULES, WARNING, Diagnostic, LintReport, Rule

__all__ = [
    "ERROR",
    "WARNING",
    "RULES",
    "Rule",
    "Diagnostic",
    "LintReport",
    "EntryPlan",
    "HelperSummary",
    "analyze_helper",
    "analyze_helper_tree",
    "build_plan",
    "lint_paths",
]
