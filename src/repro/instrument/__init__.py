"""Instrumentation pipeline: registry, static analysis, AST transformation."""

from .analysis import PURE_BUILTINS, CheckAnalysis, analyze_check
from .recursify import RecursifyError, recursify
from .registry import CheckFunction, check, closure_of
from .transform import (
    IMMUTABLE_RECEIVERS,
    instrumented_source,
    register_pure_helper,
    register_pure_method,
)

__all__ = [
    "analyze_check",
    "check",
    "CheckAnalysis",
    "CheckFunction",
    "closure_of",
    "IMMUTABLE_RECEIVERS",
    "instrumented_source",
    "PURE_BUILTINS",
    "recursify",
    "RecursifyError",
    "register_pure_helper",
    "register_pure_method",
]
