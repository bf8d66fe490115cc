"""Shared test fixtures.

Every test runs against a clean global tracking state (write log, monitored
fields); engines created inside tests are closed automatically via the
``engine_factory`` fixture.
"""

from __future__ import annotations

import pytest

from repro import DittoEngine, reset_tracking
from repro.obs import RingBufferSink


def pytest_addoption(parser):
    parser.addoption(
        "--engine-mode",
        default="ditto",
        choices=("ditto", "naive"),
        help=(
            "Incrementalization strategy used by mode-parametric suites "
            "(the tests/test_resilience_*.py fault-injection tests); CI "
            "runs them under both 'ditto' and 'naive'."
        ),
    )
    parser.addoption(
        "--trace-sink",
        default="null",
        choices=("null", "ring"),
        help=(
            "Trace sink attached to every engine_factory engine: 'null' "
            "(default, tracing off) or 'ring' (RingBufferSink — CI runs "
            "the suite under both, proving tracing changes no results)."
        ),
    )


@pytest.fixture
def engine_mode(request) -> str:
    """The --engine-mode command-line choice ('ditto' by default)."""
    return request.config.getoption("--engine-mode")


@pytest.fixture(autouse=True)
def _clean_tracking():
    reset_tracking()
    yield
    reset_tracking()


@pytest.fixture
def engine_factory(request):
    """Create engines that are closed at test teardown."""
    engines: list[DittoEngine] = []
    sink_kind = request.config.getoption("--trace-sink")

    def make(entry, **kwargs) -> DittoEngine:
        # Tests run under the interpreter's own recursion limit, as users
        # do.  Engine-managed limits interact poorly with hypothesis's
        # stack bookkeeping, so they stay off unless a test opts in.
        kwargs.setdefault("recursion_limit", None)
        if sink_kind == "ring" and "trace_sink" not in kwargs:
            kwargs["trace_sink"] = RingBufferSink()
        engine = DittoEngine(entry, **kwargs)
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()
