"""Observability overhead contract: a disabled engine never builds trace
events, and tracing changes no engine behaviour.

The hot-path promise (near-zero overhead when disabled) is proved
deterministically, not with a timing assertion: the engine tests its one
observer slot before calling any hook, and a :class:`~repro.obs.NullSink`
leaves the slot empty, so the sink's ``events_emitted`` counter must
stay exactly zero through a long soak — if any hot path allocated an
event, the counter would tick.
"""

from __future__ import annotations

import random

from repro import DittoEngine
from repro.core.stats import PHASES
from repro.obs import NullSink, RingBufferSink
from repro.structures import OrderedIntList, is_ordered

SOAK_SIZE = 1000
SOAK_MODS = 120


def _build_list(size: int) -> OrderedIntList:
    lst = OrderedIntList()
    for v in range(size):
        lst.insert(v)
    return lst


def _soak(engine: DittoEngine, lst: OrderedIntList, seed: int) -> dict:
    """Identically-seeded mutate+check soak; returns the counter deltas."""
    rng = random.Random(seed)
    engine.run(lst.head)
    before = engine.stats.snapshot()
    values = list(range(SOAK_SIZE))
    for _ in range(SOAK_MODS):
        if rng.random() < 0.6 or not values:
            v = rng.randrange(10 * SOAK_SIZE)
            lst.insert(v)
            values.append(v)
        else:
            lst.delete(values.pop(rng.randrange(len(values))))
        assert engine.run(lst.head) is True
    return engine.stats.delta(before)


class TestNullSinkSoak:
    def test_disabled_engine_emits_nothing(self):
        sink = NullSink()
        engine = DittoEngine(is_ordered, trace_sink=sink,
                             recursion_limit=None)
        try:
            assert engine.observer is None
            delta = _soak(engine, _build_list(SOAK_SIZE), seed=0xBEEF)
        finally:
            engine.close()
        # The soak exercised the hot paths...
        assert delta["incremental_runs"] == SOAK_MODS
        assert delta["dirty_execs"] > 0
        assert delta["reuses"] > 0
        # ...and not one event object was built for the default sink.
        assert sink.events_emitted == 0

    def test_default_sink_is_null(self):
        engine = DittoEngine(is_ordered, recursion_limit=None)
        try:
            assert isinstance(engine.trace_sink, NullSink)
            assert engine.observer is None
        finally:
            engine.close()


class TestTracingEquivalence:
    def test_tracing_changes_no_engine_behaviour(self):
        """The same seeded soak, traced and untraced, must account the
        same work — tracing is observation, not interference."""
        null_sink = NullSink()
        ring_sink = RingBufferSink(capacity=100_000)
        deltas = {}
        for name, sink in (("null", null_sink), ("ring", ring_sink)):
            engine = DittoEngine(is_ordered, trace_sink=sink,
                                 recursion_limit=None)
            try:
                deltas[name] = _soak(
                    engine, _build_list(SOAK_SIZE), seed=0xCAFE
                )
            finally:
                engine.close()
        assert deltas["null"] == deltas["ring"]
        assert null_sink.events_emitted == 0
        assert ring_sink.events_emitted > 0
        span_names = {e.name for e in ring_sink.spans()}
        assert {"barrier_drain", "dirty_mark", "exec"} <= span_names


class TestPhaseTimes:
    def test_report_times_are_sane(self):
        engine = DittoEngine(is_ordered, recursion_limit=None)
        try:
            lst = _build_list(50)
            engine.run(lst.head)
            lst.insert(25)
            report = engine.run_with_report(lst.head)
        finally:
            engine.close()
        assert report.duration > 0
        assert report.phase_times
        assert set(report.phase_times) <= set(PHASES)
        assert all(v >= 0 for v in report.phase_times.values())
        # The phases partition the run: their sum cannot meaningfully
        # exceed the run's wall clock (allow scheduler jitter).
        assert sum(report.phase_times.values()) <= report.duration + 0.05

    def test_lifetime_timers_accumulate(self):
        engine = DittoEngine(is_ordered, recursion_limit=None)
        try:
            lst = _build_list(50)
            engine.run(lst.head)
            assert engine.stats.time_exec > 0
            first = engine.stats.time_exec
            lst.insert(25)
            engine.run(lst.head)
            assert engine.stats.time_exec > first
            timers = engine.stats.timers()
            assert set(timers) == set(PHASES)
        finally:
            engine.close()
