"""Repair-cost attribution profiler: mutation-site attribution, sampling
epochs, determinism, exports, and the armed-but-idle overhead contract.

The overhead promise is proved the same way the tracing one is
(tests/test_obs_overhead.py): deterministically.  An attached profiler
whose sampling epoch is not armed leaves the tracking state's
``log_append`` as the *raw bound* ``WriteLog.append`` — identical object,
identical code path — so ``mutations_captured`` must stay exactly zero
through a soak.  A generous min-of-N timing bound rides along as a
tripwire, loose enough not to flake in CI.
"""

from __future__ import annotations

import gc
import random
import time
import weakref
from collections import Counter

import pytest

from repro import DittoEngine
from repro.obs import RepairProfiler, disable_profiling, enable_profiling
from repro.obs.trace import RingBufferSink, members
from repro.structures import OrderedIntList, is_ordered

SOAK_SIZE = 1000
SOAK_MODS = 120


def _build_list(size: int) -> OrderedIntList:
    lst = OrderedIntList()
    for v in range(size):
        lst.insert(v)
    return lst


# Two distinct mutation call-sites: attribution must tell them apart.
def _mutate_low(lst: OrderedIntList, rng: random.Random) -> None:
    lst.insert(rng.randrange(100))


def _mutate_high(lst: OrderedIntList, rng: random.Random) -> None:
    lst.insert(900 + rng.randrange(100))


def _soak(engine: DittoEngine, lst: OrderedIntList, seed: int) -> dict:
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


class TestSiteAttribution:
    def test_two_sites_attributed_separately(self, engine_factory):
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(50)
        rng = random.Random(7)
        engine.run(lst.head)
        for _ in range(6):
            _mutate_low(lst, rng)
            engine.run(lst.head)
        for _ in range(3):
            _mutate_high(lst, rng)
            engine.run(lst.head)
        sites = {s.site: s for s in profiler.top_mutation_sites()}
        low = next(s for t, s in sites.items() if "_mutate_low" in t)
        high = next(s for t, s in sites.items() if "_mutate_high" in t)
        assert low.mutations == 6
        assert high.mutations == 3
        # Every tagged mutation dirtied at least one reader and induced
        # at least one re-execution.
        assert low.nodes_dirtied >= 6
        assert low.induced_execs >= 6
        assert high.induced_execs >= 3
        assert low.induced_time >= 0.0

    def test_site_tag_is_caller_not_structure_mutator(self, engine_factory):
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(20)
        engine.run(lst.head)
        _mutate_low(lst, random.Random(0))
        engine.run(lst.head)
        (site,) = [s.site for s in profiler.top_mutation_sites()]
        # The application frame, not OrderedIntList.insert.
        assert "_mutate_low" in site
        assert "ordered_list.py" not in site
        assert site.endswith(")") and ":" in site  # "func (file:line)"

    def test_check_and_node_class_stats(self, engine_factory):
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(30)
        engine.run(lst.head)
        lst.insert(15)
        engine.run(lst.head)
        (cs,) = profiler.check_stats()
        assert cs.check == "is_ordered"
        assert cs.runs == 2
        assert cs.incremental_runs == 1
        assert cs.aborted_runs == 0
        assert cs.execs > 0
        assert cs.total_time > 0
        klasses = profiler.node_class_stats()
        assert any(k.func == "is_ordered" and k.execs > 0 for k in klasses)

    def test_report_mentions_all_axes(self, engine_factory):
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(10)
        engine.run(lst.head)
        _mutate_low(lst, random.Random(1))
        engine.run(lst.head)
        report = profiler.report()
        assert "per check:" in report
        assert "per node class" in report
        assert "top mutation sites" in report
        assert "_mutate_low" in report


class TestDeterminism:
    def _profile_soak(self, seed: int) -> list[tuple]:
        """One seeded bench-style soak; returns the top-3 site ranking
        reduced to its deterministic fields."""
        from repro.bench.runner import measure_soak

        profiler = RepairProfiler()
        measure_soak(
            "ordered_list", 120, 60, mode="ditto", seed=seed,
            engine_options={"observers": [profiler],
                            "recursion_limit": None},
        )
        profiler.detach_all()
        return [
            (s.site, s.mutations, s.nodes_dirtied, s.induced_execs)
            for s in profiler.top_mutation_sites(3)
        ]

    def test_top3_stable_under_fixed_seed(self):
        first = self._profile_soak(seed=0xD1770)
        second = self._profile_soak(seed=0xD1770)
        assert first == second
        assert first  # the soak produced attributable mutations
        # The ranking key is pure counts, so equal runs rank identically;
        # a different seed is allowed to (and here does) shuffle counts.
        assert all("workloads.py" in site for site, *_ in first)


class TestSamplingEpochs:
    def test_interval_samples_every_kth_run(self, engine_factory):
        profiler = RepairProfiler(sample_interval=3)
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(20)
        rng = random.Random(5)
        for _ in range(9):
            _mutate_low(lst, rng)
            engine.run(lst.head)
        assert profiler.runs_seen == 9
        assert profiler.samples == 3  # runs 3, 6, 9
        # Only the armed epochs captured mutations.
        assert 0 < profiler.mutations_captured < 9

    def test_unarmed_epoch_leaves_raw_append(self, engine_factory):
        profiler = RepairProfiler(sample_interval=1000)
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        state = engine.tracking
        assert state.mutation_probe is None
        assert state.log_append == state.write_log.append
        lst = _build_list(20)
        engine.run(lst.head)
        lst.insert(10)
        engine.run(lst.head)
        assert profiler.mutations_captured == 0
        assert profiler.samples == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            RepairProfiler(sample_interval=0)

    def test_reset_clears_attribution_but_not_attachment(
        self, engine_factory
    ):
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(10)
        engine.run(lst.head)
        _mutate_low(lst, random.Random(2))
        engine.run(lst.head)
        assert profiler.top_mutation_sites()
        profiler.reset()
        assert profiler.top_mutation_sites() == []
        assert profiler.runs_seen == 0
        assert profiler in members(engine.observer)
        lst.insert(3)
        engine.run(lst.head)
        assert profiler.samples == 1


class TestAttachDetach:
    def test_detach_restores_raw_barrier_path(self, engine_factory):
        engine = engine_factory(is_ordered)
        profiler = enable_profiling(engine)
        state = engine.tracking
        assert profiler in members(engine.observer)
        assert state.mutation_probe is not None
        disable_profiling(engine)
        assert profiler not in members(engine.observer)
        assert state.mutation_probe is None
        assert state.log_append == state.write_log.append

    def test_enable_is_idempotent(self, engine_factory):
        engine = engine_factory(is_ordered)
        profiler = enable_profiling(engine)
        assert enable_profiling(engine) is profiler

    def test_second_profiler_rejected(self, engine_factory):
        engine = engine_factory(is_ordered)
        enable_profiling(engine)
        with pytest.raises(ValueError, match="already has a profiler"):
            RepairProfiler().attach(engine)

    def test_shared_state_refcounted(self, engine_factory):
        profiler = RepairProfiler()
        a = engine_factory(is_ordered)
        profiler.attach(a)
        b = engine_factory(is_ordered)
        profiler.attach(b)
        assert a.tracking is b.tracking  # global state by default
        profiler.detach(a)
        # One engine still attached: the probe must survive.
        assert b.tracking.mutation_probe is not None
        profiler.detach(b)
        assert b.tracking.mutation_probe is None

    def test_close_detaches(self, engine_factory):
        """Closing an engine detaches its profiler: the probe stays armed
        while another engine on the state is attached and is disarmed
        when the last one closes, so stores read only by an unprofiled
        engine no longer pay the probe."""
        profiler = RepairProfiler()
        lst = _build_list(10)
        a = engine_factory(is_ordered)
        profiler.attach(a)
        b = engine_factory(is_ordered)
        profiler.attach(b)
        reader = engine_factory(is_ordered)
        for engine in (a, b, reader):
            assert engine.run(lst.head) is True
        state = reader.tracking
        a.close()
        assert profiler not in members(a.observer)
        assert state.mutation_probe is not None
        b.close()
        assert profiler not in members(b.observer)
        assert state.mutation_probe is None
        assert state.log_append == state.write_log.append
        captured = profiler.mutations_captured
        for i in range(100):
            lst.head.value = -i - 1
            assert reader.run(lst.head) is True
        assert profiler.mutations_captured == captured


    def test_profiler_keyword_is_gone(self):
        with pytest.raises(TypeError):
            DittoEngine(is_ordered, profiler=RepairProfiler())

    def test_dropped_profiled_engine_is_collected(self, engine_factory):
        """The profiler holds its engines weakly: a profiled engine
        dropped without ``close()`` is collected and releases its share of
        the tracking state, and the probe is disarmed with it."""
        lst = _build_list(3)
        survivor = engine_factory(is_ordered)
        dropped = DittoEngine(is_ordered, recursion_limit=None)
        profiler = enable_profiling(dropped)
        assert survivor.run(lst.head) is dropped.run(lst.head) is True
        gone = weakref.ref(dropped)
        del dropped
        gc.collect()
        assert gone() is None
        state = survivor.tracking
        assert state.mutation_probe is None
        captured = profiler.mutations_captured
        for i in range(1000):
            lst.head.value = -i - 1
            assert survivor.run(lst.head) is True
        assert len(state.write_log) == 0
        census = Counter(
            id(location.container)
            for node in survivor.table
            for location in node.implicits
        )
        header = lst.head._ditto
        assert header.refcount == header.locrefs == census[id(lst.head)]
        assert profiler.mutations_captured == captured


class TestExports:
    def _profiled_engine(self, engine_factory):
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered)
        profiler.attach(engine)
        lst = _build_list(30)
        engine.run(lst.head)
        rng = random.Random(3)
        for _ in range(4):
            _mutate_low(lst, rng)
            engine.run(lst.head)
        return profiler

    def test_folded_format(self, engine_factory, tmp_path):
        profiler = self._profiled_engine(engine_factory)
        folded = profiler.folded()
        assert folded.endswith("\n")
        for line in folded.strip().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert len(stack.split(";")) == 3  # check;phase;func
            assert int(weight) >= 1
        assert any(line.startswith("is_ordered;") for line in
                   folded.splitlines())
        path = tmp_path / "profile.folded.txt"
        profiler.write_folded(str(path))
        assert path.read_text() == folded

    def test_speedscope_document(self, engine_factory, tmp_path):
        import json

        profiler = self._profiled_engine(engine_factory)
        doc = profiler.speedscope()
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "microseconds"
        assert len(profile["samples"]) == len(profile["weights"])
        nframes = len(doc["shared"]["frames"])
        for sample in profile["samples"]:
            assert len(sample) == 3
            assert all(0 <= idx < nframes for idx in sample)
        assert profile["endValue"] == sum(profile["weights"])
        path = tmp_path / "profile.speedscope.json"
        profiler.write_speedscope(str(path))
        assert json.loads(path.read_text()) == doc

    def test_heat_dot_escaped_and_edged(self, engine_factory):
        profiler = self._profiled_engine(engine_factory)
        dot = profiler.heat_dot()
        assert dot.startswith("digraph repair_heat {")
        assert dot.rstrip().endswith("}")
        assert "is_ordered" in dot
        assert "fillcolor=" in dot
        # Self-recursive check: the call edge shows up with a count.
        assert "->" in dot

    def test_to_json_round_trips_through_analyzer(self, engine_factory):
        from repro.obs.analyze import summarize_profile

        profiler = self._profiled_engine(engine_factory)
        doc = profiler.to_json()
        assert doc["kind"] == "repair_profile"
        text = summarize_profile(doc)
        assert "_mutate_low" in text
        assert "is_ordered" in text


class TestProfileSampleInstant:
    def test_emitted_when_tracing(self, engine_factory):
        sink = RingBufferSink()
        profiler = RepairProfiler()
        engine = engine_factory(is_ordered, trace_sink=sink)
        profiler.attach(engine)
        lst = _build_list(10)
        engine.run(lst.head)
        lst.insert(5)
        engine.run(lst.head)
        instants = sink.instants("profile_sample")
        assert len(instants) == 2
        assert instants[-1].args["check"] == "is_ordered"
        assert instants[-1].args["incremental"] is True


class TestArmedIdleOverhead:
    """Satellite: an attached-but-idle profiler must cost the barrier
    soak only a small fixed percentage over the NullSink baseline."""

    def test_idle_profiler_changes_no_behaviour(self):
        baseline = DittoEngine(is_ordered, recursion_limit=None)
        try:
            base_delta = _soak(baseline, _build_list(SOAK_SIZE), 0xBEEF)
        finally:
            baseline.close()

        profiler = RepairProfiler(sample_interval=10_000)
        profiled = DittoEngine(is_ordered, recursion_limit=None)
        profiler.attach(profiled)
        try:
            state = profiled.tracking
            assert state.mutation_probe is None
            prof_delta = _soak(profiled, _build_list(SOAK_SIZE), 0xBEEF)
            # Identical work accounting, zero captures: the barrier path
            # is the raw append while the epoch is unarmed.
            assert prof_delta == base_delta
            assert profiler.mutations_captured == 0
            assert profiler.samples == 0
            assert profiler.runs_seen == SOAK_MODS + 1
        finally:
            profiler.detach_all()
            profiled.close()

    def test_idle_timing_within_bound(self):
        """Min-of-N wall-clock tripwire.  The deterministic test above is
        the real contract; the bound here is generous (35%) because CI
        timing noise on a ~10ms soak dwarfs a truly zero-cost change."""

        def timed_soak(profiler) -> float:
            best = float("inf")
            for _ in range(3):
                engine = DittoEngine(is_ordered, recursion_limit=None)
                if profiler is not None:
                    profiler.attach(engine)
                try:
                    lst = _build_list(SOAK_SIZE)
                    start = time.perf_counter()
                    _soak(engine, lst, 0xF00D)
                    best = min(best, time.perf_counter() - start)
                finally:
                    if profiler is not None:
                        profiler.detach(engine)
                    engine.close()
            return best

        base = timed_soak(None)
        idle = timed_soak(RepairProfiler(sample_interval=10_000))
        assert idle <= base * 1.35 + 0.01
