"""Repair-cost attribution: which check, node class, and *mutation site*
is burning the repair budget?

DITTO's promise (paper §5) is that repair time tracks the size of the
change, not the structure.  When it doesn't, the aggregate phase timers
in :mod:`repro.core.stats` can say *that* repair is slow but not *why*.
This module answers why, three ways:

* **per registered check** — runs, incremental share, aborts, total and
  self repair time (:class:`CheckStat`);
* **per memo-graph node class** — every re-execution of a node is
  accounted to its check function, with self time (elapsed minus time
  spent in callees re-executed underneath it), so a hot helper shows up
  even when only entry-point timers exist (:class:`NodeClassStat`);
* **per mutation call-site** — the write barrier in
  :mod:`repro.core.tracked` offers every logged location to a probe when
  profiling is armed; the probe captures a cheap caller tag (function
  name, file, line) by walking past the barrier frames.  At the next
  run's barrier drain each pending location's tags are joined against
  the memo table's reverse map, so every induced re-execution is charged
  back to the source lines that caused it ("top mutation sites by
  induced re-execution", :class:`SiteStat`).

Overhead model
--------------

Arming is *sampled*: with ``sample_interval=k`` only every k-th engine
run is recorded, and — crucially — the barrier probe is installed only
for the epochs leading into a recorded run.  Between samples the
tracking state's ``log_append`` is restored to the raw bound
``WriteLog.append``, so an attached-but-idle profiler costs the barrier
path **nothing** (the overhead test proves ``mutations_captured == 0``
and that ``state.log_append`` is the raw append).  ``sample_interval=1``
is toggled-exact mode: every run recorded, every mutation tagged.

Exports: folded-stack text (``check;phase;node`` one line per frame,
weight in microseconds — pipe into any flamegraph renderer), speedscope
JSON (https://www.speedscope.app), and a memo-graph *heat* DOT layered
on the provenance renderer's escaping rules.

The profiler is deliberately single-threaded — attach one per engine
(the bench CLI runs each engine under a lock).  Every engine shares the
one tracking state, so when several are profiled at once, pending site
tags are attributed to the first engine that drains the shared write
log.  It holds its engines weakly: a profiled engine dropped without
``close()`` is still collected, and the probe is disarmed once no
profiled engine on its tracking state is left.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from ..core.locations import Location
    from ..core.node import ComputationNode
    from ..core.tracked import TrackingState

from ..core import tracked as _tracked
from .trace import Observer, find

#: Frames whose code lives in the barrier module are skipped when
#: resolving a mutation's caller tag (the probe fires from inside
#: ``TrackingState.log_append`` → ``TrackedObject.__setattr__`` → user
#: code; only the user frame is interesting).
_BARRIER_FILE = os.path.abspath(_tracked.__file__)

#: The library's own structure mutators (``OrderedIntList.insert``,
#: ``RedBlackTree.delete``, ...) are *implementations*, not call-sites:
#: the useful answer to "which mutation site makes my checks slow?" is
#: the application frame that invoked the mutator.  Frames under this
#: directory are skipped too — but kept as a fallback tag so a mutation
#: issued from inside the package (structure unit tests, internal
#: rebalancing helpers with no outside caller on the stack) still
#: attributes somewhere.  Pure path math: importing ``repro.structures``
#: here would drag the whole structure zoo in under ``repro.obs``.
_STRUCTURES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(_BARRIER_FILE)), "structures"
) + os.sep

#: Safety valve for engines that never drain (a probe armed against a
#: scratch-mode engine, or a state nobody runs): once this many distinct
#: locations are pending, new locations are counted in
#: ``pending_dropped`` instead of being retained.
_MAX_PENDING_LOCATIONS = 65536


class SiteStat:
    """Accumulated cost attributed to one mutation call-site tag."""

    __slots__ = ("site", "mutations", "nodes_dirtied", "induced_execs",
                 "induced_time")

    def __init__(self, site: str) -> None:
        self.site = site
        #: Logged mutations captured at this site (pre-dedup: every write
        #: that passed the barrier filters while the probe was armed).
        self.mutations = 0
        #: Memo-graph nodes dirtied by this site's mutations (a node
        #: dirtied by k sites counts once per site — co-induction).
        self.nodes_dirtied = 0
        #: Re-executions this site induced (directly-dirtied nodes plus
        #: the propagate/retry ancestors that inherited their taint).
        self.induced_execs = 0
        #: Self-time seconds of those re-executions, split evenly among
        #: the co-inducing sites of each node.
        self.induced_time = 0.0

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "mutations": self.mutations,
            "nodes_dirtied": self.nodes_dirtied,
            "induced_execs": self.induced_execs,
            "induced_time_s": self.induced_time,
        }


class CheckStat:
    """Accumulated cost of one registered check (engine entry point)."""

    __slots__ = ("check", "runs", "incremental_runs", "aborted_runs",
                 "execs", "failed_execs", "self_time", "total_time")

    def __init__(self, check: str) -> None:
        self.check = check
        self.runs = 0
        self.incremental_runs = 0
        self.aborted_runs = 0
        self.execs = 0
        #: Executions that raised (mispredictions, injected faults).
        self.failed_execs = 0
        self.self_time = 0.0
        #: Wall-clock of the recorded runs (``engine.last_duration``).
        self.total_time = 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "runs": self.runs,
            "incremental_runs": self.incremental_runs,
            "aborted_runs": self.aborted_runs,
            "execs": self.execs,
            "failed_execs": self.failed_execs,
            "self_time_s": self.self_time,
            "total_time_s": self.total_time,
        }


class NodeClassStat:
    """Accumulated cost of one memo-graph node class (check function)."""

    __slots__ = ("func", "execs", "self_time")

    def __init__(self, func: str) -> None:
        self.func = func
        self.execs = 0
        self.self_time = 0.0

    def to_dict(self) -> dict:
        return {
            "func": self.func,
            "execs": self.execs,
            "self_time_s": self.self_time,
        }


class RepairProfiler(Observer):
    """Sampled repair-cost attribution across one or more engines.

    :meth:`attach` (or ``engine.attach(profiler)``) hooks an engine;
    :meth:`detach` restores the raw barrier path.
    """

    def __init__(
        self,
        sample_interval: int = 1,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sample_interval < 1:
            raise ValueError(
                f"sample_interval must be >= 1, got {sample_interval}"
            )
        self.sample_interval = sample_interval
        self._clock = clock

        # Attachment bookkeeping: a weak reference to each attached engine
        # (a strong one would keep a dropped engine alive through the
        # probe its tracking state holds) -> that engine's tracking state.
        self._engines: dict[weakref.ref, "TrackingState"] = {}

        # Sampling epoch.  A run is recorded iff the epoch *entering* it
        # was armed; `_capture` is recomputed after every finished run.
        self.runs_seen = 0
        self.samples = 0
        self._capture = (1 % sample_interval == 0)

        # Barrier-probe accumulation (armed epochs only).  The probe is
        # bound once: ``self._probe`` evaluates to a *new* bound-method
        # object per access, which would defeat the ``is`` identity
        # checks used to arm/disarm tracking states.
        self._bound_probe = self._probe
        self.mutations_captured = 0
        self.pending_dropped = 0
        self._pending_sites: dict["Location", dict[str, int]] = {}
        self._tag_cache: dict[tuple, str] = {}

        # Per-run recording state.
        self._recording = False
        self._run_check = ""
        self._run_incremental = False
        self._run_attr: dict["ComputationNode", frozenset] = {}
        self._stack: list[list] = []  # [node, start, child_time]

        # Lifetime aggregates.
        self._sites: dict[str, SiteStat] = {}
        self._checks: dict[str, CheckStat] = {}
        self._node_classes: dict[str, NodeClassStat] = {}
        # (check, phase, func) -> [execs, self_time seconds]
        self._frames: dict[tuple[str, str, str], list] = {}
        # (caller func, callee func) -> re-execution call-edge count
        self._edges: dict[tuple[str, str], int] = {}

    # Attachment. -----------------------------------------------------------

    def attach(self, engine: "DittoEngine") -> "RepairProfiler":
        """Hook ``engine`` (and arm its tracking state's barrier probe
        for sampled epochs).  Idempotent per engine; an engine carries at
        most one profiler."""
        return engine.attach(self)

    def detach(self, engine: "DittoEngine") -> None:
        """Unhook ``engine``; the last detach from a tracking state
        restores its raw ``log_append``."""
        engine.detach(self)

    def detach_all(self) -> None:
        for ref in list(self._engines):
            engine = ref()
            if engine is not None:
                engine.detach(self)

    def attached(self, engine: "DittoEngine") -> None:
        if find(engine.observer, RepairProfiler) is not None:
            raise ValueError(
                f"engine for check {engine.entry.name!r} already has a "
                f"profiler attached; detach it first"
            )
        self._engines[weakref.ref(engine, self._forget)] = engine.tracking
        self._sync_probes()

    def detached(self, engine: "DittoEngine") -> None:
        self._forget(weakref.ref(engine))

    def _forget(self, ref: weakref.ref) -> None:
        # Also the weak reference's callback: the engine was collected.
        state = self._engines.pop(ref, None)
        if (
            state is not None
            and state not in self._engines.values()
            and state.mutation_probe is self._bound_probe
        ):
            state.set_mutation_probe(None)

    def _sync_probes(self) -> None:
        probe = self._bound_probe if self._capture else None
        for state in set(self._engines.values()):
            if state.mutation_probe is not probe:
                state.set_mutation_probe(probe)

    # Barrier probe (armed epochs only). ------------------------------------

    def _probe(self, location: "Location") -> None:
        self.mutations_captured += 1
        pending = self._pending_sites
        tags = pending.get(location)
        if tags is None:
            if len(pending) >= _MAX_PENDING_LOCATIONS:
                self.pending_dropped += 1
                return
            tags = {}
            pending[location] = tags
        tag = self._site_tag()
        tags[tag] = tags.get(tag, 0) + 1

    def _site_tag(self) -> str:
        # Frame 0 is this method, 1 the log_append closure; everything in
        # the barrier module above that (TrackedObject.__setattr__,
        # TrackedList.insert, _ditto_log_range, ...) is skipped so the
        # tag lands on the first *user* frame — the mutation call-site.
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_filename == _BARRIER_FILE:
            frame = frame.f_back
        fallback = frame  # first frame past the barrier: the mutator itself
        while frame is not None and frame.f_code.co_filename.startswith(
            _STRUCTURES_DIR
        ):
            frame = frame.f_back
        if frame is None:
            frame = fallback
        if frame is None:  # pragma: no cover - C-level caller
            return "<unknown>"
        code = frame.f_code
        key = (code, frame.f_lineno)
        tag = self._tag_cache.get(key)
        if tag is None:
            tag = (
                f"{code.co_name} "
                f"({os.path.basename(code.co_filename)}:{frame.f_lineno})"
            )
            self._tag_cache[key] = tag
        return tag

    def _site(self, tag: str) -> SiteStat:
        stat = self._sites.get(tag)
        if stat is None:
            stat = SiteStat(tag)
            self._sites[tag] = stat
        return stat

    # Observer hooks. -------------------------------------------------------

    def run_begin(
        self,
        engine: "DittoEngine",
        pending: Iterable["Location"],
        dirty: set,
        incremental: bool,
    ) -> None:
        """Barrier drain finished: join the probe's pending site tags
        against the reverse map and open a recording window.  A fallback
        rebuild re-enters here mid-run; the second window simply finds
        its pending tags already consumed."""
        if not self._capture:
            return
        self._recording = True
        self._run_check = engine.entry.name
        self._run_incremental = incremental
        self._run_attr = {}
        table = engine.table
        pend = self._pending_sites
        attr = self._run_attr
        for location in pending:
            tags = pend.pop(location, None)
            if tags is None:
                continue
            readers = table.map_locations_to_nodes((location,))
            n_readers = len(readers)
            for tag, count in tags.items():
                stat = self._site(tag)
                stat.mutations += count
                stat.nodes_dirtied += n_readers
            if readers:
                tagset = frozenset(tags)
                for node in readers:
                    current = attr.get(node)
                    attr[node] = (
                        tagset if current is None else current | tagset
                    )

    def node_begin(self, node: "ComputationNode") -> None:
        if not self._recording:
            return
        self._stack.append([node, self._clock(), 0.0])

    def node_end(
        self, node: "ComputationNode", ok: bool, phase: str
    ) -> None:
        if not self._recording:
            return
        stack = self._stack
        if not stack or stack[-1][0] is not node:  # pragma: no cover
            return  # recording toggled mid-exec; drop the orphan frame
        _, start, child_time = stack.pop()
        elapsed = self._clock() - start
        self_time = elapsed - child_time
        if self_time < 0.0:  # clock skew guard for injected clocks
            self_time = 0.0
        if stack:
            stack[-1][2] += elapsed
            parent_func = stack[-1][0].func.name
        else:
            parent_func = None

        func = node.func.name
        check = self._run_check
        frame = self._frames.get((check, phase, func))
        if frame is None:
            self._frames[(check, phase, func)] = [1, self_time]
        else:
            frame[0] += 1
            frame[1] += self_time
        if parent_func is not None:
            edge = (parent_func, func)
            self._edges[edge] = self._edges.get(edge, 0) + 1

        klass = self._node_classes.get(func)
        if klass is None:
            klass = NodeClassStat(func)
            self._node_classes[func] = klass
        klass.execs += 1
        klass.self_time += self_time

        cs = self._check(check)
        cs.execs += 1
        if not ok:
            cs.failed_execs += 1
        cs.self_time += self_time

        # Mutation-site attribution.  Directly-dirtied nodes carry the
        # tag sets joined at run_begin; propagate/retry ancestors inherit
        # the union of their callees' taints (the callees re-ran first —
        # that is what propagation *is*), recorded back so grand-ancestors
        # inherit transitively.
        attr = self._run_attr
        sites = attr.get(node)
        if sites is None and phase != "exec":
            inherited: frozenset = frozenset()
            for callee in node.calls:
                callee_sites = attr.get(callee)
                if callee_sites:
                    inherited = inherited | callee_sites
            if inherited:
                sites = inherited
                attr[node] = inherited
        if sites:
            share = self_time / len(sites)
            for tag in sites:
                stat = self._site(tag)
                stat.induced_execs += 1
                stat.induced_time += share

    def run_end(self, engine: "DittoEngine", aborted: bool) -> None:
        """Close the recording window (if one opened) and advance the
        sampling epoch.  Runs that never reach the incremental path
        (scratch fallbacks, degraded-cooldown serves) still advance the
        epoch so the sampling cadence tracks *engine runs*, not repairs."""
        if self._recording:
            cs = self._check(self._run_check)
            cs.runs += 1
            if self._run_incremental:
                cs.incremental_runs += 1
            if aborted:
                cs.aborted_runs += 1
            cs.total_time += engine.last_duration
            self.samples += 1
            engine.observer.instant(
                "profile_sample",
                self._clock(),
                {
                    "check": self._run_check,
                    "incremental": self._run_incremental,
                    "aborted": aborted,
                    "duration_s": engine.last_duration,
                    "sample": self.samples,
                },
            )
            self._recording = False
            self._run_attr = {}
            self._stack.clear()
        self.runs_seen += 1
        self._capture = ((self.runs_seen + 1) % self.sample_interval == 0)
        self._sync_probes()

    def _check(self, name: str) -> CheckStat:
        stat = self._checks.get(name)
        if stat is None:
            stat = CheckStat(name)
            self._checks[name] = stat
        return stat

    # Reports. --------------------------------------------------------------

    def top_mutation_sites(self, n: int = 10) -> list[SiteStat]:
        """Mutation sites ranked by induced re-execution.  The key is
        pure counts (then the site string), so the ranking is
        deterministic under a fixed workload seed — timings only break
        ties never reached."""
        ranked = sorted(
            self._sites.values(),
            key=lambda s: (
                -s.induced_execs, -s.mutations, -s.nodes_dirtied, s.site
            ),
        )
        return ranked[:n]

    def check_stats(self) -> list[CheckStat]:
        return sorted(self._checks.values(), key=lambda c: c.check)

    def node_class_stats(self) -> list[NodeClassStat]:
        return sorted(
            self._node_classes.values(),
            key=lambda k: (-k.self_time, k.func),
        )

    def _weighted_frames(self) -> list[tuple[str, str, str, int]]:
        """``(check, phase, func, weight)`` per frame, sorted.  Weight is
        accumulated self-time in integer microseconds (the conventional
        folded unit); a frame whose self time rounds to zero still weighs
        1 so a pure-counts workload stays visible."""
        return [
            (check, phase, func, max(int(self_time * 1e6), 1))
            for (check, phase, func), (_, self_time) in sorted(
                self._frames.items()
            )
        ]

    def folded(self) -> str:
        """Folded-stack flamegraph text: ``check;phase;node weight_us``."""
        lines = [f"{c};{p};{f} {w}" for c, p, f, w in self._weighted_frames()]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro repair profile") -> dict:
        """The profile as a speedscope ``sampled`` document (one sample
        per folded frame, weights in microseconds)."""
        frame_index: dict[str, int] = {}
        frames: list[dict] = []

        def fid(label: str) -> int:
            idx = frame_index.get(label)
            if idx is None:
                idx = len(frames)
                frame_index[label] = idx
                frames.append({"name": label})
            return idx

        samples: list[list[int]] = []
        weights: list[int] = []
        for check, phase, func, weight in self._weighted_frames():
            samples.append([fid(check), fid(phase), fid(func)])
            weights.append(weight)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "microseconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "exporter": "repro.obs.profiler",
            "name": name,
            "activeProfileIndex": 0,
        }

    def write_folded(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.folded())

    def write_speedscope(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.speedscope(), fh, indent=1, sort_keys=True)

    def heat_dot(self) -> str:
        """Memo-graph heat view: one box per node class, fill intensity
        proportional to its share of total self time, re-execution call
        edges labelled with their counts.  Same escaping rules as the
        provenance DOT renderer."""
        from .provenance import _dot_escape

        total = sum(k.self_time for k in self._node_classes.values())
        lines = [
            "digraph repair_heat {",
            "  rankdir=LR;",
            '  node [shape=box, style=filled, fontsize=10];',
        ]
        ids: dict[str, str] = {}
        for klass in self.node_class_stats():
            name = f"n{len(ids)}"
            ids[klass.func] = name
            share = (klass.self_time / total) if total > 0 else 0.0
            # White (cold) to saturated red (hot) via an HSV ramp.
            label = _dot_escape(
                f"{klass.func}\nexecs={klass.execs} "
                f"self={klass.self_time * 1000:.3f}ms ({share:.0%})"
            )
            lines.append(
                f'  {name} [label="{label}", '
                f'fillcolor="0.0 {share:.3f} 1.0"];'
            )
        for (caller, callee), count in sorted(self._edges.items()):
            src = ids.get(caller)
            dst = ids.get(callee)
            if src is not None and dst is not None:
                lines.append(f'  {src} -> {dst} [label="{count}"];')
        lines.append("}")
        return "\n".join(lines)

    def report(self, top: int = 10) -> str:
        """Human-readable summary of all three attribution axes."""
        lines = [
            f"repair profile: {self.samples} sampled run(s) of "
            f"{self.runs_seen} seen (interval {self.sample_interval}), "
            f"{self.mutations_captured} mutation(s) captured"
        ]
        checks = self.check_stats()
        if checks:
            lines.append("per check:")
            for cs in checks:
                lines.append(
                    f"  {cs.check}: {cs.runs} run(s) "
                    f"({cs.incremental_runs} incremental, "
                    f"{cs.aborted_runs} aborted), {cs.execs} exec(s), "
                    f"self {cs.self_time * 1000:.3f}ms / "
                    f"total {cs.total_time * 1000:.3f}ms"
                )
        klasses = self.node_class_stats()
        if klasses:
            lines.append("per node class (by self time):")
            for klass in klasses[:top]:
                lines.append(
                    f"  {klass.func}: {klass.execs} exec(s), "
                    f"self {klass.self_time * 1000:.3f}ms"
                )
        sites = self.top_mutation_sites(top)
        if sites:
            lines.append("top mutation sites by induced re-execution:")
            for stat in sites:
                lines.append(
                    f"  {stat.site}: {stat.induced_execs} induced "
                    f"exec(s) from {stat.mutations} mutation(s) "
                    f"(dirtied {stat.nodes_dirtied} node(s), "
                    f"{stat.induced_time * 1000:.3f}ms)"
                )
        if self.pending_dropped:
            lines.append(
                f"warning: {self.pending_dropped} mutation(s) dropped "
                f"past the {_MAX_PENDING_LOCATIONS}-location pending cap"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Self-contained JSON document (read back by
        ``python -m repro.obs analyze``)."""
        return {
            "kind": "repair_profile",
            "sample_interval": self.sample_interval,
            "runs_seen": self.runs_seen,
            "samples": self.samples,
            "mutations_captured": self.mutations_captured,
            "pending_dropped": self.pending_dropped,
            "checks": [c.to_dict() for c in self.check_stats()],
            "node_classes": [k.to_dict() for k in self.node_class_stats()],
            "sites": [s.to_dict() for s in self.top_mutation_sites(10**9)],
            "frames": [
                {
                    "check": check,
                    "phase": phase,
                    "func": func,
                    "execs": execs,
                    "self_time_s": self_time,
                }
                for (check, phase, func), (execs, self_time) in sorted(
                    self._frames.items()
                )
            ],
            "edges": [
                {"caller": caller, "callee": callee, "count": count}
                for (caller, callee), count in sorted(self._edges.items())
            ],
        }

    def reset(self) -> None:
        """Drop all accumulated attribution (epoch position included);
        attachments stay."""
        self.runs_seen = 0
        self.samples = 0
        self.mutations_captured = 0
        self.pending_dropped = 0
        self._pending_sites.clear()
        self._recording = False
        self._run_attr = {}
        self._stack.clear()
        self._sites.clear()
        self._checks.clear()
        self._node_classes.clear()
        self._frames.clear()
        self._edges.clear()
        self._capture = (1 % self.sample_interval == 0)
        self._sync_probes()


def enable_profiling(
    engine: "DittoEngine", sample_interval: int = 1
) -> RepairProfiler:
    """Attach (or return the existing) profiler on ``engine``."""
    return find(engine.observer, RepairProfiler) or RepairProfiler(
        sample_interval=sample_interval
    ).attach(engine)


def disable_profiling(engine: "DittoEngine") -> None:
    """Detach ``engine``'s profiler (restoring the raw barrier path)."""
    engine.detach(find(engine.observer, RepairProfiler))
