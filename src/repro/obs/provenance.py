"""Repair provenance: "why did this run re-execute what it re-executed?"

The observability twin of the resilience layer's auditor: where the
auditor asks *is the graph well-formed*, the provenance recorder asks
*what chain of causes produced this repair* — mutated heap location →
dirtied computation node(s) → re-executed nodes (with the phase that
re-ran each) → propagated ancestors → pruned nodes.

Usage::

    from repro.obs import enable_provenance, explain_last_run

    enable_provenance(engine)
    lst.insert(42)
    engine.run(lst.head)
    print(explain_last_run(engine))          # text rendering
    print(explain_last_run(engine).dot())    # Graphviz rendering

Recording is off by default (nothing is attached to the engine's one
observer slot); when enabled it costs one label construction per
dirtied/executed/pruned node, so leave it off in timed benchmark regions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .trace import Observer, find

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from ..core.locations import Location
    from ..core.node import ComputationNode


def _node_label(node: "ComputationNode") -> str:
    args = ", ".join(_short(repr(a)) for a in node.args)
    return f"{node.func.name}({args})"


def _dot_escape(label: str) -> str:
    """Escape a label for a double-quoted Graphviz string.

    Backslashes first (so escapes introduced below survive), then
    quotes; carriage returns are dropped and newlines become the ``\\n``
    line-break escape Graphviz renders as a centred break.  ``repr``'d
    check arguments can contain any of these — an un-escaped ``"`` or a
    raw newline truncates the attribute and breaks ``dot`` parsing."""
    return (
        label.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\r", "")
        .replace("\n", "\\n")
    )


def _short(text: str, limit: int = 32) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


class RunRecord:
    """Everything the recorder captured about one engine run."""

    __slots__ = (
        "run_index",
        "incremental",
        "mutated",
        "dirtied",
        "executed",
        "pruned",
        "duration",
        "phase_times",
        "aborted",
    )

    def __init__(self, run_index: int, incremental: bool):
        self.run_index = run_index
        self.incremental = incremental
        #: Mutated-location reprs, in write-log order (may repeat a slot
        #: only once: the engine consumes a deduplicated log).
        self.mutated: list[str] = []
        #: location repr -> labels of the nodes it dirtied.
        self.dirtied: dict[str, list[str]] = {}
        #: ``(node label, phase)`` per successful (re-)execution, in
        #: execution order.  Phases: ``exec`` (dirty repair / demand),
        #: ``propagate`` (ancestor re-run after a changed return value),
        #: ``retry`` (post-misprediction).
        self.executed: list[tuple[str, str]] = []
        #: Labels of nodes pruned out of the graph during the run.
        self.pruned: list[str] = []
        self.duration = 0.0
        self.phase_times: dict[str, float] = {}
        #: True when the run raised before completing.
        self.aborted = False


class RunRecorder(Observer):
    """The provenance observer; attach with :func:`enable_provenance`."""

    __slots__ = ("last", "_current")

    def __init__(self) -> None:
        self.last: Optional[RunRecord] = None
        self._current: Optional[RunRecord] = None

    def run_begin(
        self,
        engine: "DittoEngine",
        pending: list["Location"],
        dirty: set["ComputationNode"],
        incremental: bool,
    ) -> None:
        record = RunRecord(engine.stats.runs, incremental)
        for location in pending:
            text = repr(location)
            record.mutated.append(text)
            record.dirtied[text] = sorted(
                _node_label(node)
                for node in engine.table.nodes_reading(location)
                if node in dirty
            )
        self._current = record

    def node_end(
        self, node: "ComputationNode", ok: bool, phase: str
    ) -> None:
        if ok and self._current is not None:
            self._current.executed.append((_node_label(node), phase))

    def pruned(self, nodes: list["ComputationNode"]) -> None:
        if self._current is not None:
            self._current.pruned.extend(_node_label(n) for n in nodes)

    def run_end(self, engine: "DittoEngine", aborted: bool) -> None:
        record = self._current
        if record is None:
            return
        record.duration = engine.last_duration
        record.phase_times = dict(engine.last_phase_times)
        record.aborted = aborted
        self.last = record
        self._current = None


class RunExplanation:
    """Renderable view over a :class:`RunRecord`."""

    def __init__(self, record: RunRecord, check_name: str):
        self.record = record
        self.check_name = check_name

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """The human answer to "why did this run re-execute N nodes?"."""
        r = self.record
        kind = "incremental" if r.incremental else "initial (graph build)"
        status = " [ABORTED]" if r.aborted else ""
        lines = [
            f"run #{r.run_index} of check {self.check_name!r} — {kind}, "
            f"{r.duration * 1000:.3f} ms{status}"
        ]
        if r.phase_times:
            breakdown = ", ".join(
                f"{name} {seconds * 1000:.3f}ms"
                for name, seconds in r.phase_times.items()
            )
            lines.append(f"phases: {breakdown}")
        if r.mutated:
            lines.append(f"mutated {len(r.mutated)} location(s):")
            for location in r.mutated:
                lines.append(f"  * {location}")
                targets = r.dirtied.get(location, [])
                if targets:
                    for label in targets:
                        lines.append(f"      dirtied {label}")
                else:
                    lines.append(
                        "      dirtied nothing (no live node reads it)"
                    )
        elif r.incremental:
            lines.append("no mutations since the previous run")
        by_phase: dict[str, int] = {}
        for _, phase in r.executed:
            by_phase[phase] = by_phase.get(phase, 0) + 1
        summary = (
            " (" + ", ".join(f"{p}: {n}" for p, n in by_phase.items()) + ")"
            if by_phase
            else ""
        )
        lines.append(f"re-executed {len(r.executed)} node(s){summary}:")
        for label, phase in r.executed:
            lines.append(f"  [{phase}] {label}")
        if r.pruned:
            lines.append(f"pruned {len(r.pruned)} node(s):")
            for label in r.pruned:
                lines.append(f"  - {label}")
        return "\n".join(lines)

    def dot(self) -> str:
        """Graphviz digraph of the provenance chain: mutated locations →
        dirtied nodes → the phases that re-executed them."""
        r = self.record
        lines = [
            "digraph provenance {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=10];',
        ]
        ids: dict[str, str] = {}

        def node_id(label: str, shape: str, color: str) -> str:
            existing = ids.get(label)
            if existing is not None:
                return existing
            name = f"n{len(ids)}"
            ids[label] = name
            escaped = _dot_escape(label)
            lines.append(
                f'  {name} [label="{escaped}", shape={shape}, '
                f'color="{color}"];'
            )
            return name

        for location in r.mutated:
            loc_id = node_id(location, "note", "orange")
            for label in r.dirtied.get(location, []):
                dst = node_id(label, "box", "red")
                lines.append(f"  {loc_id} -> {dst} [label=\"dirtied\"];")
        # Re-executions: dirty-repair nodes in red; propagation/retry
        # ancestors hang off a dashed phase marker.
        for label, phase in r.executed:
            src = node_id(label, "box", "red")
            if phase != "exec":
                marker = node_id(f"{phase} phase", "ellipse", "blue")
                lines.append(f"  {marker} -> {src} [style=dashed];")
        for label in r.pruned:
            node_id(f"pruned: {label}", "box", "gray")
        lines.append("}")
        return "\n".join(lines)


def enable_provenance(engine: "DittoEngine") -> RunRecorder:
    """Attach (or return the existing) per-run provenance recorder."""
    return find(engine.observer, RunRecorder) or engine.attach(RunRecorder())


def disable_provenance(engine: "DittoEngine") -> None:
    """Detach the recorder; subsequent runs record nothing."""
    engine.detach(find(engine.observer, RunRecorder))


def explain_last_run(engine: "DittoEngine") -> RunExplanation:
    """Explain the most recent recorded run of ``engine``.

    Requires :func:`enable_provenance` to have been attached before the
    run; raises ``ValueError`` with instructions otherwise."""
    recorder = find(engine.observer, RunRecorder)
    if recorder is None:
        raise ValueError(
            "provenance recording is not enabled on this engine; call "
            "repro.obs.enable_provenance(engine) before running it"
        )
    if recorder.last is None:
        raise ValueError(
            "no recorded run yet: enable_provenance() only observes runs "
            "that start after it is attached"
        )
    return RunExplanation(recorder.last, engine.entry.name)
