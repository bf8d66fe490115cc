"""Computation-graph introspection: text and DOT renderings.

Debug aids for understanding what DITTO memoized — handy when designing a
new invariant (is the graph sharing what you expect? how big is it? what
does one mutation dirty?), plus the pending-write dump the guard layer
emits when a guarded block dies mid-mutation.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core.engine import DittoEngine
from .core.node import ComputationNode


def _default_label(node: ComputationNode) -> str:
    args = ", ".join(_short(a) for a in node.args)
    return f"{node.func.name}({args})"


def _short(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 24 else text[:21] + "..."


def graph_text(
    engine: DittoEngine,
    label: Optional[Callable[[ComputationNode], str]] = None,
    max_nodes: int = 200,
) -> str:
    """Render the engine's computation graph as an indented call tree
    rooted at the current entry invocation.  Shared nodes (multiple
    callers) are expanded once and referenced afterwards."""
    label = label or _default_label
    root = engine._root
    if root is None:
        return "<empty graph>"
    lines: list[str] = []
    seen: set[int] = set()
    budget = [max_nodes]

    def walk(node: ComputationNode, depth: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        indent = "  " * depth
        value = f" = {node.return_val!r}" if node.has_result else ""
        flags = ""
        if node.dirty:
            flags += " [dirty]"
        if node.failed:
            flags += " [failed]"
        if id(node) in seen:
            # Shared references carry the same flags as the expansion —
            # a shared dirty node must not print as clean.
            lines.append(f"{indent}{label(node)}{value}{flags} (shared)")
            return
        seen.add(id(node))
        lines.append(f"{indent}{label(node)}{value}{flags}")
        for child in node.calls:
            walk(child, depth + 1)

    walk(root, 0)
    if budget[0] <= 0:
        lines.append(f"... (truncated at {max_nodes} nodes)")
    return "\n".join(lines)


def graph_dot(
    engine: DittoEngine,
    label: Optional[Callable[[ComputationNode], str]] = None,
) -> str:
    """Render the whole memo table as a Graphviz digraph."""
    label = label or _default_label
    lines = ["digraph ditto {", "  rankdir=TB;", "  node [shape=box];"]
    ids: dict[int, str] = {}
    for index, node in enumerate(engine.table):
        ids[id(node)] = f"n{index}"
        value = repr(node.return_val) if node.has_result else "?"
        color = ' color="red"' if node.dirty else ""
        text = f"{label(node)}\\n= {value}"
        lines.append(f'  n{index} [label="{text}"{color}];')
    for node in engine.table:
        src = ids[id(node)]
        for child in node.calls:
            dst = ids.get(id(child))
            if dst is not None:
                lines.append(f"  {src} -> {dst};")
    lines.append("}")
    return "\n".join(lines)


def pending_writes_text(engine: DittoEngine, max_entries: int = 25) -> str:
    """The mutations ``engine`` has *not yet* consumed, one per line.

    This is the evidence that would have driven the engine's next
    incremental run.  :meth:`repro.guard.InvariantGuard.guarding` dumps it
    when the guarded body raises, so a violation introduced just before
    the crash is preserved in the diagnostics instead of being lost with
    the skipped exit check."""
    pending = engine.tracking.write_log.peek(engine._log_cid)
    if not pending:
        return "<no pending writes>"
    lines = [
        f"{len(pending)} pending write(s) for check "
        f"{engine.entry.name!r}:"
    ]
    for location in pending[:max_entries]:
        lines.append(f"  - {location}")
    if len(pending) > max_entries:
        lines.append(f"  ... and {len(pending) - max_entries} more")
    return "\n".join(lines)


def graph_stats(engine: DittoEngine) -> dict[str, float]:
    """Summary statistics of the computation graph."""
    nodes = list(engine.table)
    if not nodes:
        return {"nodes": 0, "edges": 0, "implicits": 0, "max_depth": 0,
                "sharing": 0.0}
    edges = sum(len(n.calls) for n in nodes)
    implicits = sum(len(n.implicits) for n in nodes)
    shared = sum(1 for n in nodes if n.caller_count() > 1)
    return {
        "nodes": len(nodes),
        "edges": edges,
        "implicits": implicits,
        "max_depth": max(n.depth for n in nodes),
        "sharing": shared / len(nodes),
    }
