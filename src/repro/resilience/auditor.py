"""Computation-graph self-auditing.

DITTO's value proposition is trust: the incremental answer must be the
answer a from-scratch run would produce.  That guarantee rests on a set of
representation invariants connecting the memo table, the reverse
location→node map, the call-edge multiset, the order-maintenance list,
and the §4 reference counts.  :class:`GraphAuditor` re-derives each of
those invariants from first principles and reports every violation as an
:class:`AuditFinding` instead of asserting, so a production engine can
degrade gracefully (see :mod:`repro.resilience.degradation`) rather than
die mid-request.

Rules audited (names appear in findings and in ``AuditReport.rules_run``):

``table-keys``
    Every memo-table row ``(uid, parts) -> node`` stores a node whose own
    ``key`` (and ``func.uid``) matches the row's key — a mismatch means
    lookups can return the wrong invocation's cached value.
``reverse-map``
    The location→nodes map and each node's recorded implicit reads are
    mirror images (both inclusions), and no pruned node lingers in either.
    Every implicit argument and reverse-map key whose container carries a
    ``DittoHeader`` is that container's interned location
    (``header.locations[coordinate]``): point locations hash by identity,
    and the barrier logs the interned instance, so a node recorded under
    a twin would never be dirtied.
``edges``
    ``calls`` lists and ``callers`` multiplicities (read through
    ``ComputationNode.caller_map``) agree edge-for-edge, every stored
    multiplicity is at least 1 (the engine's O(1) orphan test reads an
    empty ``callers`` as "unreachable", so a 0 entry would pin a dead node
    forever), every endpoint is a live table node, and every
    non-root node is reachable (has at least one caller).
``node-state``
    Between runs no node is dirty, failed, in-progress, or missing its
    result — a quiescent graph is fully repaired.
``order``
    The order-maintenance list is structurally sound (see
    :meth:`repro.core.order_maintenance.OrderList.audit`), every node —
    its own order record — is linked into it, and the list holds exactly
    one record per node.
``scheduling``
    For every call edge, the caller (re-)executed *after* the callee's
    return value last changed — the post-condition return-value
    propagation exists to establish.  A violation means some caller is
    holding a stale view of a callee.
``refcounts``
    Each tracked container's §4 reference count, its location-attributed
    count ``locrefs``, and the count on each of its interned locations
    cover this engine's implicit-argument entries naming the container
    and that location (counts are global across engines, so the audit
    checks lower bounds; an *under*-count means write barriers are being
    skipped for locations the graph depends on — the per-location filter
    skips a store whose interned location reads 0 while ``refcount ==
    locrefs``).  Duck-typed containers keep their counts to themselves
    and are not audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..core.errors import GraphAuditError
from ..core.tracked import DittoHeader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from ..core.locations import Location


@dataclass(frozen=True)
class AuditFinding:
    """One violated invariant: the rule that failed and what was seen."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class AuditReport:
    """Outcome of one :class:`GraphAuditor` pass."""

    findings: list[AuditFinding] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    nodes_audited: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self, rule: str) -> list[AuditFinding]:
        return [f for f in self.findings if f.rule == rule]

    def raise_if_failed(self) -> None:
        if self.findings:
            raise GraphAuditError(self)

    def __str__(self) -> str:
        if self.ok:
            return (
                f"audit ok: {self.nodes_audited} nodes, "
                f"rules {', '.join(self.rules_run)}"
            )
        lines = "\n  - ".join(str(f) for f in self.findings)
        return f"audit FAILED ({len(self.findings)} findings):\n  - {lines}"


def _is_interned(location: "Location") -> bool:
    """False iff ``location``'s container carries a header that interns
    another instance (or none) at its coordinate."""
    header = getattr(location.container, "_ditto", None)
    return (
        type(header) is not DittoHeader
        or header.locations.get(location.coordinate) is location
    )


class GraphAuditor:
    """Validates one engine's computation graph; collects, never raises.

    Prefer :meth:`DittoEngine.audit` (which counts the audit in the
    engine's stats and can raise on failure); instantiate directly only
    when you want the raw report machinery.
    """

    #: Findings per rule are capped so a badly corrupted graph produces a
    #: readable report instead of one line per node.
    MAX_FINDINGS_PER_RULE = 20

    def __init__(self, engine: "DittoEngine"):
        self.engine = engine

    def run(self) -> AuditReport:
        report = AuditReport()
        report.nodes_audited = len(self.engine.table)
        for rule, check in (
            ("table-keys", self._audit_table_keys),
            ("reverse-map", self._audit_reverse_map),
            ("edges", self._audit_edges),
            ("node-state", self._audit_node_state),
            ("order", self._audit_order),
            ("scheduling", self._audit_scheduling),
            ("refcounts", self._audit_refcounts),
        ):
            report.rules_run.append(rule)
            count = 0
            for message in check():
                count += 1
                if count > self.MAX_FINDINGS_PER_RULE:
                    message = "... further findings truncated"
                report.findings.append(AuditFinding(rule, message))
                if count > self.MAX_FINDINGS_PER_RULE:
                    break
        return report

    # Individual rules; each yields human-readable violation messages. -------

    def _audit_table_keys(self) -> Iterator[str]:
        for key, node in self.engine.table.entries():
            if node.func.uid != key[0]:
                yield (
                    f"row keyed uid={key[0]} stores node of "
                    f"{node.func.name!r} (uid={node.func.uid})"
                )
            if node.key != key:
                yield (
                    f"row keyed {key[1]!r} stores node {node} keyed "
                    f"{node.key[1]!r}"
                )

    def _audit_reverse_map(self) -> Iterator[str]:
        table = self.engine.table
        for location, dependents in table.reverse_items():
            if not _is_interned(location):
                yield (
                    f"reverse map keys {location}, not its container's "
                    f"interned location; the barrier's writes to it miss"
                )
            for node in dependents:
                if not table.contains(node):
                    yield f"reverse map {location} lists pruned node {node}"
                elif location not in node.implicits:
                    yield (
                        f"reverse map lists {location} -> {node} but the "
                        f"node does not record that implicit read"
                    )
        for node in table:
            for location in node.implicits:
                if node not in table.nodes_reading(location):
                    yield f"reverse map missing {location} -> {node}"
                if not _is_interned(location):
                    yield (
                        f"{node} records {location}, not its container's "
                        f"interned location; the barrier's writes to it "
                        f"never dirty the node"
                    )

    def _audit_edges(self) -> Iterator[str]:
        table = self.engine.table
        anchor = self.engine._anchor
        root = self.engine._root
        if root is not None:
            if not table.contains(root):
                yield f"root {root} is not in the memo table"
            if root.caller_map().get(anchor, 0) != 1:
                yield "root is not anchored exactly once"
            if anchor.calls.count(root) != 1:
                yield "anchor call edge out of sync with root's callers"
        edge_counts: dict[tuple[int, int], int] = {}
        for node in table:
            for callee in node.calls:
                if not table.contains(callee):
                    yield f"{node} calls pruned node {callee}"
                pair = (id(node), id(callee))
                edge_counts[pair] = edge_counts.get(pair, 0) + 1
        for node in table:
            for caller, count in node.caller_map().items():
                if count < 1:
                    yield (
                        f"edge {caller} -> {node}: callers map stores "
                        f"multiplicity {count} (must be >= 1)"
                    )
                    continue
                if caller is anchor:
                    continue
                if not table.contains(caller):
                    yield f"{node} has pruned caller {caller}"
                    continue
                recorded = edge_counts.get((id(caller), id(node)), 0)
                if recorded != count:
                    yield (
                        f"edge {caller} -> {node}: callers map says "
                        f"{count}, calls lists say {recorded}"
                    )
            if node is not root and not node.callers:
                yield f"{node} is unreachable (no callers) yet not pruned"

    def _audit_node_state(self) -> Iterator[str]:
        for node in self.engine.table:
            if node.dirty:
                yield f"{node} left dirty after the run"
            if node.failed:
                yield f"{node} left in failed state after the run"
            if node.in_progress:
                yield f"{node} left marked in-progress"
            if not node.has_result:
                yield f"{node} has no cached result"

    def _audit_order(self) -> Iterator[str]:
        order = self.engine.order
        yield from order.audit()
        linked = 0
        for node in self.engine.table:
            if node.owner is not order:
                yield (
                    f"{node} is not linked into this engine's order list "
                    f"(dead or owned by another list)"
                )
                continue
            linked += 1
        if linked == len(self.engine.table) and len(order) != linked:
            yield (
                f"order list holds {len(order)} records for "
                f"{linked} graph nodes"
            )

    def _audit_scheduling(self) -> Iterator[str]:
        anchor = self.engine._anchor
        for node in self.engine.table:
            for caller in node.caller_map():
                if caller is anchor:
                    continue
                if caller.last_exec_tick <= node.value_tick:
                    yield (
                        f"{caller} last executed at tick "
                        f"{caller.last_exec_tick} but callee {node}'s value "
                        f"changed at tick {node.value_tick}; the caller is "
                        f"reading a stale return value"
                    )

    def _audit_refcounts(self) -> Iterator[str]:
        # This engine's census, by location identity: the implicit
        # arguments of header-carrying containers hold the interned
        # location, the instance whose count the barrier consults.
        per_location: dict[int, list] = {}
        for node in self.engine.table:
            for location in node.implicits:
                entry = per_location.get(id(location))
                if entry is None:
                    per_location[id(location)] = [location, 1]
                else:
                    entry[1] += 1
        per_container: dict[int, list] = {}
        for location, minimum in per_location.values():
            container = location.container
            header = getattr(container, "_ditto", None)
            if type(header) is not DittoHeader:
                continue  # duck-typed: not refcounted through a header
            entry = per_container.get(id(container))
            if entry is None:
                per_container[id(container)] = [container, header, minimum]
            else:
                entry[2] += minimum
            if location.refcount < minimum:
                yield (
                    f"{type(container).__name__} location "
                    f"{location.coordinate!r} refcount {location.refcount} "
                    f"is below this engine's {minimum} implicit "
                    f"reference(s); the per-location barrier filter may "
                    f"skip stores to it"
                )
        for container, header, minimum in per_container.values():
            for count, actual in (
                ("refcount", header.refcount),
                ("locrefs", header.locrefs),
            ):
                if actual < minimum:
                    yield (
                        f"{type(container).__name__} {count} {actual} is "
                        f"below this engine's {minimum} implicit "
                        f"reference(s); write barriers may be skipped for "
                        f"live locations"
                    )
