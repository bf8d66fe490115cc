"""Metrics: counters, gauges, fixed-bucket histograms, Prometheus export.

A :class:`MetricsRegistry` holds named instruments; ``snapshot()`` returns
plain dicts for programmatic scraping and ``to_prometheus_text()`` renders
the Prometheus text exposition format (the ``/metrics`` endpoint payload a
production deployment would serve).  :func:`parse_prometheus_text` is the
inverse used by the round-trip tests — and by anyone who wants the
exported numbers back without a Prometheus server.

:class:`EngineMetrics` is the bridge from a :class:`~repro.core.engine.
DittoEngine`: it mirrors every declared ``EngineStats`` counter and phase
timer into the registry and feeds the paper-relevant histograms — repair
latency (``run_duration_seconds``), per-run dirtied-node count, and graph
size — from :class:`~repro.core.stats.RunReport` objects.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DittoEngine
    from ..core.stats import RunReport

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically non-decreasing total."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally-accumulated total (e.g. an ``EngineStats``
        field); refuses to move backwards."""
        if value < self._value:
            raise ValueError(
                f"counter {self.name} cannot decrease "
                f"({self._value} -> {value})"
            )
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


#: Default latency buckets (seconds): 10µs .. 1s, roughly 1-2.5-5 spaced.
DEFAULT_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Default size buckets (counts): 0 .. 10k, decade-ish spaced.
DEFAULT_SIZE_BUCKETS = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative-bucket semantics.

    ``buckets`` are the inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  Bucket counts are stored per-bucket and accumulated
    at render time, so :meth:`observe` is one bisect + one increment.

    Boundary semantics are pinned to Prometheus's: ``le`` is **inclusive**
    at exact bucket edges — ``observe(b)`` for a bound ``b`` lands in the
    ``le="b"`` bucket, never the next one up (``bisect_left`` returns the
    index *of* the equal bound).  ``tests/test_obs_metrics.py`` holds a
    property test round-tripping edge-exact observations through
    :func:`parse_prometheus_text`, ``+Inf`` included; a drive-by rewrite
    to ``bisect_right`` breaks it."""

    __slots__ = ("name", "help", "bounds", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        out = []
        total = 0
        for bound, count in zip(
            self.bounds + (math.inf,), self._counts
        ):
            total += count
            out.append((bound, total))
        return out


class MetricsRegistry:
    """Named instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _get_or_create(self, cls: type, name: str, *args: Any) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        metric = cls(name, *args)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view: scalars for counters/gauges, a dict with
        ``sum``/``count``/``buckets`` for histograms."""
        out: dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[name] = {
                    "sum": metric.sum,
                    "count": metric.count,
                    "buckets": {
                        _format_value(bound): total
                        for bound, total in metric.cumulative_buckets()
                    },
                }
            else:
                out[name] = metric.value
        return out

    def to_prometheus_text(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_format_value(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(metric.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                for bound, total in metric.cumulative_buckets():
                    lines.append(
                        f'{name}_bucket{{le="{_format_value(bound)}"}} '
                        f"{total}"
                    )
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse the text exposition format back into
    ``{metric_name: {"type": ..., "help": ..., "samples": {...}}}``.

    Sample keys are ``sample_name`` for label-less samples and
    ``sample_name{labels}`` verbatim otherwise, mapping to float values.
    Histogram samples therefore appear under ``name_bucket{le="..."}``,
    ``name_sum``, and ``name_count`` of the ``name`` metric."""
    metrics: dict[str, dict[str, Any]] = {}

    def family(name: str) -> dict[str, Any]:
        return metrics.setdefault(
            name, {"type": "untyped", "help": "", "samples": {}}
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            family(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            family(name)["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable sample line: {raw!r}")
        sample_name = match.group("name")
        labels = match.group("labels")
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and trimmed in metrics:
                base = trimmed
                break
        key = sample_name if labels is None else f"{sample_name}{{{labels}}}"
        family(base)["samples"][key] = value
    return metrics


class EngineMetrics:
    """Mirror one engine's stats into a :class:`MetricsRegistry`.

    * every ``EngineStats.COUNTER_FIELDS`` entry becomes
      ``<ns>_<field>_total``;
    * every phase timer becomes ``<ns>_phase_seconds_total_<phase>``;
    * ``<ns>_graph_size_nodes`` gauges the live computation graph;
    * :meth:`record_run` feeds the histograms: repair latency, per-run
      dirtied-node count, and graph size.

    Call :meth:`to_prometheus_text` (which refreshes first) to scrape.
    """

    def __init__(
        self,
        engine: "DittoEngine",
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "ditto",
    ):
        self.engine = engine
        self.registry = registry if registry is not None else MetricsRegistry()
        self.namespace = namespace
        ns = namespace
        self.run_duration = self.registry.histogram(
            f"{ns}_run_duration_seconds",
            "Wall-clock seconds per engine.run() call",
            DEFAULT_LATENCY_BUCKETS,
        )
        self.dirtied_nodes = self.registry.histogram(
            f"{ns}_dirtied_nodes_per_run",
            "Computation nodes dirtied by the mutations one run repaired",
            DEFAULT_SIZE_BUCKETS,
        )
        self.graph_size_hist = self.registry.histogram(
            f"{ns}_graph_size_sampled_nodes",
            "Graph size observed at each recorded run",
            DEFAULT_SIZE_BUCKETS,
        )
        self.graph_size = self.registry.gauge(
            f"{ns}_graph_size_nodes", "Live computation-graph nodes"
        )
        self.refresh()

    def record_run(self, report: "RunReport") -> None:
        """Account one :class:`RunReport` (histograms + counter mirror)."""
        self.run_duration.observe(report.duration)
        self.dirtied_nodes.observe(report.delta.get("dirty_marked", 0))
        self.graph_size_hist.observe(report.graph_size)
        self.refresh()

    def refresh(self) -> None:
        """Re-mirror the engine's lifetime counters and phase timers."""
        stats = self.engine.stats
        ns = self.namespace
        for name in stats.COUNTER_FIELDS:
            self.registry.counter(
                f"{ns}_{name}_total", f"EngineStats.{name}"
            ).set_total(getattr(stats, name))
        for phase, seconds in stats.timers().items():
            self.registry.counter(
                f"{ns}_phase_seconds_total_{phase}",
                f"Wall-clock seconds spent in the {phase} phase",
            ).set_total(seconds)
        self.graph_size.set(self.engine.graph_size)
        self._refresh_barrier_counters(ns)

    _BARRIER_HELP = {
        "barrier_logged": (
            "Barrier events offered to the write log (pre-deduplication; "
            "one coalesced range counts once)"
        ),
        "barrier_filtered": (
            "Writes to referenced containers suppressed by the "
            "monitored-field filter"
        ),
        "barrier_coalesced": (
            "Slots covered by coalesced range barriers (per-slot appends "
            "avoided)"
        ),
        "barrier_location_filtered": (
            "Monitored writes to referenced containers suppressed by the "
            "per-location refinement (no live implicit argument reads the "
            "exact location)"
        ),
    }

    def _refresh_barrier_counters(self, ns: str) -> None:
        """Mirror the engine's write-barrier counters.  These live on the
        engine's tracking state, not on EngineStats: the barrier is shared
        by every engine.  A
        ``reset_tracking()`` zeroes the source while Prometheus counters
        must not decrease, so stale-high mirrors are left in place until
        the source catches up."""
        for name, value in self.engine.tracking.barrier_counters().items():
            counter = self.registry.counter(
                f"{ns}_{name}_total", self._BARRIER_HELP[name]
            )
            if value >= counter.value:
                counter.set_total(value)

    def to_prometheus_text(self) -> str:
        self.refresh()
        return self.registry.to_prometheus_text()
