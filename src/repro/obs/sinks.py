"""Serializing trace sinks: JSON Lines and Chrome ``trace_event`` output.

:class:`JsonlSink` streams one JSON object per event — the format for
piping into ad-hoc analysis (``jq``, pandas).  :class:`ChromeTraceSink`
writes the Chrome trace-event format (a ``{"traceEvents": [...]}`` JSON
object) that Perfetto (https://ui.perfetto.dev), ``chrome://tracing``, and
speedscope all load directly: phase spans become complete (``"ph": "X"``)
events with microsecond ``ts``/``dur``, instants become ``"ph": "i"``
events.

:func:`validate_chrome_trace` is the schema check CI runs against the
benchmark-produced trace before uploading it as an artifact.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Optional, Union

from .trace import INSTANT_NAMES, SPAN_NAMES, TraceEvent, TraceSink

#: ``ph`` values this package emits / accepts when validating.
_CHROME_PHASES = frozenset("XiBEMC")


def _as_micros(seconds: float) -> float:
    return round(seconds * 1e6, 3)


class JsonlSink(TraceSink):
    """Write each event immediately as one JSON line.

    ``target`` may be a path (opened and owned by the sink) or an open
    text-mode file object (flushed but left open on :meth:`close`).

    Long-running captures — multi-hour soaks, long QA campaigns —
    need two guarantees a naive streaming sink doesn't give:

    * **visibility**: :meth:`flush` pushes buffered lines to the OS on
      demand, and ``flush_every=N`` does it automatically every N events,
      so a crash (or a tail -f) never misses more than N events;
    * **bounded disk**: ``max_bytes`` rotates the output once the current
      file would exceed it — ``path`` is renamed to ``path.1`` (newest
      backup), existing backups shift up, the oldest past ``backups``
      falls off, and a fresh ``path`` continues the stream.  Rotation
      requires a path target (a borrowed file object cannot be reopened;
      passing both raises ``ValueError``).  Events are never split: a
      line larger than ``max_bytes`` still lands whole in a fresh file.

    Timestamps stay rebased against the *first* event across rotations,
    so concatenating ``path.N .. path.1 path`` replays the full capture
    on one clock."""

    def __init__(
        self,
        target: Union[str, io.TextIOBase],
        *,
        max_bytes: Optional[int] = None,
        backups: int = 3,
        flush_every: Optional[int] = None,
    ):
        super().__init__()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if backups < 1:
            raise ValueError(f"backups must be >= 1, got {backups}")
        if flush_every is not None and flush_every <= 0:
            raise ValueError(
                f"flush_every must be positive, got {flush_every}"
            )
        if isinstance(target, str):
            self._path: Optional[str] = target
            self._file: Any = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            if max_bytes is not None:
                raise ValueError(
                    "max_bytes rotation requires a path target: a "
                    "borrowed file object cannot be reopened"
                )
            self._path = None
            self._file = target
            self._owns_file = False
        self.max_bytes = max_bytes
        self.backups = backups
        self.flush_every = flush_every
        self.rotations = 0
        self._written = 0
        self._since_flush = 0
        self._base_ts: Optional[float] = None

    def _record(self, event: TraceEvent) -> None:
        if self._base_ts is None:
            self._base_ts = event.ts
        payload: dict[str, Any] = {
            "kind": event.kind,
            "name": event.name,
            "ts_us": _as_micros(event.ts - self._base_ts),
        }
        if event.dur is not None:
            payload["dur_us"] = _as_micros(event.dur)
        if event.args:
            payload["args"] = event.args
        line = json.dumps(payload) + "\n"
        if self.max_bytes is not None:
            size = len(line.encode("utf-8"))
            if self._written > 0 and self._written + size > self.max_bytes:
                self._rotate()
            self._written += size
        self._file.write(line)
        if self.flush_every is not None:
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS now."""
        self._file.flush()
        self._since_flush = 0

    def _rotate(self) -> None:
        """``path`` -> ``path.1`` (newest), shifting older backups up and
        dropping the one past ``backups``."""
        assert self._path is not None  # guaranteed by __init__
        self._file.close()
        oldest = f"{self._path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            src = f"{self._path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self._path}.{index + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._file = open(self._path, "w", encoding="utf-8")
        self._written = 0
        self._since_flush = 0
        self.rotations += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()


class ChromeTraceSink(TraceSink):
    """Accumulate events and write a Chrome ``trace_event`` JSON file.

    Load the output in Perfetto or ``chrome://tracing`` to see the
    engine's run phases as a flame of spans with instant markers for node
    re-executions, reuses, and mispredictions.  Events are buffered in
    memory and written on :meth:`close` (or :meth:`write`)."""

    def __init__(
        self,
        target: Union[str, io.TextIOBase],
        process_name: str = "repro.DittoEngine",
    ):
        super().__init__()
        self._target = target
        self._base_ts: Optional[float] = None
        self._events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "ts": 0,
                "args": {"name": process_name},
            }
        ]
        self._closed = False

    def _rebase(self, ts: float) -> float:
        if self._base_ts is None:
            self._base_ts = ts
        return _as_micros(ts - self._base_ts)

    def _record(self, event: TraceEvent) -> None:
        record: dict[str, Any] = {
            "name": event.name,
            "pid": 1,
            "tid": 1,
            "ts": self._rebase(event.ts),
        }
        if event.kind == "span":
            record["ph"] = "X"
            record["dur"] = _as_micros(event.dur or 0.0)
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        if event.args:
            record["args"] = event.args
        self._events.append(record)

    def write(self) -> None:
        """Serialize the buffered events to ``target`` (idempotent only in
        the sense that later events append on the next write)."""
        payload = {"traceEvents": self._events, "displayTimeUnit": "ms"}
        if isinstance(self._target, str):
            with open(self._target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        else:
            json.dump(payload, self._target)
            self._target.flush()

    def close(self) -> None:
        if not self._closed:
            self.write()
            self._closed = True


def validate_chrome_trace(
    source: Union[str, dict],
    strict: bool = False,
    known_names: bool = False,
) -> list[str]:
    """Check a Chrome trace (path or already-loaded dict) for well-formed
    ``ph``/``ts``/``dur`` fields; returns the list of problems found.

    With ``strict=True`` raises ``ValueError`` on the first report instead
    — the CI step uses this to fail the build on a malformed trace.

    With ``known_names=True`` additionally checks event names against the
    canonical registries in :mod:`repro.obs.trace`: span (``"X"``) names
    must be engine phases (:data:`~repro.obs.trace.SPAN_NAMES`) and
    instant (``"i"``) names must be registered instants
    (:data:`~repro.obs.trace.INSTANT_NAMES`, which includes the
    profiler's ``profile_sample`` and the flight recorder's
    ``flight_dump`` events).
    CI runs this over the soak trace so an event added without updating
    the registry fails the build."""
    problems: list[str] = []
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"unreadable trace: {exc}")
            data = None
    else:
        data = source
    events: list = []
    if data is not None:
        if isinstance(data, dict) and isinstance(
            data.get("traceEvents"), list
        ):
            events = data["traceEvents"]
        elif isinstance(data, list):  # the bare-array variant of the format
            events = data
        else:
            problems.append(
                "top level must be a JSON array or an object with a "
                "'traceEvents' array"
            )
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _CHROME_PHASES:
            problems.append(f"{where}: bad 'ph' {phase!r}")
            continue
        name = event.get("name")
        if not isinstance(name, str):
            problems.append(f"{where}: missing/invalid 'name'")
        elif known_names:
            if phase == "X" and name not in SPAN_NAMES:
                problems.append(
                    f"{where}: unknown span name {name!r} (not a "
                    f"registered engine phase)"
                )
            elif phase == "i" and name not in INSTANT_NAMES:
                problems.append(
                    f"{where}: unknown instant name {name!r} (not in "
                    f"repro.obs.trace.INSTANT_NAMES)"
                )
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: missing/invalid 'ts' {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs 'dur', got {dur!r}")
    if not events and not problems:
        problems.append("trace contains no events")
    if strict and problems:
        raise ValueError(
            "invalid Chrome trace: " + "; ".join(problems[:10])
        )
    return problems
