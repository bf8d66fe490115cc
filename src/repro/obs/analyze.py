"""Offline analyzer: read observability artifacts back, summarize, gate.

``python -m repro.obs analyze`` is the single entry point for everything
the observability layer writes to disk:

* **flight dumps** (``kind: "flight_dump"``) — incident summaries: what
  triggered, the run ring leading up to it, the trace tail;
* **repair profiles** (``kind: "repair_profile"``) — top mutation sites
  and per-check attribution, re-rendered from the JSON export;
* **BENCH_*.json records** — diffed against the committed history with
  ``--against benchmarks`` and gated with ``--gate``: a watched metric
  drifting past ``--threshold`` (default 1.5x) fails the build.  The
  watched set is deliberately conservative — latency/throughput keys
  with clear better-directions — so CI noise doesn't flap the gate (the
  tighter 1.2x gates on specific keys live in the ``bench_*.py``
  ``--check`` commands; this is the drift net across *all* of them);
* **JSONL traces** (:class:`~repro.obs.sinks.JsonlSink` output) — span
  aggregates per phase; two traces diff with ``--diff A B``.

Exit codes: 0 clean, 1 gate breach (``--gate`` only), 2 unreadable or
unrecognizable input.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Optional

#: Metric-name fragments treated as lower-is-better when diffing bench
#: records (matched against the dotted leaf path, case-insensitive).
LOWER_BETTER = ("_ms", "_s", "seconds", "p50", "p99")

#: Exact leaf names treated as higher-is-better.
HIGHER_BETTER = ("speedup", "append_ratio", "logged_ratio")

#: Leaf-path fragments never gated: configuration echoes, counts whose
#: "better" direction is ambiguous, and setup/wall timings dominated by
#: interpreter start-up noise.
UNGATED = (
    "params", "config", "setup", "wall_", "statuses", "benchmark",
    "generated_by", "appends", "logged", "filtered",
    # BENCH_crossover.json: crossover estimates are rung-quantized and
    # censoring-clamped; bench_crossover.py's --check gate compares them
    # censoring-aware, which this generic ratio net cannot.
    "crossover", "win_rung", "mods",
)


def load_document(path: str) -> tuple[str, Any]:
    """Classify ``path`` and load it.  Returns ``(kind, payload)`` where
    kind is one of ``flight_dump`` / ``repair_profile`` / ``bench`` /
    ``trace_jsonl`` / ``chrome_trace`` / ``unknown``."""
    if path.endswith(".jsonl"):
        return "trace_jsonl", _load_jsonl(path)
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{" or head == "[":
            try:
                doc = json.load(fh)
            except json.JSONDecodeError:
                fh.seek(0)
                return "trace_jsonl", _load_jsonl_handle(fh)
        else:
            return "trace_jsonl", _load_jsonl_handle(fh)
    if isinstance(doc, dict):
        kind = doc.get("kind")
        if kind in ("flight_dump", "repair_profile"):
            return kind, doc
        if "benchmark" in doc:
            return "bench", doc
        if isinstance(doc.get("traceEvents"), list):
            return "chrome_trace", doc
    return "unknown", doc


def _load_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return _load_jsonl_handle(fh)


def _load_jsonl_handle(fh: Any) -> list[dict]:
    events = []
    for line_no, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
    return events


# Summaries. ----------------------------------------------------------------


def summarize_flight_dump(doc: dict) -> str:
    runs = doc.get("runs", [])
    trace = doc.get("trace", [])
    stats = doc.get("stats", {})
    lines = [
        f"flight dump: {doc.get('name', '?')} "
        f"(check {doc.get('check', '?')!r}, mode {doc.get('mode', '?')})",
        f"  trigger: {doc.get('reason', '?')}"
        + (f" — {doc['detail']}" if doc.get("detail") else ""),
        f"  graph: {doc.get('graph_size', 0)} node(s); "
        f"lifetime runs {stats.get('runs', 0)} "
        f"(scratch fallbacks {stats.get('scratch_fallbacks', 0)})",
        f"  black box: {len(runs)} run summary(ies), "
        f"{len(trace)} trace event(s)",
    ]
    if runs:
        last = runs[-1]
        phases = ", ".join(
            f"{name} {seconds * 1000:.3f}ms"
            for name, seconds in last.get("phase_times_s", {}).items()
        )
        lines.append(
            f"  last run: {last.get('duration_s', 0) * 1000:.3f}ms"
            + (f" ({phases})" if phases else "")
        )
    events = doc.get("fallback_events", [])
    for event in events[-3:]:
        lines.append(
            f"  fallback[{event.get('run_index')}]: "
            f"{event.get('reason')} ({event.get('detail', '')})"
        )
    suppressed = doc.get("dumps_suppressed", 0)
    if suppressed:
        lines.append(f"  ({suppressed} earlier trigger(s) suppressed)")
    return "\n".join(lines)


def summarize_profile(doc: dict) -> str:
    lines = [
        f"repair profile: {doc.get('samples', 0)} sampled of "
        f"{doc.get('runs_seen', 0)} run(s) "
        f"(interval {doc.get('sample_interval', 1)}), "
        f"{doc.get('mutations_captured', 0)} mutation(s) captured"
    ]
    for check in doc.get("checks", []):
        lines.append(
            f"  check {check['check']}: {check['runs']} run(s), "
            f"{check['execs']} exec(s), "
            f"self {check['self_time_s'] * 1000:.3f}ms"
        )
    sites = doc.get("sites", [])[:5]
    if sites:
        lines.append("  top mutation sites:")
        for site in sites:
            lines.append(
                f"    {site['site']}: {site['induced_execs']} induced "
                f"exec(s), {site['mutations']} mutation(s)"
            )
    return "\n".join(lines)


def summarize_trace(events: list[dict]) -> str:
    spans: dict[str, list] = {}
    instants: dict[str, int] = {}
    for event in events:
        name = event.get("name", "?")
        if event.get("kind") == "span" or "dur_us" in event:
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += event.get("dur_us", 0.0)
        else:
            instants[name] = instants.get(name, 0) + 1
    lines = [f"trace: {len(events)} event(s)"]
    for name in sorted(spans):
        count, total = spans[name]
        lines.append(
            f"  span {name}: {count} x, total {total / 1000:.3f}ms, "
            f"mean {total / count / 1000:.4f}ms"
        )
    for name in sorted(instants):
        lines.append(f"  instant {name}: {instants[name]} x")
    return "\n".join(lines)


# Bench diffing. -------------------------------------------------------------


def _numeric_leaves(doc: Any, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(value, path))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


def _direction(path: str) -> Optional[str]:
    lowered = path.lower()
    leaf = lowered.rsplit(".", 1)[-1]
    if any(fragment in lowered for fragment in UNGATED):
        return None
    if leaf in HIGHER_BETTER:
        return "higher"
    if any(lowered.endswith(f) or f in leaf for f in LOWER_BETTER):
        return "lower"
    return None


def diff_bench(
    current: dict, baseline: dict, threshold: float
) -> list[dict]:
    """Watched-metric drifts of ``current`` vs ``baseline`` past
    ``threshold``.  Returns one record per breach."""
    drifts: list[dict] = []
    now = _numeric_leaves(current)
    then = _numeric_leaves(baseline)
    for path in sorted(now):
        direction = _direction(path)
        if direction is None or path not in then:
            continue
        base = then[path]
        value = now[path]
        if base <= 0:
            continue
        ratio = value / base
        if direction == "lower" and ratio > threshold:
            drifts.append({
                "metric": path, "direction": "lower-is-better",
                "baseline": base, "current": value, "ratio": ratio,
            })
        elif direction == "higher" and ratio < 1.0 / threshold:
            drifts.append({
                "metric": path, "direction": "higher-is-better",
                "baseline": base, "current": value, "ratio": ratio,
            })
    return drifts


def diff_traces(
    a_events: list[dict], b_events: list[dict], threshold: float
) -> list[dict]:
    """Per-span-name total-duration drifts between two JSONL traces."""

    def totals(events: list[dict]) -> dict[str, float]:
        out: dict[str, float] = {}
        for event in events:
            if event.get("kind") == "span" or "dur_us" in event:
                name = event.get("name", "?")
                out[name] = out.get(name, 0.0) + event.get("dur_us", 0.0)
        return out

    before = totals(a_events)
    after = totals(b_events)
    drifts = []
    for name in sorted(set(before) & set(after)):
        if before[name] <= 0:
            continue
        ratio = after[name] / before[name]
        if ratio > threshold or ratio < 1.0 / threshold:
            drifts.append({
                "metric": f"span.{name}.total_us",
                "baseline": before[name],
                "current": after[name],
                "ratio": ratio,
            })
    return drifts


# CLI. -----------------------------------------------------------------------


def analyze(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs analyze",
        description="summarize observability artifacts; diff and gate "
                    "BENCH history",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="artifacts: flight dumps, repair profiles, BENCH_*.json, "
             "*.jsonl traces",
    )
    parser.add_argument(
        "--against", metavar="DIR", default=None,
        help="baseline directory for BENCH_*.json diffs (same basename)",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="drift ratio that fails the gate (default 1.5)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 on any drift past --threshold",
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="diff two JSONL traces (per-phase span totals)",
    )
    parser.add_argument(
        "--json", metavar="PATH", dest="json_out", default=None,
        help="write the machine-readable analysis record",
    )
    args = parser.parse_args(argv)
    if not args.paths and args.diff is None:
        parser.print_usage()
        return 2

    if args.threshold <= 1.0:
        print(f"--threshold must exceed 1.0, got {args.threshold}")
        return 2

    record: dict[str, Any] = {"documents": [], "drifts": []}
    exit_code = 0

    for path in args.paths:
        try:
            kind, doc = load_document(path)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})")
            exit_code = 2
            continue
        print(f"== {path} [{kind}]")
        entry: dict[str, Any] = {"path": path, "kind": kind}
        if kind == "flight_dump":
            print(summarize_flight_dump(doc))
        elif kind == "repair_profile":
            print(summarize_profile(doc))
        elif kind == "trace_jsonl":
            print(summarize_trace(doc))
        elif kind == "chrome_trace":
            print(
                f"chrome trace: "
                f"{len(doc.get('traceEvents', []))} event(s)"
            )
        elif kind == "bench":
            name = doc.get("benchmark", "?")
            print(f"bench record: {name}")
            if args.against is not None:
                base_path = os.path.join(
                    args.against, os.path.basename(path)
                )
                if not os.path.exists(base_path):
                    print(f"  (no baseline {base_path}; skipped)")
                else:
                    with open(base_path, "r", encoding="utf-8") as fh:
                        baseline = json.load(fh)
                    drifts = diff_bench(doc, baseline, args.threshold)
                    entry["drifts"] = drifts
                    record["drifts"].extend(drifts)
                    if drifts:
                        for drift in drifts:
                            print(
                                f"  DRIFT {drift['metric']}: "
                                f"{drift['baseline']:.6g} -> "
                                f"{drift['current']:.6g} "
                                f"({drift['ratio']:.2f}x, "
                                f"{drift['direction']})"
                            )
                    else:
                        print(
                            f"  no drift vs {base_path} past "
                            f"{args.threshold}x"
                        )
        else:
            print("  (unrecognized document; nothing to summarize)")
        record["documents"].append(entry)

    if args.diff is not None:
        try:
            _, a_events = load_document(args.diff[0])
            _, b_events = load_document(args.diff[1])
        except (OSError, ValueError) as exc:
            print(f"--diff: unreadable input ({exc})")
            return 2
        drifts = diff_traces(a_events, b_events, args.threshold)
        record["drifts"].extend(drifts)
        print(f"== diff {args.diff[0]} vs {args.diff[1]}")
        if drifts:
            for drift in drifts:
                print(
                    f"  DRIFT {drift['metric']}: "
                    f"{drift['baseline']:.6g} -> {drift['current']:.6g} "
                    f"({drift['ratio']:.2f}x)"
                )
        else:
            print(f"  no span drift past {args.threshold}x")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")

    if args.gate and record["drifts"]:
        print(
            f"GATE FAILURE: {len(record['drifts'])} metric(s) drifted "
            f"past {args.threshold}x"
        )
        return 1
    return exit_code
