"""Profiling a check with repro.obs: where does repair time go?

One ordered list, one engine, three observers attached at once (they
share the engine's one observer slot through a fan-out):

* a :class:`ChromeTraceSink` records every run phase as a span — load the
  written file in Perfetto (https://ui.perfetto.dev) to see the repairs
  as a flame of ``barrier_drain``/``dirty_mark``/``exec``/... blocks;
* the provenance recorder answers "why did the last run re-execute those
  nodes?" via :func:`explain_last_run`;
* the repair profiler answers "which mutation site makes the check
  slow?" via :meth:`RepairProfiler.report`.

:meth:`DittoEngine.run_with_report` returns each check's
:class:`RunReport`, whose counter deltas say what that one run did; the
engine's phase timers say where the repair time went.

Run:  python examples/profiling_trace.py [ops]
"""

import random
import sys

from repro import (
    ChromeTraceSink,
    DittoEngine,
    enable_provenance,
    explain_last_run,
)
from repro.bench import format_phase_breakdown
from repro.obs import enable_profiling, validate_chrome_trace
from repro.structures import OrderedIntList, is_ordered

TRACE_PATH = "/tmp/ditto_profile_trace.json"
DOT_PATH = "/tmp/ditto_provenance.dot"


def main(ops: int) -> None:
    lst = OrderedIntList()
    for v in range(0, 600, 2):
        lst.insert(v)

    sink = ChromeTraceSink(TRACE_PATH)
    engine = DittoEngine(is_ordered, trace_sink=sink)
    enable_provenance(engine)
    profiler = enable_profiling(engine)

    report = engine.run_with_report(lst.head)  # initial graph build
    print(f"initial check over {len(lst)} elements: "
          f"{report.duration * 1000:.2f} ms, "
          f"graph of {report.graph_size} nodes")

    rng = random.Random(7)
    values = list(range(0, 600, 2))
    deltas = []  # one RunReport.delta per incremental check
    for _ in range(ops):
        if rng.random() < 0.6 or not values:
            v = rng.randrange(1200)
            lst.insert(v)
            values.append(v)
        else:
            lst.delete(values.pop(rng.randrange(len(values))))
        report = engine.run_with_report(lst.head)
        assert report.result is True
        deltas.append(report.delta)

    print(f"\nwhat did each incremental check do? per-run counter deltas "
          f"over {ops} checks:")
    print(f"  {'counter':<18} {'last':>6} {'median':>6} {'max':>6} "
          f"{'total':>7}")
    for name in engine.stats.COUNTER_FIELDS:
        per_run = sorted(delta[name] for delta in deltas)
        if any(per_run):
            print(f"  {name:<18} {deltas[-1][name]:>6} "
                  f"{per_run[len(per_run) // 2]:>6} {per_run[-1]:>6} "
                  f"{sum(per_run):>7}")

    print(f"\nwhere did repair time go over {ops} incremental checks?")
    print(format_phase_breakdown(
        {p: s for p, s in engine.stats.timers().items() if s > 0}
    ))

    print("\nwhy did the last run re-execute what it re-executed?")
    explanation = explain_last_run(engine)
    print(explanation.text())
    with open(DOT_PATH, "w") as handle:
        handle.write(explanation.dot())
    print(f"\nprovenance graph written to {DOT_PATH} "
          f"(render with: dot -Tpng {DOT_PATH} -o provenance.png)")

    print("\nwhich mutation sites made the checks repair?")
    print(profiler.report(top=3))

    engine.close()
    sink.close()
    problems = validate_chrome_trace(TRACE_PATH)
    print(f"\nChrome trace written to {TRACE_PATH} "
          f"({sink.events_emitted} events, "
          f"{'valid' if not problems else problems}) — "
          f"open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
