"""§4 write-barrier cost: what tracked mutations cost the main program.

The paper's two barrier optimizations exist because "each memory address
caught by the barriers incurs a hash table lookup … even if the object at
that address is unrelated to any invariant checks".  Groups:

* ``plain-object``       — baseline: ordinary Python attribute stores;
* ``tracked-unmonitored``— TrackedObject stores on a field no check reads
  (filtered by the monitored-field set);
* ``tracked-no-deps``    — stores on a monitored field of an object with a
  zero reference count (filtered by the §4 refcount);
* ``tracked-logging``    — stores that pass both filters and reach the log
  (the worst case; the log deduplicates unread duplicates).

The ``barrier-shift-heavy`` group measures the range-coalescing overhaul:
head inserts/pops on a referenced TrackedList under the coalesced barrier
(one ``RangeLocation`` per op) versus the pre-overhaul per-slot protocol
(one ``IndexLocation`` per shifted slot), including the engine drain and
repair each cycle.  Run this module as a script to emit/gate the
``BENCH_barrier.json`` perf-trajectory record:

    python benchmarks/bench_barrier_overhead.py --emit BENCH_barrier.json \
        --check benchmarks/BENCH_barrier.json

The gate fails when the coalescing win erodes: the append ratio must stay
at least 3x, at least 80% of the committed baseline's ratio, and the
coalesced barrier must not be slower than the per-slot one.  Wall-clock
seconds are recorded for trajectory plots but not gated against the
committed file (they are machine-dependent); the within-run speedup is.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from repro import (
    DittoEngine,
    TrackedList,
    TrackedObject,
    check,
    reset_tracking,
    tracking_state,
)
from repro.core.tracked import set_location_filter

STORES = 20_000


class Plain:
    def __init__(self):
        self.value = 0
        self.other = 0


class Cell(TrackedObject):
    def __init__(self):
        self.value = 0
        self.other = 0


@check
def barrier_watch(c):
    if c is None:
        return True
    return c.value >= 0


def _store_loop(obj, field):
    def run():
        for i in range(STORES):
            setattr(obj, field, i)
    return run


@pytest.mark.parametrize(
    "variant",
    ["plain-object", "tracked-unmonitored", "tracked-no-deps",
     "tracked-logging"],
)
def test_barrier_overhead(benchmark, variant):
    benchmark.group = "barrier-overhead"
    benchmark.extra_info["variant"] = variant
    engine = None
    if variant == "plain-object":
        run = _store_loop(Plain(), "value")
    elif variant == "tracked-unmonitored":
        engine = DittoEngine(barrier_watch)
        run = _store_loop(Cell(), "other")  # 'other' is never read
    elif variant == "tracked-no-deps":
        engine = DittoEngine(barrier_watch)
        run = _store_loop(Cell(), "value")  # monitored, but refcount == 0
    else:  # tracked-logging
        engine = DittoEngine(barrier_watch)
        cell = Cell()
        engine.run(cell)  # the graph now depends on cell.value
        run = _store_loop(cell, "value")
    try:
        benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    finally:
        if engine is not None:
            engine.close()
        tracking_state().write_log  # keep symmetry; log cleans on consume


# Shift-heavy workload: the coalescing overhaul's target. ---------------------

#: Steady-state list size; every slot is read by the checksum check, so
#: the whole list is referenced and every shift passes the §4 filters.
SHIFT_LIST_SIZE = 512
#: Head inserts (then head pops) per measured cycle.
SHIFT_OPS = 256
SHIFT_ROUNDS = 5


@check
def shift_checksum(v, i):
    """Position-weighted sum of slots ``i..`` — reads every slot and the
    length, so shifts dirty the whole suffix chain."""
    if i >= len(v):
        return 0
    x = v[i]
    rest = shift_checksum(v, i + 1)
    return (i + 1) * x + rest


@check
def shift_watch(v):
    return shift_checksum(v, 0)


class _PerSlotList(TrackedList):
    """The pre-overhaul barrier protocol: one ``IndexLocation`` append per
    shifted slot (clamping/validation match the fixed semantics, so the
    two variants compute identical states — only the logging differs).
    Kept as the in-run A/B baseline the regression gate measures against."""

    __slots__ = ()

    def insert(self, index, value):
        items = self._items
        n = len(items)
        if index < 0:
            index += n
            if index < 0:
                index = 0
        elif index > n:
            index = n
        if self._ditto.refcount > 0:
            log = tracking_state().write_log
            log.append(self._ditto_location("<len>"))
            for i in range(index, n + 1):
                log.append(self._ditto_location(i))
        items.insert(index, value)

    def pop(self, index=-1):
        items = self._items
        n = len(items)
        if not n:
            raise IndexError("pop from empty list")
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("pop index out of range")
        if self._ditto.refcount > 0:
            log = tracking_state().write_log
            log.append(self._ditto_location("<len>"))
            for i in range(index, n):
                log.append(self._ditto_location(i))
        return items.pop(index)


def _shift_cycle(lst, engine, ops=SHIFT_OPS):
    """One mutate+repair event cycle: ``ops`` head inserts, ``ops`` head
    pops (back to the steady-state contents), then the incremental run
    that drains the log and repairs the graph."""

    def cycle():
        for i in range(ops):
            lst.insert(0, i)
        for _ in range(ops):
            lst.pop(0)
        engine.run(lst)

    return cycle


_SHIFT_IMPLS = {"coalesced": TrackedList, "per-slot": _PerSlotList}


@pytest.mark.parametrize("impl", sorted(_SHIFT_IMPLS))
def test_shift_heavy_barrier(benchmark, impl):
    benchmark.group = "barrier-shift-heavy"
    benchmark.extra_info["variant"] = impl
    lst = _SHIFT_IMPLS[impl](range(SHIFT_LIST_SIZE))
    engine = DittoEngine(shift_watch)
    engine.run(lst)  # build the graph (untimed)
    try:
        benchmark.pedantic(
            _shift_cycle(lst, engine),
            rounds=SHIFT_ROUNDS,
            iterations=1,
            warmup_rounds=1,
        )
    finally:
        engine.close()


# Multi-check workload: the per-location refcount filter's target. ------------

#: Chain length; the flag of the *head* is the only flag any check reads.
MULTI_CHAIN = 256
#: Flag stores per measured cycle, rotated over every node.
MULTI_STORES = 2_000
MULTI_ROUNDS = 5


class Flagged(TrackedObject):
    def __init__(self, value, flag, next=None):
        self.value = value
        self.flag = flag
        self.next = next


@check
def chain_values_ok(p):
    if p is None:
        return True
    if p.value < 0:
        return False
    return chain_values_ok(p.next)


@check
def multi_watch(p):
    """Reads ``flag`` of the head only, then every ``value``/``next`` via
    the callee — so ``flag`` joins the monitored-field set even though
    all but one ``flag`` *location* has no dependent node."""
    if p is None:
        return True
    if not p.flag:
        return False
    return chain_values_ok(p)


def _build_chain(n=MULTI_CHAIN):
    head = None
    for i in range(n, 0, -1):
        head = Flagged(i, True, head)
    nodes = []
    node = head
    while node is not None:
        nodes.append(node)
        node = node.next
    return head, nodes


def _multi_cycle(nodes, engine, head, stores=MULTI_STORES):
    """``stores`` flag stores rotated over the chain, then the repair run.
    Only the head's flag location has a dependent node: the per-location
    filter drops the other ~``(n-1)/n`` of the stores before the log."""

    def cycle():
        n = len(nodes)
        for i in range(stores):
            nodes[i % n].flag = i + 1  # truthy: the invariant stays True
        engine.run(head)

    return cycle


def _measure_multi(location_filter, chain, stores, rounds):
    reset_tracking()
    set_location_filter(location_filter)
    try:
        head, nodes = _build_chain(chain)
        engine = DittoEngine(multi_watch)
        try:
            engine.run(head)  # build the graph (untimed)
            cycle = _multi_cycle(nodes, engine, head, stores)
            state = tracking_state()
            before = dict(state.barrier_counters())
            cycle()  # warmup; also the counted cycle
            after = state.barrier_counters()
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                cycle()
                best = min(best, time.perf_counter() - started)
            return {
                "seconds": best,
                "logged": after["barrier_logged"] - before["barrier_logged"],
                "location_filtered": (
                    after["barrier_location_filtered"]
                    - before["barrier_location_filtered"]
                ),
            }
        finally:
            engine.close()
    finally:
        set_location_filter(True)
        reset_tracking()


@pytest.mark.parametrize("variant", ["location-filter-on", "location-filter-off"])
def test_multi_check_barrier(benchmark, variant):
    benchmark.group = "barrier-multi-check"
    benchmark.extra_info["variant"] = variant
    set_location_filter(variant == "location-filter-on")
    head, nodes = _build_chain()
    engine = DittoEngine(multi_watch)
    engine.run(head)
    try:
        benchmark.pedantic(
            _multi_cycle(nodes, engine, head),
            rounds=MULTI_ROUNDS,
            iterations=1,
            warmup_rounds=1,
        )
    finally:
        engine.close()
        set_location_filter(True)


def run_multi_check_benchmark(
    chain=MULTI_CHAIN, stores=MULTI_STORES, rounds=MULTI_ROUNDS
):
    sys.setrecursionlimit(200_000)
    filtered = _measure_multi(True, chain, stores, rounds)
    unfiltered = _measure_multi(False, chain, stores, rounds)
    return {
        "params": {"chain": chain, "stores": stores, "rounds": rounds},
        "filter_on": filtered,
        "filter_off": unfiltered,
        # Deterministic counter ratio: how many log appends the
        # per-location filter removes from the same store sequence.
        "logged_ratio": unfiltered["logged"] / max(filtered["logged"], 1),
    }


# Standalone emit/gate entry point (CI's BENCH_barrier.json). -----------------


def _measure_impl(impl_cls, list_size, ops, rounds):
    """Best-of-``rounds`` cycle seconds plus the deterministic per-cycle
    barrier append count (``WriteLog.logged``, i.e. pre-deduplication)."""
    reset_tracking()
    lst = impl_cls(range(list_size))
    engine = DittoEngine(shift_watch)
    try:
        engine.run(lst)
        cycle = _shift_cycle(lst, engine, ops)
        log = tracking_state().write_log
        logged_before = log.logged
        cycle()  # warmup; also the counted cycle
        appends = log.logged - logged_before
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            cycle()
            best = min(best, time.perf_counter() - started)
        return {"seconds": best, "appends": appends}
    finally:
        engine.close()
        reset_tracking()


def run_shift_benchmark(
    list_size=SHIFT_LIST_SIZE, ops=SHIFT_OPS, rounds=SHIFT_ROUNDS
):
    sys.setrecursionlimit(200_000)
    coalesced = _measure_impl(TrackedList, list_size, ops, rounds)
    legacy = _measure_impl(_PerSlotList, list_size, ops, rounds)
    return {
        "benchmark": "barrier-shift-heavy",
        "generated_by": "benchmarks/bench_barrier_overhead.py",
        "params": {
            "list_size": list_size,
            "shift_ops": ops,
            "rounds": rounds,
        },
        "coalesced": coalesced,
        "legacy_per_slot": legacy,
        "append_ratio": legacy["appends"] / coalesced["appends"],
        "speedup": legacy["seconds"] / coalesced["seconds"],
    }


#: Gate thresholds (see the module docstring).
MIN_APPEND_RATIO = 3.0
MIN_SPEEDUP = 1.0
BASELINE_RATIO_FRACTION = 0.8
#: Floor on the multi-check logged ratio: the per-location filter must
#: remove at least 4 of every 5 log appends from the rotated-flag-store
#: workload (the analytic value is ~MULTI_CHAIN, i.e. two orders higher).
MIN_MULTI_LOGGED_RATIO = 5.0


def check_against_baseline(result, baseline):
    """Return a list of failure messages (empty when the gate passes)."""
    failures = []
    if result["append_ratio"] < MIN_APPEND_RATIO:
        failures.append(
            f"append_ratio {result['append_ratio']:.2f} < hard floor "
            f"{MIN_APPEND_RATIO}"
        )
    if result["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"coalesced barrier is slower than per-slot "
            f"(speedup {result['speedup']:.2f} < {MIN_SPEEDUP})"
        )
    multi = result.get("multi_check")
    if multi is not None and multi["logged_ratio"] < MIN_MULTI_LOGGED_RATIO:
        failures.append(
            f"multi-check logged_ratio {multi['logged_ratio']:.2f} < hard "
            f"floor {MIN_MULTI_LOGGED_RATIO} (per-location filter eroded)"
        )
    if baseline is not None:
        floor = baseline["append_ratio"] * BASELINE_RATIO_FRACTION
        if result["append_ratio"] < floor:
            failures.append(
                f"append_ratio {result['append_ratio']:.2f} regressed >20% "
                f"vs baseline {baseline['append_ratio']:.2f}"
            )
        base_multi = baseline.get("multi_check")
        if multi is not None and base_multi is not None:
            floor = base_multi["logged_ratio"] * BASELINE_RATIO_FRACTION
            if multi["logged_ratio"] < floor:
                failures.append(
                    f"multi-check logged_ratio {multi['logged_ratio']:.2f} "
                    f"regressed >20% vs baseline "
                    f"{base_multi['logged_ratio']:.2f}"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--emit", metavar="PATH", help="write BENCH_barrier.json here"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="gate against a committed BENCH_barrier.json",
    )
    parser.add_argument("--list-size", type=int, default=SHIFT_LIST_SIZE)
    parser.add_argument("--ops", type=int, default=SHIFT_OPS)
    parser.add_argument("--rounds", type=int, default=SHIFT_ROUNDS)
    args = parser.parse_args(argv)

    result = run_shift_benchmark(args.list_size, args.ops, args.rounds)
    result["multi_check"] = run_multi_check_benchmark()
    print(
        f"barrier-shift-heavy: coalesced {result['coalesced']['appends']} "
        f"appends / {result['coalesced']['seconds'] * 1000:.1f}ms per cycle,"
        f" per-slot {result['legacy_per_slot']['appends']} appends / "
        f"{result['legacy_per_slot']['seconds'] * 1000:.1f}ms "
        f"(append_ratio {result['append_ratio']:.1f}x, "
        f"speedup {result['speedup']:.2f}x)"
    )
    multi = result["multi_check"]
    print(
        f"barrier-multi-check: filter on {multi['filter_on']['logged']} "
        f"logged / {multi['filter_on']['location_filtered']} filtered per "
        f"cycle, filter off {multi['filter_off']['logged']} logged "
        f"(logged_ratio {multi['logged_ratio']:.1f}x)"
    )
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.emit}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_against_baseline(result, baseline)
        if failures:
            for failure in failures:
                print(f"GATE FAILURE: {failure}", file=sys.stderr)
            return 1
        print(f"gate passed vs {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
