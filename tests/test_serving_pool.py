"""EnginePool: admission, breakers, deadlines, and isolation surfacing.

Every robustness dimension of the pool is exercised deterministically:
shed load via an Event-blocked worker with ``max_queue=1``, breakers via
an injected fake clock, deadlines via sleeping step probes with generous
margins, and cross-tenant structure sharing via the adoption guard.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import TrackedObject, check
from repro.core.errors import EngineStateError, TenantIsolationError
from repro.obs import PoolMetrics
from repro.resilience.degradation import BreakerPolicy
from repro.serving import (
    BREAKER_OPEN,
    DEADLINE,
    ERROR,
    OK,
    REJECTED,
    CheckResult,
    EnginePool,
    PoolConfig,
)

pytestmark = pytest.mark.serving


class Node(TrackedObject):
    def __init__(self, value, next=None):
        self.value = value
        self.next = next


@check
def pool_ordered(e):
    if e is None or e.next is None:
        return True
    if e.value > e.next.value:
        return False
    return pool_ordered(e.next)


def build(*values):
    head = None
    for v in reversed(values):
        head = Node(v, head)
    return head


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# Basics. --------------------------------------------------------------------


def test_register_check_mutate_roundtrip():
    with EnginePool() as pool:
        pool.register("t", pool_ordered)
        head = build(1, 2, 3)
        res = pool.check("t", head)
        assert res.ok and res.status == OK
        assert res.unwrap() is True
        assert res.duration >= 0

        def corrupt():
            head.next.value = 0

        pool.mutate("t", corrupt)
        assert pool.check("t", head).unwrap() is False
        stats = pool.stats()
        assert stats["checks"] == 2
        assert stats["checks_ok"] == 2
        assert stats["mutations"] == 1


def test_duplicate_register_raises():
    with EnginePool() as pool:
        pool.register("t", pool_ordered)
        with pytest.raises(ValueError):
            pool.register("t", pool_ordered)


def test_unknown_tenant_is_an_error_result_not_an_exception():
    with EnginePool() as pool:
        res = pool.check("nobody", None)
        assert res.status == ERROR
        assert isinstance(res.error, KeyError)
        with pytest.raises(KeyError):
            res.unwrap()


def test_unregister_releases_the_tenant():
    with EnginePool() as pool:
        pool.register("t", pool_ordered)
        head = build(1, 2, 3)
        assert pool.check("t", head).ok
        pool.unregister("t")
        assert pool.check("t", head).status == ERROR
        pool.unregister("t")  # idempotent
        # The closed engine released its refcounts: another tenant may
        # adopt the very same structure.
        pool.register("u", pool_ordered)
        assert pool.check("u", head).unwrap() is True


def test_closed_pool_answers_with_error_results():
    pool = EnginePool()
    pool.register("t", pool_ordered)
    pool.close()
    pool.close()  # idempotent
    res = pool.check("t", build(1))
    assert res.status == ERROR
    assert isinstance(res.error, EngineStateError)
    with pytest.raises(EngineStateError):
        pool.register("u", pool_ordered)


def test_check_exception_is_an_error_result():
    with EnginePool(PoolConfig(step_hook_interval=1)) as pool:
        pool.register("t", pool_ordered)

        def boom():
            raise RuntimeError("poisoned")

        pool.set_step_probe("t", boom)
        res = pool.check("t", build(1, 2, 3))
        assert res.status == ERROR
        assert isinstance(res.error, RuntimeError)


# Bounded admission. ---------------------------------------------------------


def test_full_pool_sheds_with_explicit_rejected_result():
    """max_queue=1, the single slot wedged on an Event: the next arrival
    must shed at admission with an explicit ``rejected`` result, and the
    slot must be reusable once the wedge clears."""
    gate = threading.Event()
    config = PoolConfig(
        shards=2, workers=2, max_queue=1, step_hook_interval=1,
    )
    with EnginePool(config) as pool:
        pool.register("wedged", pool_ordered)
        pool.register("victim", pool_ordered)
        pool.set_step_probe("wedged", gate.wait)
        head_w, head_v = build(1, 2, 3), build(4, 5, 6)
        try:
            future = pool.submit("wedged", head_w)
            # Wait until the wedged check actually holds the slot.
            deadline = time.monotonic() + 5
            while pool.stats()["queue_depth"] < 1:
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.001)
            shed = pool.check("victim", head_v)
            assert shed.status == REJECTED
            assert shed.detail == {"max_queue": 1}
            shed_async = pool.submit("victim", head_v)
            assert shed_async.result(timeout=5).status == REJECTED
        finally:
            gate.set()
        assert future.result(timeout=5).unwrap() is True
        # Slot released: the victim is admissible again.
        assert pool.check("victim", head_v).unwrap() is True
        stats = pool.stats()
        assert stats["shed"] == 2
        assert stats["queue_depth"] == 0


# Circuit breakers. ----------------------------------------------------------


def test_breaker_trips_sheds_and_recovers_via_half_open_probe():
    clock = FakeClock()
    config = PoolConfig(
        breaker=BreakerPolicy(failure_threshold=2, recovery_time=10.0),
        step_hook_interval=1,
    )
    with EnginePool(config, clock=clock) as pool:
        pool.register("t", pool_ordered)
        head = build(1, 2, 3)

        def boom():
            raise RuntimeError("poisoned")

        pool.set_step_probe("t", boom)
        assert pool.check("t", head).status == ERROR
        assert pool.check("t", head).status == ERROR  # second: trips
        shed = pool.check("t", head)
        assert shed.status == BREAKER_OPEN
        assert shed.retry_after == pytest.approx(10.0)
        assert isinstance(shed, CheckResult) and not shed.ok

        clock.advance(10.0)
        pool.set_step_probe("t", None)  # tenant healthy again
        probe = pool.check("t", head)  # the half-open probe
        assert probe.unwrap() is True
        assert pool.check("t", head).ok  # breaker closed for good
        stats = pool.stats()
        assert stats["breaker_trips"] == 1
        assert stats["breaker_shed"] == 1
        assert stats["breakers_open"] == 0


def test_breakers_are_per_tenant():
    clock = FakeClock()
    config = PoolConfig(
        breaker=BreakerPolicy(failure_threshold=1, recovery_time=10.0),
        step_hook_interval=1,
    )
    with EnginePool(config, clock=clock) as pool:
        pool.register("sick", pool_ordered)
        pool.register("healthy", pool_ordered)
        pool.set_step_probe(
            "sick", lambda: (_ for _ in ()).throw(RuntimeError("no"))
        )
        head_s, head_h = build(1, 2, 3), build(1, 2, 3)
        assert pool.check("sick", head_s).status == ERROR
        assert pool.check("sick", head_s).status == BREAKER_OPEN
        # The neighbour is untouched by the sick tenant's breaker.
        for _ in range(3):
            assert pool.check("healthy", head_h).unwrap() is True


def test_breakers_can_be_disabled():
    with EnginePool(PoolConfig(breaker=None, step_hook_interval=1)) as pool:
        assert pool.breakers is None
        pool.register("t", pool_ordered)
        pool.set_step_probe(
            "t", lambda: (_ for _ in ()).throw(RuntimeError("no"))
        )
        head = build(1, 2, 3)
        for _ in range(5):  # never sheds, only errors
            assert pool.check("t", head).status == ERROR
        assert "breaker_trips" not in pool.stats()


# Deadlines. -----------------------------------------------------------------


def _slow_probe(tick):
    return lambda: time.sleep(tick)


def test_deadline_degrade_retry_answers_within_the_2x_budget():
    """First attempt blows the deadline (one huge probe sleep); the
    degrade retry — probe now quiet — completes and is flagged."""
    deadline = 0.05
    config = PoolConfig(
        on_deadline="degrade", deadline_extension=1.9, step_hook_interval=1,
    )
    with EnginePool(config) as pool:
        pool.register("t", pool_ordered)
        head = build(*range(20))
        assert pool.check("t", head).ok  # warm, no deadline

        fired = []

        def sleep_once():
            if not fired:
                fired.append(True)
                time.sleep(deadline * 1.2)

        pool.mutate("t", pool.engine("t").invalidate)
        pool.set_step_probe("t", sleep_once)
        res = pool.check("t", head, deadline=deadline)
        assert res.status == OK and res.degraded
        assert res.unwrap() is True
        assert pool.engine("t").stats.deadline_aborts == 1
        assert pool.stats()["checks_degraded"] == 1


def test_deadline_double_abort_is_explicit_and_within_2x_budget():
    deadline = 0.05
    config = PoolConfig(
        on_deadline="degrade", deadline_extension=1.5, step_hook_interval=1,
    )
    with EnginePool(config) as pool:
        pool.register("t", pool_ordered)
        head = build(*range(50))
        assert pool.check("t", head).ok
        pool.mutate("t", pool.engine("t").invalidate)
        pool.set_step_probe("t", _slow_probe(0.002))  # crawls every tick
        res = pool.check("t", head, deadline=deadline)
        assert res.status == DEADLINE
        assert res.degraded, "the degrade retry was attempted"
        assert res.detail["retried"] is True
        assert res.duration <= 2 * deadline, (
            f"deadline overrun {res.duration / deadline:.2f}x blew the "
            f"2x total-budget contract"
        )
        assert pool.engine("t").stats.deadline_aborts == 2
        assert pool.stats()["deadline_hits"] == 1


def test_on_deadline_reject_fails_fast_without_retry():
    deadline = 0.05
    config = PoolConfig(
        on_deadline="reject", step_hook_interval=1,
    )
    with EnginePool(config) as pool:
        pool.register("t", pool_ordered)
        head = build(*range(50))
        assert pool.check("t", head).ok
        pool.mutate("t", pool.engine("t").invalidate)
        pool.set_step_probe("t", _slow_probe(0.002))
        res = pool.check("t", head, deadline=deadline)
        assert res.status == DEADLINE
        assert not res.degraded
        assert res.detail == {"deadline": deadline}
        assert pool.engine("t").stats.deadline_aborts == 1
        # The engine recovers cleanly once the tenant behaves.
        pool.set_step_probe("t", None)
        assert pool.check("t", head).unwrap() is True


def test_pool_default_deadline_applies_when_call_omits_one():
    config = PoolConfig(
        deadline=0.05, on_deadline="reject", step_hook_interval=1,
    )
    with EnginePool(config) as pool:
        pool.register("t", pool_ordered)
        head = build(*range(50))
        assert pool.check("t", head).ok
        pool.mutate("t", pool.engine("t").invalidate)
        pool.set_step_probe("t", _slow_probe(0.002))
        assert pool.check("t", head).status == DEADLINE


# Isolation surfacing. -------------------------------------------------------


def test_cross_tenant_structure_sharing_surfaces_as_isolation_error():
    """Two tenants pointed at one live structure is an isolation breach:
    the pool answers with an explicit error result carrying
    TenantIsolationError, and the rightful owner keeps working."""
    with EnginePool() as pool:
        pool.register("owner", pool_ordered)
        pool.register("intruder", pool_ordered)
        head = build(1, 2, 3)
        assert pool.check("owner", head).unwrap() is True
        res = pool.check("intruder", head)
        assert res.status == ERROR
        assert isinstance(res.error, TenantIsolationError)
        assert pool.check("owner", head).unwrap() is True


def test_repeated_steal_attempts_never_drain_the_owners_refcounts():
    """Regression: a failed adoption used to leave the location recorded
    in the aborted node's implicits without its matching incref, so the
    cleanup decref'd the *owner's* reference count — and an intruder with
    a warm graph (whose misprediction-retry rounds re-execute the failing
    node) drained it to zero within one check() call, silently adopting
    the structure out from under its owner."""
    with EnginePool(PoolConfig(breaker=None)) as pool:
        pool.register("owner", pool_ordered)
        pool.register("intruder", pool_ordered)
        stolen = build(1, 2, 3)
        own = build(4, 5, 6)
        assert pool.check("owner", stolen).unwrap() is True
        # Warm graph on the intruder: the steal below goes through root
        # retargeting + retry rounds, not the cold first-run path.
        assert pool.check("intruder", own).unwrap() is True
        refcount_before = stolen._ditto.refcount
        for _ in range(5):
            res = pool.check("intruder", stolen)
            assert res.status == ERROR
            assert isinstance(res.error, TenantIsolationError), res.error
        assert stolen._ditto.refcount == refcount_before, (
            "failed adoptions must not touch the owner's refcounts"
        )
        assert stolen._ditto.state is pool.tracking("owner")
        # The owner's graph is fully intact: its barrier still fires and
        # the incremental repair still sees the mutation.
        def corrupt():
            stolen.next.value = 0
        pool.mutate("owner", corrupt)
        assert pool.check("owner", stolen).unwrap() is False
        assert pool.check("intruder", own).unwrap() is True


# Config validation and health. ----------------------------------------------


def test_pool_config_validation():
    with pytest.raises(ValueError):
        PoolConfig(shards=0)
    with pytest.raises(ValueError):
        PoolConfig(max_queue=0)
    with pytest.raises(ValueError):
        PoolConfig(deadline=0.0)
    with pytest.raises(ValueError):
        PoolConfig(on_deadline="panic")
    with pytest.raises(ValueError):
        PoolConfig(deadline_extension=2.0)
    with pytest.raises(ValueError):
        PoolConfig(deadline_extension=0.5)
    with pytest.raises(ValueError):
        PoolConfig(step_hook_interval=0)


def test_stats_shape_and_tenant_listing():
    with EnginePool(PoolConfig(shards=3, workers=2)) as pool:
        pool.register("a", pool_ordered)
        pool.register("b", pool_ordered)
        assert sorted(pool.tenants()) == ["a", "b"]
        stats = pool.stats()
        for key in (
            "checks", "checks_ok", "checks_error", "checks_degraded",
            "deadline_hits", "shed", "breaker_shed", "mutations",
            "queue_depth", "tenants", "shards", "workers",
            "breakers", "breaker_trips", "breaker_rejections",
            "breakers_open",
        ):
            assert key in stats, key
        assert stats["tenants"] == 2
        assert stats["shards"] == 3
        assert stats["workers"] == 2


def test_pool_metrics_mirror_and_prometheus_text():
    with EnginePool() as pool:
        pool.register("t", pool_ordered)
        metrics = PoolMetrics(pool)
        head = build(1, 2, 3)
        metrics.record_check(pool.check("t", head))
        metrics.record_check(pool.check("nobody", None))
        text = metrics.to_prometheus_text()
        assert "ditto_pool_checks_total 2" in text
        assert "ditto_pool_checks_ok_total 1" in text
        assert "ditto_pool_checks_error_total 1" in text
        assert "ditto_pool_tenants 1" in text
        assert "ditto_pool_check_duration_seconds" in text
