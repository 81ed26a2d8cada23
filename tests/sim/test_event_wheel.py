"""Unit tests for the hybrid event core (WheelSimulator).

The equivalence property tests in tests/properties/test_event_core.py
prove heap/wheel trajectory identity on randomized programs; these tests
pin down the wheel's own mechanics -- bucket wrap-around, the overflow
heap, dead-bucket sweeping, counters and the construction-time toggle.
"""

import pytest

from repro._fastpath import FASTPATH
from repro.sim import Simulator
from repro.sim.engine import (
    _COMPACT_MIN_CANCELLED,
    _WHEEL_SPAN,
    WheelSimulator,
)


@pytest.fixture
def wheel_sim():
    saved = FASTPATH.event_wheel
    FASTPATH.event_wheel = True
    try:
        yield Simulator()
    finally:
        FASTPATH.event_wheel = saved


class TestToggleDispatch:
    def test_simulator_constructs_wheel_when_toggled(self):
        saved = FASTPATH.event_wheel
        try:
            FASTPATH.event_wheel = True
            sim = Simulator()
            assert isinstance(sim, WheelSimulator)
            assert sim.event_core == "wheel"
            FASTPATH.event_wheel = False
            sim = Simulator()
            assert not isinstance(sim, WheelSimulator)
            assert sim.event_core == "heap"
        finally:
            FASTPATH.event_wheel = saved

    def test_explicit_class_still_constructable(self):
        saved = FASTPATH.event_wheel
        try:
            FASTPATH.event_wheel = False
            sim = WheelSimulator(seed=3)
            assert sim.event_core == "wheel"
        finally:
            FASTPATH.event_wheel = saved


class TestQueueRouting:
    def test_delay_zero_goes_to_now_queue(self, wheel_sim):
        sim = wheel_sim
        sim.schedule(0, lambda: None)
        assert sim.now_queue_hits == 1
        assert sim.wheel_hits == 0
        assert sim.overflow_hits == 0
        assert sim.alive_event_count == 1

    def test_near_delay_goes_to_wheel(self, wheel_sim):
        sim = wheel_sim
        sim.schedule(_WHEEL_SPAN - 1, lambda: None)
        assert sim.wheel_hits == 1
        assert sim.overflow_hits == 0

    def test_far_delay_overflows_to_heap(self, wheel_sim):
        sim = wheel_sim
        sim.schedule(_WHEEL_SPAN, lambda: None)
        assert sim.overflow_hits == 1
        assert sim.wheel_hits == 0

    def test_overflow_merges_before_wheel_on_tied_instant(self, wheel_sim):
        # An overflow entry and a wheel entry landing on the same
        # absolute time must fire in seq order: the overflow one was
        # necessarily scheduled earlier (it needed a delay >= the span).
        sim = wheel_sim
        seen = []
        target = _WHEEL_SPAN + 10
        sim.schedule(target, seen.append, "overflow")

        def late_scheduler():
            yield 20  # now within one span of the target
            sim.schedule(target - sim.now, seen.append, "wheel")

        sim.spawn(late_scheduler())
        sim.run()
        assert seen == ["overflow", "wheel"]
        assert sim.now == target

    def test_bucket_wraparound(self, wheel_sim):
        # Two delays whose absolute times straddle the wheel's wrap
        # point still fire in time order.
        sim = wheel_sim
        seen = []

        def body():
            yield _WHEEL_SPAN - 5  # park now just below the wrap
            sim.schedule(3, seen.append, "pre-wrap")
            sim.schedule(10, seen.append, "post-wrap")  # wraps the index

        sim.spawn(body())
        sim.run()
        assert seen == ["pre-wrap", "post-wrap"]
        assert sim.now == _WHEEL_SPAN + 5

    def test_same_bucket_fifo_order(self, wheel_sim):
        sim = wheel_sim
        seen = []
        for tag in ("a", "b", "c"):
            sim.schedule(7, seen.append, tag)
        sim.run()
        assert seen == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_wheel_entry_never_fires(self, wheel_sim):
        sim = wheel_sim
        seen = []
        doomed = sim.schedule(5, seen.append, "no")
        sim.schedule(9, seen.append, "yes")
        doomed.cancel()
        assert sim.alive_event_count == 1
        sim.run()
        assert seen == ["yes"]
        assert sim.alive_event_count == 0

    def test_cancelled_instant_does_not_advance_clock(self, wheel_sim):
        # Matching the heap core: skipping dead entries must not move
        # ``now`` to their deadline.
        sim = wheel_sim
        sim.schedule(5, lambda: None).cancel()
        sim.run()
        assert sim.now == 0

    def test_cancel_purges_bucket_entry_eagerly(self, wheel_sim):
        # Bucket entries are physically removed at cancel() time, so
        # buckets stay live-only and peek never sees a dead bucket.
        sim = wheel_sim
        sim.schedule(5, lambda: None).cancel()
        assert sim._bucket_count == 0
        live = sim.schedule(50, lambda: None)
        assert sim._bucket_count == 1
        assert sim.peek() == 50
        assert sim.alive_event_count == 1
        live.cancel()
        assert sim._bucket_count == 0
        assert sim.peek() is None
        assert sim.alive_event_count == 0

    def test_overflow_mass_cancellation_still_compacts(self, wheel_sim):
        sim = wheel_sim
        n = 4 * _COMPACT_MIN_CANCELLED
        doomed = [
            sim.schedule(_WHEEL_SPAN + 1_000 + i, lambda: None) for i in range(n)
        ]
        survivor = []
        sim.schedule(10, survivor.append, "ran")
        for t in doomed:
            t.cancel()
        assert sim.alive_event_count == 1
        sim.run()
        assert survivor == ["ran"]
        assert sim.compactions >= 1
        assert sim.alive_event_count == 0

    def test_timer_pool_reuse(self, wheel_sim):
        sim = wheel_sim
        for _ in range(50):
            sim.schedule(1, lambda: None)
        sim.run()
        for _ in range(50):
            sim.schedule(0, lambda: None)
        sim.run()
        assert sim.timers_reused > 0


class TestRunContracts:
    def test_run_until_and_quiescent_clamp(self, wheel_sim):
        sim = wheel_sim
        seen = []
        sim.schedule(10, seen.append, "a")
        sim.schedule(500, seen.append, "b")
        assert sim.run(until_us=100) == 100
        assert seen == ["a"]
        assert sim.run() == 500
        assert seen == ["a", "b"]

    def test_max_events_does_not_teleport_clock(self, wheel_sim):
        sim = wheel_sim
        for delay in (10, 20, 30):
            sim.schedule(delay, lambda: None)
        sim.run(until_us=1_000, max_events=2)
        assert sim.now == 20  # live event still pending at 30

    def test_budget_break_mid_instant_resumes_in_order(self, wheel_sim):
        sim = wheel_sim
        seen = []
        for tag in ("a", "b", "c"):
            sim.schedule(5, seen.append, tag)
        sim.run(max_events=2)
        assert seen == ["a", "b"]
        assert sim.peek() == 5
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_counters_mirrored_into_metrics(self):
        saved = FASTPATH.event_wheel
        FASTPATH.event_wheel = True
        try:
            sim = Simulator()
            sim.metrics.enable()
            sim.schedule(0, lambda: None)
            sim.schedule(5, lambda: None)
            sim.schedule(_WHEEL_SPAN + 5, lambda: None)

            def body():
                yield 1

            sim.spawn(body())
            sim.run()
            m = sim.metrics
            assert m.aggregate("engine.now_queue_hits") >= 1
            assert m.aggregate("engine.wheel_hits") >= 1
            assert m.aggregate("engine.overflow_hits") >= 1
            assert m.aggregate("engine.closure_free_steps") >= 1
        finally:
            FASTPATH.event_wheel = saved
