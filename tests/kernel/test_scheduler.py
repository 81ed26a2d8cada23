"""Unit tests for the per-workstation CPU scheduler."""

import pytest

from repro.kernel import Compute, Delay, Exit, Priority, Touch, TouchPages
from repro.kernel.process import ProcessState

from tests.helpers import BareCluster


def make_station(seed=0):
    cluster = BareCluster(n=1, seed=seed)
    return cluster, cluster.stations[0]


class TestBasicExecution:
    def test_compute_advances_and_process_exits(self):
        cluster, ws = make_station()
        log = []

        def body():
            yield Compute(5_000)
            log.append(cluster.sim.now)

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run()
        assert pcb.state is ProcessState.DEAD
        assert pcb.exit_code == 0
        assert log and log[0] >= 5_000

    def test_cpu_time_accounted(self):
        cluster, ws = make_station()

        def body():
            yield Compute(10_000)
            yield Compute(2_000)

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run()
        assert pcb.cpu_used_us >= 12_000

    def test_touch_dirties_own_space(self):
        cluster, ws = make_station()

        def body():
            yield Touch(0, 100)
            yield TouchPages([3])
            yield Compute(100)

        lh, pcb = cluster.spawn_program(ws, body())
        space = pcb.space
        cluster.run()
        assert space.pages[0].version == 1
        assert space.pages[3].version == 1

    def test_exit_instruction_sets_code(self):
        cluster, ws = make_station()

        def body():
            yield Exit(7)

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run()
        assert pcb.exit_code == 7

    def test_return_value_becomes_exit_code(self):
        cluster, ws = make_station()

        def body():
            yield Compute(10)
            return 3

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run()
        assert pcb.exit_code == 3

    def test_done_event_triggers(self):
        cluster, ws = make_station()

        def body():
            yield Compute(10)

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run()
        assert pcb.done_event.triggered

    def test_delay_does_not_use_cpu(self):
        cluster, ws = make_station()

        def sleeper():
            yield Delay(1_000_000)

        def worker(log):
            yield Compute(500_000)
            log.append(cluster.sim.now)

        log = []
        cluster.spawn_program(ws, sleeper(), name="sleeper")
        cluster.spawn_program(ws, worker(log), name="worker")
        cluster.run()
        # Worker's 500 ms of compute is not delayed by the sleeper.
        assert log and log[0] < 600_000

    def test_crashing_body_faults_process(self):
        cluster, ws = make_station()
        cluster.sim.strict = False

        def body():
            yield Compute(10)
            raise ValueError("bug in program")

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run()
        assert pcb.state is ProcessState.DEAD
        assert pcb in ws.kernel.faulted


class TestPriorities:
    def test_higher_priority_runs_first(self):
        cluster, ws = make_station()
        order = []

        def body(tag):
            yield Compute(10_000)
            order.append(tag)

        cluster.spawn_program(ws, body("low"), priority=Priority.REMOTE, name="low")
        cluster.spawn_program(ws, body("high"), priority=Priority.LOCAL, name="high")
        cluster.run()
        assert order == ["high", "low"]

    def test_preemption_of_lower_priority(self):
        cluster, ws = make_station()
        finished = {}

        def long_low():
            yield Compute(1_000_000)
            finished["low"] = cluster.sim.now

        def short_high():
            yield Compute(10_000)
            finished["high"] = cluster.sim.now

        cluster.spawn_program(ws, long_low(), priority=Priority.REMOTE, name="low")
        cluster.run(until_us=100_000)  # low is mid-compute
        cluster.spawn_program(ws, short_high(), priority=Priority.LOCAL, name="high")
        cluster.run()
        # High preempts immediately and finishes around 110 ms, not after
        # the low job's full second.
        assert finished["high"] < 200_000
        assert finished["low"] > finished["high"]

    def test_preempted_compute_is_not_lost(self):
        cluster, ws = make_station()
        finished = {}

        def low():
            yield Compute(300_000)
            finished["low"] = cluster.sim.now

        def high():
            yield Compute(100_000)
            finished["high"] = cluster.sim.now

        cluster.spawn_program(ws, low(), priority=Priority.REMOTE, name="low")
        cluster.run(until_us=100_000)
        cluster.spawn_program(ws, high(), priority=Priority.LOCAL, name="high")
        cluster.run()
        # Low finishes ~100k (already done) + 100k (high) + 200k remaining.
        assert 390_000 < finished["low"] < 450_000

    def test_equal_priority_time_slicing(self):
        cluster, ws = make_station()
        finished = {}

        def body(tag):
            yield Compute(100_000)
            finished[tag] = cluster.sim.now

        cluster.spawn_program(ws, body("a"), name="a")
        cluster.spawn_program(ws, body("b"), name="b")
        cluster.run()
        # With 10 ms slices the two finish within one slice of each other,
        # not serially (which would separate them by 100 ms).
        assert abs(finished["a"] - finished["b"]) <= 15_000

    def test_owner_editor_unaffected_by_background_job(self):
        """Paper §2: a text-editing user need not notice background jobs."""
        cluster, ws = make_station()
        keystroke_latencies = []

        def editor():
            for _ in range(20):
                yield Delay(50_000)  # think time
                start = cluster.sim.now
                yield Compute(2_000)  # handle a keystroke
                keystroke_latencies.append(cluster.sim.now - start)

        def background():
            for _ in range(100):
                yield Compute(50_000)

        cluster.spawn_program(ws, background(), priority=Priority.REMOTE, name="bg")
        cluster.spawn_program(ws, editor(), priority=Priority.LOCAL, name="editor")
        cluster.run()
        # Every keystroke is serviced promptly despite the busy machine.
        assert max(keystroke_latencies) < 5_000


class TestSuspension:
    def test_suspend_and_resume(self):
        cluster, ws = make_station()
        log = []

        def body():
            yield Compute(10_000)
            log.append("first")
            yield Compute(10_000)
            log.append("second")

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run(until_us=12_000)
        ws.kernel.suspend_process(pcb)
        cluster.run(until_us=1_000_000)
        assert log == ["first"]
        ws.kernel.resume_process(pcb)
        cluster.run()
        assert log == ["first", "second"]

    def test_destroy_running_process(self):
        cluster, ws = make_station()

        def body():
            yield Compute(1_000_000)

        _, pcb = cluster.spawn_program(ws, body())
        cluster.run(until_us=1_000)
        ws.kernel.destroy_process(pcb, exit_code=-9)
        cluster.run()
        assert pcb.state is ProcessState.DEAD
        assert pcb.exit_code == -9


class TestLoadReporting:
    def test_ready_count_counts_program_processes(self):
        cluster, ws = make_station()

        def body():
            yield Compute(1_000_000)

        def parked():
            yield Delay(10**9)

        cluster.spawn_program(ws, parked(), name="p3")
        cluster.spawn_program(ws, body(), name="p1")
        cluster.spawn_program(ws, body(), priority=Priority.REMOTE, name="p2")
        cluster.run(until_us=5_000)
        summary = ws.kernel.load_summary()
        # p3 is a program but blocked: counted in programs, not ready.
        assert summary["programs"] == 3
        assert summary["remote"] == 1
        assert summary["ready"] == 2

    def test_memory_accounting(self):
        cluster, ws = make_station()
        free_before = ws.kernel.memory_free

        def body():
            yield Compute(1_000)

        lh, _ = cluster.spawn_program(ws, body(), space_bytes=128 * 1024)
        assert ws.kernel.memory_free == free_before - 128 * 1024
        ws.kernel.destroy_logical_host(lh)
        assert ws.kernel.memory_free == free_before

    def test_out_of_memory_rejected(self):
        from repro.errors import OutOfMemoryError

        cluster, ws = make_station()
        lh = ws.kernel.create_logical_host()
        with pytest.raises(OutOfMemoryError):
            ws.kernel.allocate_space(lh, ws.kernel.memory_bytes + 1)
