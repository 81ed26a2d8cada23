"""Crash schedules, NIC outages, and the cluster supervisor's
evict-and-scrub recovery path."""

from repro.cluster import (
    build_cluster,
    install_cluster_supervisor,
)
from repro.faults.schedule import (
    CrashEvent,
    CrashSchedule,
    OutageEvent,
    OutageSchedule,
)

from tests.helpers import BareCluster


class TestBindingCacheScrubbing:
    def test_invalidate_address_removes_every_binding_to_it(self):
        cluster = BareCluster(n=3)
        a, b, c = cluster.stations
        cache = a.kernel.binding_cache
        cache.learn(101, b.address)
        cache.learn(102, b.address)
        cache.learn(103, c.address)
        assert cache.invalidate_address(b.address) == 2
        assert cache.lookup(101) is None
        assert cache.lookup(102) is None
        assert cache.lookup(103) == c.address

    def test_invalidate_address_with_no_bindings_is_a_noop(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        cache = a.kernel.binding_cache
        invalidations = cache.invalidations
        assert cache.invalidate_address(b.address) == 0
        assert cache.invalidations == invalidations

    def test_refresh_kill_switch_freezes_existing_bindings(self):
        cluster = BareCluster(n=3)
        a, b, c = cluster.stations
        cache = a.kernel.binding_cache
        cache.learn(5, b.address)
        cache.refresh_enabled = False
        cache.learn(5, c.address)  # a move: refused
        assert cache.lookup(5) == b.address
        cache.learn(6, c.address)  # an insert: still allowed
        assert cache.lookup(6) == c.address
        cache.refresh_enabled = True
        cache.learn(5, c.address)
        assert cache.lookup(5) == c.address


class TestCrashSchedule:
    def test_crash_then_reboot_at_scheduled_times(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        schedule = CrashSchedule([
            CrashEvent(at_us=100_000, host="ws1", down_us=200_000),
        ]).install(cluster)
        cluster.run(until_us=500_000)
        assert schedule.log == [
            (100_000, "ws1", "crash"),
            (300_000, "ws1", "reboot"),
        ]
        assert cluster.station("ws1").kernel.alive

    def test_crash_without_down_us_stays_down(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        schedule = CrashSchedule([
            CrashEvent(at_us=100_000, host="ws1"),
        ]).install(cluster)
        cluster.run(until_us=2_000_000)
        assert schedule.log == [(100_000, "ws1", "crash")]
        assert not cluster.station("ws1").kernel.alive

    def test_overlapping_crashes_do_not_double_kill(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        schedule = CrashSchedule([
            CrashEvent(at_us=100_000, host="ws1", down_us=500_000),
            CrashEvent(at_us=150_000, host="ws1", down_us=500_000),
        ]).install(cluster)
        cluster.run(until_us=1_000_000)
        # The second event found ws1 already down and did nothing.
        assert [k for _, _, k in schedule.log] == ["crash", "reboot"]


class TestOutageSchedule:
    def test_nic_leaves_and_rejoins_the_segment(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        schedule = OutageSchedule([
            OutageEvent(at_us=100_000, host="ws1", duration_us=300_000),
        ]).install(cluster)
        cluster.run(until_us=250_000)
        assert cluster.station("ws1").nic.ethernet is None
        cluster.run(until_us=600_000)
        assert cluster.station("ws1").nic.ethernet is cluster.net
        assert [k for _, _, k in schedule.log] == ["nic-down", "nic-up"]

    def test_host_crashed_during_outage_stays_off_the_wire(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        schedule = OutageSchedule([
            OutageEvent(at_us=100_000, host="ws1", duration_us=300_000),
        ]).install(cluster)
        cluster.sim.schedule(
            200_000, lambda: cluster.station("ws1").crash()
        )
        cluster.run(until_us=600_000)
        assert [k for _, _, k in schedule.log] == ["nic-down"]


class TestClusterSupervisor:
    def test_crash_is_detected_evicted_and_scrubbed(self):
        cluster = build_cluster(n_workstations=3, seed=0)
        supervisor = install_cluster_supervisor(
            cluster, probe_interval_us=100_000
        )
        victim = cluster.station("ws2")
        # Plant bindings on the survivors that point at the victim.
        cluster.station("ws0").kernel.binding_cache.learn(77, victim.address)
        cluster.station("ws1").kernel.binding_cache.learn(77, victim.address)
        victim.crash()
        cluster.run(until_us=300_000)
        assert [host for _, host in supervisor.evictions] == ["ws2"]
        assert supervisor.bindings_scrubbed >= 2
        assert cluster.station("ws0").kernel.binding_cache.lookup(77) is None
        assert cluster.station("ws1").kernel.binding_cache.lookup(77) is None

    def test_reboot_clears_the_eviction_so_a_second_crash_re_evicts(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        supervisor = install_cluster_supervisor(
            cluster, probe_interval_us=100_000
        )
        cluster.station("ws1").crash()
        cluster.run(until_us=300_000)
        cluster.reboot_workstation("ws1")
        cluster.run(until_us=600_000)
        cluster.station("ws1").crash()
        cluster.run(until_us=900_000)
        assert [host for _, host in supervisor.evictions] == ["ws1", "ws1"]

    def test_eviction_is_mirrored_into_metrics(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        cluster.sim.metrics.enable()
        install_cluster_supervisor(cluster, probe_interval_us=100_000)
        cluster.station("ws1").crash()
        cluster.run(until_us=300_000)
        assert cluster.sim.metrics.counter(
            "cluster.evictions", "ws1"
        ).value == 1

    def test_stopped_supervisor_stops_probing(self):
        cluster = build_cluster(n_workstations=2, seed=0)
        supervisor = install_cluster_supervisor(
            cluster, probe_interval_us=100_000
        )
        cluster.run(until_us=250_000)
        probes = supervisor.probes
        supervisor.stop()
        cluster.station("ws1").crash()
        cluster.run(until_us=800_000)
        assert supervisor.probes == probes
        assert supervisor.evictions == []
