#!/usr/bin/env python
"""Fault injection: migration under packet loss and host failure.

Exercises the failure semantics of §3.1.3/§3.1.4:

* a lossy Ethernet -- retransmission, reply-pending and rebinding keep
  every operation exactly-once, just slower;
* a destination host that crashes mid-transfer -- "we assume that the
  new host failed and that the logical host has not been transferred":
  the original copy is unfrozen and keeps running;
* an old host that is rebooted after the program migrated away -- no
  residual dependency, the program does not notice.

Run:  python examples/fault_injection.py
"""

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, exec_program, wait_program
from repro.migration.migrateprog import migrate_program
from repro.net import BernoulliLoss
from repro.workloads import standard_registry


def scenario_lossy_migration():
    print("=== scenario 1: migrate over an Ethernet dropping 10% of packets ===")
    cluster = build_cluster(
        n_workstations=3, registry=standard_registry(scale=0.3),
        seed=5, loss=BernoulliLoss(0.10),
    )
    job = {}

    def session(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    outcome = []

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"])
        outcome.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    cluster.run(until_us=400_000_000)
    reply = outcome[0]
    stats = reply.get("stats")
    print(f"  migration ok={reply['ok']} dest={reply.get('dest')} "
          f"(freeze {stats.freeze_us / 1000:.0f} ms)")
    print(f"  job exit code: {job.get('code')}")
    print(f"  packets dropped by the wire: {cluster.net.packets_dropped}, "
          f"retransmissions: "
          f"{sum(ws.kernel.ipc.retransmissions for ws in cluster.workstations)}")
    assert reply["ok"] and job.get("code") == 0


def scenario_destination_crash():
    print("\n=== scenario 2: destination workstation dies mid-transfer ===")
    cluster = build_cluster(
        n_workstations=3, registry=standard_registry(scale=0.3), seed=6
    )
    job = {}

    def session(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    outcome = []
    dest_pm_pid = cluster.pm("ws2").pcb.pid

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"], dest_pm=dest_pm_pid)
        outcome.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    cluster.run(until_us=cluster.sim.now + 400_000)  # pre-copy under way
    print("  crashing ws2 while the address space is in flight...")
    cluster.workstations[2].crash()
    cluster.sim.strict = False
    cluster.run(until_us=600_000_000)
    reply = outcome[0]
    print(f"  migration ok={reply['ok']} error={reply.get('error')!r}")
    print(f"  job exit code (still ran at its source): {job.get('code')}")
    assert not reply["ok"] and job.get("code") == 0


def scenario_old_host_reboot():
    print("\n=== scenario 3: old host rebooted after a migration ===")
    cluster = build_cluster(
        n_workstations=3, registry=standard_registry(scale=0.3), seed=7
    )
    monitor = ClusterMonitor(cluster)
    job = {}

    def session(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    outcome = []

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"])
        outcome.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    while not outcome and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    dest = monitor.host_of_lhid(job["pid"].logical_host_id)
    print(f"  migrated ws1 -> {dest}; now rebooting ws1...")
    cluster.workstations[1].crash()
    cluster.sim.strict = False
    cluster.run(until_us=600_000_000)
    pcb_gone = cluster.station(dest).kernel.find_pcb(job["pid"]) is None
    print(f"  program ran to completion at {dest}: {pcb_gone} "
          "(no residual dependency on the dead host)")
    assert outcome[0]["ok"]


def main():
    scenario_lossy_migration()
    scenario_destination_crash()
    scenario_old_host_reboot()
    print("\nall three failure scenarios behaved as the paper specifies.")


if __name__ == "__main__":
    main()
