#!/usr/bin/env python
"""Owner reclaim: the paper's central promise (§1).

"A user must be able to quickly reclaim his workstation to avoid
interference with personal activities, implying removal of remotely
executed programs within a few seconds time."

Long-running simulation jobs land on idle workstations via ``@ *``.
Their owners come back; each runs ``migrateprog`` and every foreign job
is off their machine within a couple of (simulated) seconds -- frozen
only for tens of milliseconds -- and still finishes correctly elsewhere.

Run:  python examples/owner_reclaim.py
"""

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.cluster.owner import Owner
from repro.execution import ExecSpec, exec_program, wait_program
from repro.migration.migrateprog import migrate_all_remote
from repro.workloads import standard_registry


def main():
    cluster = build_cluster(
        n_workstations=6, registry=standard_registry(scale=0.3), seed=11
    )
    monitor = ClusterMonitor(cluster)
    jobs = []

    # A researcher on ws0 launches four long simulations onto the pool.
    def submit_session(ctx):
        for i in range(4):
            handle = yield from exec_program(
                ctx, ExecSpec("longsim", where="*"))
            jobs.append({"pid": handle.pid, "handle": handle})

    def waiter_session(ctx, job):
        code = yield from wait_program(ctx, job["handle"])
        job["exit_code"] = code
        job["finished_at"] = ctx.sim.now

    cluster.spawn_session(cluster.workstations[0], submit_session, name="submit")
    while len(jobs) < 4 and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    for i, job in enumerate(jobs):
        cluster.spawn_session(
            cluster.workstations[0], lambda ctx, j=job: waiter_session(ctx, j),
            name=f"wait{i}",
        )

    placements = {str(j["pid"]): monitor.host_of_lhid(j["pid"].logical_host_id)
                  for j in jobs}
    print("=== simulations placed on idle workstations ===")
    for pid, host in placements.items():
        print(f"  {pid} -> {host}")

    cluster.run(until_us=cluster.sim.now + 5_000_000)

    # The owners of the borrowed machines return and reclaim them.
    borrowed = sorted({h for h in placements.values() if h != "ws0"})
    print(f"\n=== owners of {', '.join(borrowed)} return and reclaim ===")
    reclaim_results = []

    def reclaim_session(ctx, host):
        started = ctx.sim.now
        pm_pid = cluster.pm(host).pcb.pid
        outcomes = yield from migrate_all_remote(pm_pid)
        reclaim_results.append((host, ctx.sim.now - started, outcomes))

    for host in borrowed:
        Owner(cluster.station(host)).arrive()
        cluster.spawn_session(cluster.station(host),
                              lambda ctx, h=host: reclaim_session(ctx, h),
                              name=f"reclaim-{host}")

    while len(reclaim_results) < len(borrowed) and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)

    for host, took_us, outcomes in sorted(reclaim_results):
        print(f"  {host}: clear of remote work in {took_us / 1e6:.2f} s")
        for pid, reply in outcomes:
            stats = reply.get("stats")
            frozen_ms = stats.freeze_us / 1000 if stats else float("nan")
            print(f"    {pid} -> {reply.get('dest')} "
                  f"(frozen only {frozen_ms:.0f} ms of that)")

    # Everything still completes.
    cluster.run(until_us=cluster.sim.now + 120_000_000)
    print("\n=== job outcomes after reclaim ===")
    for job in jobs:
        print(f"  {job['pid']}: exit {job.get('exit_code')} "
              f"at t={job.get('finished_at', 0) / 1e6:.1f} s")
    assert all(job.get("exit_code") == 0 for job in jobs)
    print("\nall simulations finished correctly despite being preempted "
          "mid-run -- the 'pool of processors' without the interference.")


if __name__ == "__main__":
    main()
