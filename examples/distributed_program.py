#!/usr/bin/env python
"""Truly distributed programs (paper §1).

"Our facilities also support truly distributed programs in that a
program may be decomposed into subprograms, each of which can be run on
a separate host."

A coordinator program splits a parameter sweep into worker subprograms,
runs each on a different idle machine via ``@ *``, and gathers their
results over ordinary V IPC -- all workers reach the coordinator through
its globally valid pid no matter where anything runs.

Run:  python examples/distributed_program.py
"""

from repro.cluster import build_cluster
from repro.execution import ExecSpec, ProgramImage, exec_program, run_program
from repro.ipc.messages import Message
from repro.kernel.process import Compute, Receive, Reply, Send, TouchPages
from repro.workloads import standard_registry

N_WORKERS = 4
WORK_US = 4_000_000


def worker_body(ctx):
    """Crunch one shard, then report the partial result to the parent
    (whose pid travels in the arguments)."""
    from repro.kernel.ids import Pid

    parent = Pid.from_int(int(ctx.args[0]))
    shard = int(ctx.args[1])
    yield Compute(WORK_US)
    yield TouchPages(range(8))
    result = shard * shard  # stand-in for a real partial result
    yield Send(parent, Message("partial-result", shard=shard, value=result))
    return 0


def coordinator_body(ctx):
    """Fan out workers across the cluster, then gather."""
    for shard in range(N_WORKERS):
        yield from exec_program(ctx, ExecSpec(
            "sweep-worker",
            args=(str(ctx.self_pid.as_int()), str(shard)),
            where="*",
        ))
    total = 0
    for _ in range(N_WORKERS):
        sender, msg = yield Receive()
        total += msg["value"]
        yield Reply(sender, Message("ack"))
        print(f"  [t={ctx.sim.now / 1e6:6.2f}s] partial result "
              f"{msg['value']} for shard {msg['shard']} from {sender}")
    print(f"  [t={ctx.sim.now / 1e6:6.2f}s] total = {total}")
    return 0 if total == sum(i * i for i in range(N_WORKERS)) else 1


def main():
    registry = standard_registry(scale=0.2)
    registry.register(ProgramImage(
        name="sweep-worker", image_bytes=50 * 1024, space_bytes=128 * 1024,
        code_bytes=40 * 1024, body_factory=worker_body,
    ))
    registry.register(ProgramImage(
        name="sweep-coordinator", image_bytes=40 * 1024, space_bytes=96 * 1024,
        code_bytes=32 * 1024, body_factory=coordinator_body,
    ))
    cluster = build_cluster(n_workstations=6, registry=registry, seed=23)

    outcome = {}

    def session(ctx):
        code = yield from run_program(ctx, ExecSpec("sweep-coordinator"))
        outcome["code"] = code

    print("=== distributed parameter sweep across idle workstations ===")
    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=120_000_000)

    print(f"\ncoordinator exit code: {outcome.get('code')}")
    used = {ws.name: ws.kernel.scheduler.busy_us / 1e6
            for ws in cluster.workstations}
    print("CPU seconds used per workstation:")
    for name, busy in used.items():
        bar = "#" * int(busy * 4)
        print(f"  {name}: {busy:5.2f}s {bar}")
    workers_spread = sum(1 for busy in used.values() if busy > WORK_US / 2e6)
    print(f"\n{workers_spread} machines did substantial work: one logical "
          "program, many hosts.")
    assert outcome.get("code") == 0


if __name__ == "__main__":
    main()
