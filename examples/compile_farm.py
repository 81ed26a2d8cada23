#!/usr/bin/env python
"""The paper's §1 motivating scenario: offload builds, keep editing.

"A user may wish to compile a program and reformat the documentation
after fixing a program error, while continuing to read mail...  forcing
them to share a single workstation degrades interactive response and
increases the running time of non-interactive programs."

Here the same work runs twice: everything crammed onto the user's own
workstation, then offloaded to idle machines with ``@ *``.  Both the
batch makespan and the editing interference are measured.

Run:  python examples/compile_farm.py
"""

from repro.cluster import build_cluster
from repro.cluster.owner import Owner
from repro.execution import ExecSpec, run_program
from repro.workloads import standard_registry

JOBS = (("cc68", ("main.c",)), ("tex", ("paper.tex",)), ("cc68", ("util.c",)))


def run_scenario(offload: bool, seed: int = 7):
    cluster = build_cluster(
        n_workstations=5, registry=standard_registry(scale=0.5), seed=seed
    )
    owner = Owner(cluster.workstations[0])
    owner.arrive()

    finished = []

    if offload:
        # Idle machines take one job each: submit them all at once.
        def batch_session(ctx, program, args):
            code = yield from run_program(
                ctx, ExecSpec(program, args=args, where="*"))
            finished.append((program, ctx.sim.now, code))

        for i, (program, args) in enumerate(JOBS):
            cluster.spawn_session(
                cluster.workstations[0],
                lambda ctx, p=program, a=args: batch_session(ctx, p, a),
                name=f"job{i}",
            )
    else:
        # One 2 MB workstation cannot hold three builds at once (the
        # paper's machines could not either); a single-machine user runs
        # them back to back.
        def serial_session(ctx):
            for program, args in JOBS:
                code = yield from run_program(ctx, ExecSpec(program, args=args))
                finished.append((program, ctx.sim.now, code))

        cluster.spawn_session(cluster.workstations[0], serial_session, name="serial")

    cluster.run(until_us=300_000_000)
    assert len(finished) == len(JOBS), "some jobs did not finish"
    makespan_s = max(t for _, t, _ in finished) / 1e6
    return makespan_s, owner


def main():
    local_makespan, local_owner = run_scenario(offload=False)
    farm_makespan, farm_owner = run_scenario(offload=True)

    print("=== compile farm: everything local vs offloaded with '@ *' ===\n")
    print(f"{'':30s}{'all local':>12s}{'offloaded':>12s}")
    print(f"{'batch makespan (s)':30s}{local_makespan:12.1f}{farm_makespan:12.1f}")
    print(f"{'owner mean interference (us)':30s}"
          f"{local_owner.mean_interference_us():12.0f}"
          f"{farm_owner.mean_interference_us():12.0f}")
    print(f"{'owner worst interference (us)':30s}"
          f"{local_owner.worst_interference_us():12.0f}"
          f"{farm_owner.worst_interference_us():12.0f}")
    speedup = local_makespan / farm_makespan
    print(f"\noffloading finished the batch {speedup:.1f}x sooner -- and note "
          "the interference column:\nlocally invoked builds run at the same "
          "priority as the editor and make it stutter,\nwhile offloaded (and "
          "any remote) work never touches the owner's keystrokes.")


if __name__ == "__main__":
    main()
