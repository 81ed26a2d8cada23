"""A6 -- extrapolation: the paper's numbers on faster hardware.

One value of a calibrated model is asking what the 1985 trade-offs look
like as the network speeds up.  Sweeping the Ethernet from the paper's
10 Mbit/s to 100 Mbit/s (and scaling kernel packet processing with CPU
speed) shows which conclusions are architectural and which were
artifacts of the wire: pre-copy's *relative* advantage over
freeze-and-copy persists, while absolute freeze times collapse toward
the kernel-state-copy floor.
"""

from dataclasses import replace

from repro.config import DEFAULT_MODEL
from repro.cluster import build_cluster
from repro.execution import ExecSpec, exec_program
from repro.kernel.process import Priority
from repro.metrics.report import ExperimentReport, register
from repro.migration.manager import run_migration
from repro.migration.simple import run_freeze_and_copy
from repro.workloads import standard_registry

from _common import run_once, run_until

#: (label, bandwidth bits/us, packet processing us) -- processing shrinks
#: with the faster CPUs that accompanied faster LANs.
GENERATIONS = (
    ("1985: 10 Mbit, 1 MIPS", 10.0, 985),
    ("~1990: 100 Mbit, 10 MIPS", 100.0, 99),
)


def _measure(bits_per_us, packet_process_us, strategy, seed=51):
    model = replace(DEFAULT_MODEL, ethernet_bits_per_us=bits_per_us,
                    packet_process_us=packet_process_us)
    cluster = build_cluster(n_workstations=3, seed=seed, model=model,
                            registry=standard_registry(scale=3.0))
    holder = {}

    def session(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("parser", where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    run_until(cluster, lambda: "pid" in holder)
    cluster.run(until_us=cluster.sim.now + 1_000_000)
    kernel = cluster.workstations[1].kernel
    lh = kernel.logical_hosts[holder["pid"].logical_host_id]
    results = []

    def mgr():
        if strategy == "precopy":
            stats = yield from run_migration(kernel, lh)
        else:
            stats = yield from run_freeze_and_copy(kernel, lh)
        results.append(stats)

    kernel.create_process(cluster.pm("ws1").pcb.logical_host, mgr(),
                          priority=Priority.MIGRATION, name="mgr")
    run_until(cluster, lambda: bool(results))
    assert results[0].success, results[0].error
    return results[0]


def test_hardware_generation_sweep(benchmark):
    def run():
        out = {}
        for label, bw, proc in GENERATIONS:
            out[label] = (
                _measure(bw, proc, "precopy"),
                _measure(bw, proc, "freeze"),
            )
        return out

    by_generation = run_once(benchmark, run)
    report = ExperimentReport(
        "A6", "extrapolation: migration on successive hardware generations"
    )
    for label, (pre, naive) in by_generation.items():
        report.add(f"{label}: pre-copy freeze", "ms", None,
                   round(pre.freeze_us / 1000, 1))
        report.add(f"{label}: freeze-and-copy freeze", "ms", None,
                   round(naive.freeze_us / 1000, 1))
        report.add(f"{label}: pre-copy advantage", "x", None,
                   round(naive.freeze_us / pre.freeze_us, 1))
    report.note("kernel-state copy (14 ms + 9 ms/object) becomes the freeze "
                "floor once the wire is fast; the architectural advantage "
                "of pre-copying persists across generations")
    register(report)
    old_pre, old_naive = by_generation[GENERATIONS[0][0]]
    new_pre, new_naive = by_generation[GENERATIONS[1][0]]
    # Faster hardware shrinks absolute freezes...
    assert new_pre.freeze_us < old_pre.freeze_us
    assert new_naive.freeze_us < old_naive.freeze_us
    # ...but pre-copy still beats freeze-and-copy on both generations.
    assert old_naive.freeze_us > 2 * old_pre.freeze_us
    assert new_naive.freeze_us > 2 * new_pre.freeze_us
