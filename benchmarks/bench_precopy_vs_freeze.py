"""E12 (ablation) -- pre-copy vs the freeze-and-copy strawman (paper §3.1).

"The time to copy address spaces is roughly 3 seconds per megabyte...
A 2 megabyte logical host state would therefore be frozen for over 6
seconds" -- versus tens to hundreds of milliseconds with pre-copying.
"""

from dataclasses import replace

from repro.config import DEFAULT_MODEL
from repro.cluster import build_cluster
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, exec_program
from repro.kernel.process import Compute, Priority, TouchPages
from repro.metrics.report import ExperimentReport, register
from repro.migration.manager import run_migration
from repro.migration.simple import run_freeze_and_copy

from _common import run_once, run_until

SIZES_MB = (0.5, 1.0, 2.0)


def _registry():
    registry = ProgramRegistry()

    def worker(ctx):
        # Modest dirtying over a 40-page working set.
        rng = ctx.sim.rand.stream(f"e12:{ctx.self_pid.as_int():08x}")
        for i in range(10_000):
            yield Compute(50_000)
            yield TouchPages([rng.randrange(40), rng.randrange(40)])
        return 0

    for mb in SIZES_MB:
        nbytes = int(mb * 1024 * 1024)
        registry.register(ProgramImage(
            name=f"job{mb}", image_bytes=nbytes - 64 * 1024, space_bytes=nbytes,
            code_bytes=int(nbytes * 0.7), body_factory=worker,
        ))
    return registry


def _migrate(strategy, mb, seed=0):
    model = replace(DEFAULT_MODEL, workstation_memory_bytes=8 * 1024 * 1024)
    cluster = build_cluster(n_workstations=3, registry=_registry(), model=model,
                            seed=seed)
    holder = {}

    def session(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec(f"job{mb}", where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    run_until(cluster, lambda: "pid" in holder)
    cluster.run(until_us=cluster.sim.now + 500_000)
    kernel = cluster.workstations[1].kernel
    lh = kernel.logical_hosts[holder["pid"].logical_host_id]
    results = []

    def mgr_body():
        if strategy == "precopy":
            stats = yield from run_migration(kernel, lh)
        else:
            stats = yield from run_freeze_and_copy(kernel, lh)
        results.append(stats)

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr_body(),
        priority=Priority.MIGRATION, name="mgr",
    )
    run_until(cluster, lambda: bool(results))
    return results[0]


def test_precopy_vs_freeze_and_copy(benchmark):
    def run():
        out = {}
        for mb in SIZES_MB:
            out[mb] = (
                _migrate("freeze", mb).freeze_us,
                _migrate("precopy", mb).freeze_us,
            )
        return out

    freeze_by_size = run_once(benchmark, run)
    report = ExperimentReport(
        "E12", "ablation: freeze time, naive freeze-and-copy vs pre-copy"
    )
    for mb, (naive_us, precopy_us) in freeze_by_size.items():
        paper_naive_s = 3.0 * mb  # the paper's 3 s/MB frozen estimate
        report.add(f"{mb} MB naive freeze-and-copy", "s", round(paper_naive_s, 1),
                   round(naive_us / 1_000_000, 2))
        report.add(f"{mb} MB pre-copy freeze", "s", None,
                   round(precopy_us / 1_000_000, 3))
        report.add(f"{mb} MB improvement", "x", None,
                   round(naive_us / precopy_us, 1))
    register(report)
    naive_2mb, precopy_2mb = freeze_by_size[2.0]
    # The paper's headline: >6 s frozen naively for 2 MB...
    assert naive_2mb > 5_500_000
    # ...versus well under half a second with pre-copying.
    assert precopy_2mb < 500_000
    assert naive_2mb / precopy_2mb > 10
