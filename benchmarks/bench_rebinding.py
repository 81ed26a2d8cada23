"""Ablation -- eager vs lazy rebinding after migration (paper §3.1.4).

"When a reference to a process fails to get a response after a small
number of retransmissions, the cache entry for the associated logical
host is invalidated and the reference is broadcast...  Various
optimizations are possible, including broadcasting the new binding at
the time the new copy is unfrozen."

Measured: the latency of the *first* request a quiet peer (stale binding
cache) makes to a server after it migrated -- with the eager unfreeze
broadcast, with lazy NAK-driven rebinding, and in the worst case where
the old host has also been switched off (no NAK: pure timeout + query).
"""

from dataclasses import replace

from repro.config import DEFAULT_MODEL
from repro.cluster import build_cluster
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, exec_program
from repro.ipc.messages import Message
from repro.kernel.process import Compute, Delay, Receive, Reply, Send
from repro.metrics.report import ExperimentReport, register
from repro.migration.migrateprog import migrate_program

from _common import run_once, run_until


def _measure(eager: bool, crash_old_host: bool = False, seed=31):
    model = replace(DEFAULT_MODEL, eager_rebind=eager)
    registry = ProgramRegistry()

    def server_body(ctx):
        while True:
            sender, msg = yield Receive()
            if msg.kind == "stop":
                yield Reply(sender, Message("stopped"))
                return 0
            yield Compute(1_000)
            yield Reply(sender, msg.replying(ok=True))

    registry.register(ProgramImage(
        name="pingsrv", image_bytes=40 * 1024, space_bytes=96 * 1024,
        code_bytes=32 * 1024, body_factory=server_body,
    ))
    cluster = build_cluster(n_workstations=3, registry=registry, model=model,
                            seed=seed)
    holder = {}

    def launcher(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("pingsrv", where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], launcher, name="launch")
    run_until(cluster, lambda: "pid" in holder)

    latencies = {}
    phase = {"go": False}

    def quiet_client():
        # Learn the (soon stale) binding, then go quiet.
        yield Send(holder["pid"], Message("ping", i=0))
        while not phase["go"]:
            yield Delay(50_000)
        start = cluster.sim.now
        yield Send(holder["pid"], Message("ping", i=1))
        latencies["post_migration_ping"] = cluster.sim.now - start

    ws0 = cluster.workstations[0]
    lh = ws0.kernel.create_logical_host()
    ws0.kernel.allocate_space(lh, 8192)
    ws0.kernel.create_process(lh, quiet_client(), name="quiet")

    results = []

    def migrator(ctx):
        yield Delay(500_000)
        reply = yield from migrate_program(holder["pid"])
        results.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    run_until(cluster, lambda: bool(results))
    assert results[0]["ok"], results[0].get("error")
    cluster.run(until_us=cluster.sim.now + 500_000)  # broadcast settles
    if crash_old_host:
        cluster.workstations[1].crash()
        cluster.sim.strict = False
    phase["go"] = True
    run_until(cluster, lambda: "post_migration_ping" in latencies)
    return latencies["post_migration_ping"]


def test_eager_vs_lazy_rebinding(benchmark):
    def run():
        return (
            _measure(eager=True),
            _measure(eager=False),
            _measure(eager=False, crash_old_host=True),
        )

    eager_us, lazy_us, lazy_dead_us = run_once(benchmark, run)
    report = ExperimentReport(
        "A4", "ablation: first stale-cache request after a migration"
    )
    report.add("eager broadcast at unfreeze", "ms", None,
               round(eager_us / 1000, 2), note="cache already updated")
    report.add("lazy, old host answers nak-moved", "ms", None,
               round(lazy_us / 1000, 2), note="one extra resolve round")
    report.add("lazy, old host powered off", "ms", None,
               round(lazy_dead_us / 1000, 2),
               note="retransmissions until rebind fallback")
    register(report)
    assert eager_us <= lazy_us <= lazy_dead_us
    # With the old host gone, lazy rebinding pays retransmission timeouts.
    assert lazy_dead_us > 10 * eager_us
