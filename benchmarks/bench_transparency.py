"""E9 -- Figure 2-1: network-transparent execution environment.

The paper's figure shows programs talking to the kernel server and
program manager of their *current* host through well-known local groups,
and to display/file servers through global pids -- identically for local
and remote execution.  Measured here: (a) the execution environment is
byte-for-byte the same shape locally and remotely, (b) a program's
*execution time* (past loading) is the same locally and remotely,
(c) output still lands on the requester's display.
"""

from repro.cluster import build_cluster
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, run_program
from repro.kernel.process import Compute
from repro.metrics.report import ExperimentReport, register

from _common import run_once, run_until


def _registry(captured):
    registry = ProgramRegistry()

    def capture_body(ctx):
        captured[("remote" if ctx.remote else "local")] = ctx
        start = ctx.sim.now
        yield Compute(2_000_000)
        captured[("remote-runtime" if ctx.remote else "local-runtime")] = (
            ctx.sim.now - start
        )
        return 0

    registry.register(ProgramImage(
        name="probe", image_bytes=50 * 1024, space_bytes=128 * 1024,
        code_bytes=40 * 1024, body_factory=capture_body,
    ))
    return registry


def _measure():
    captured = {}
    cluster = build_cluster(n_workstations=3, registry=_registry(captured))
    done = []

    def session(ctx):
        yield from run_program(ctx, ExecSpec("probe", args=("x",)))
        yield from run_program(
            ctx, ExecSpec("probe", args=("x",), where="ws1"))
        done.append(True)

    cluster.spawn_session(cluster.workstations[0], session, name="probe-session")
    run_until(cluster, lambda: bool(done))
    return captured, cluster


def test_environment_transparency(benchmark):
    captured, cluster = run_once(benchmark, _measure)
    local, remote = captured["local"], captured["remote"]
    report = ExperimentReport("E9", "Figure 2-1: network-transparent environment")
    report.add("args identical", "bool", 1, int(local.args == remote.args))
    report.add("name cache identical", "bool", 1,
               int(local.name_cache == remote.name_cache))
    report.add("stdout pid identical (home display)", "bool", 1,
               int(local.stdout == remote.stdout))
    report.add("kernel server reached via own-lh local group", "bool", 1,
               int(remote.kernel_server.logical_host_id
                   == remote.self_pid.logical_host_id))
    slowdown = captured["remote-runtime"] / captured["local-runtime"]
    report.add("remote/local execution-time ratio", "x", 1.0, round(slowdown, 3),
               note="same program, past loading")
    register(report)
    assert local.args == remote.args
    assert local.name_cache == remote.name_cache
    assert local.stdout == remote.stdout
    assert 0.95 < slowdown < 1.05
