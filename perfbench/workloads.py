"""The benchmark's three workloads, driven through the public API only.

Each workload is split the way the benchmark times it:

* ``setup(seed)`` builds and boots the cluster and launches what the
  timed part needs (host clock: ``setup_s``);
* ``run(state, wrap, tick)`` is the timed part (host clock:
  ``wall_s``) and returns an :class:`Outcome`: the simulated trajectory
  plus the samples and counters the metrics are computed from.  It
  calls ``tick()`` between simulation steps, where the benchmark
  samples the host's speed (see :mod:`hostclock`).

Inputs come from the seed alone (the cluster's named random streams and
the arrival schedule), so one seed always yields one trajectory.  The
workloads run at the repository's default toggles and set none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import (
    ExecSpec,
    FirstResponder,
    ProgramImage,
    ProgramRegistry,
    RandomK,
    build_cluster,
    exec_program,
    wait_program,
)
from repro.config import PAGE_SIZE
from repro.kernel.process import Compute, Delay, Priority, Touch, TouchPages
from repro.migration import run_migration
from repro.migration.vm_flush import run_vm_flush_migration
from repro.vm.pager import Pager

#: ``wrap(generator, op)`` -> generator: how the traced run times each
#: resumption of a migration procedure.  None when untraced.
GenWrap = Optional[Callable[[Any, int], Any]]


def _no_tick() -> None:
    pass


@dataclass
class Outcome:
    """What one timed run of a workload produced."""

    #: Operations attempted / failed: a refused exec, a job that did not
    #: exit 0, or a migration that did not succeed.
    attempted: int
    failed: int
    #: Operations the ``latency`` and ``completion`` samples are drawn
    #: from: every exec, or the pre-copy migrations.
    sampled: int
    #: Simulated end time, events, packets and per-op outcomes; equal
    #: across repeats of a seed and between traced and untraced runs.
    trajectory: Tuple
    #: Simulated-time samples in microseconds, one per sampled operation
    #: that got that far (a refused exec has none and counts as later
    #: than any limit).  ``latency``: exec due -> program start, or
    #: pre-copy freeze.  ``completion``: exec due -> job exit, or
    #: pre-copy start -> done.  ``submit_lag``: exec due -> exec
    #: requested.
    samples: Dict[str, List[int]] = field(default_factory=dict)
    #: Work counters over the timed part, from the program's counters.
    counters: Dict[str, float] = field(default_factory=dict)


def _sum(objs, attr: str) -> int:
    return sum(getattr(o, attr, 0) for o in objs)


def _counters(cluster) -> Dict[str, int]:
    """Cumulative counters the layers expose as plain attributes."""
    stations = cluster.workstations + cluster.server_machines
    transports = [s.kernel.ipc for s in stations]
    pms = list(cluster.program_managers.values())
    return {
        "events": cluster.sim.event_count,
        "packets": cluster.net.packets_sent,
        "nic_received": _sum([s.nic for s in stations], "received"),
        "ipc_sends": _sum(transports, "sends"),
        "ipc_retransmits": _sum(transports, "retransmissions"),
        "copy_pacing_events": _sum([t.copies for t in transports],
                                   "pacing_events"),
        "pm_selection_queries": _sum(pms, "selection_queries"),
        "pm_refresh_queries": _sum(pms, "refresh_queries"),
        "pm_exec_declines": _sum(pms, "exec_declines"),
    }


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


#: Simulated time between the host-speed ticks of :func:`_run_until`,
#: and the simulated instant it gives up at.
STEP_US = 50_000
LIMIT_US = 3_600_000_000


def _run_until(cluster, predicate,
               tick: Callable[[], None] = _no_tick) -> bool:
    sim = cluster.sim
    while not predicate() and sim.now < LIMIT_US:
        if sim.peek() is None:
            break
        sim.run(until_us=sim.now + STEP_US)
        tick()
    return predicate()


# -- migration_storm ---------------------------------------------------------

STORM_HOSTS = 16
STORM_HOGS = 6
#: Waves of concurrent migrations per run, 6 each: 120 migrations give a
#: p90 with 12 samples beyond it.
STORM_WAVES = 20
#: A 1.5 MB program dirtying its working set every tick, so each
#: pre-copy round scans a near-full-size page table and a capped pager
#: keeps evicting (most of a paper-era workstation's 2 MB memory).
HOG_PAGES = (1536 * 1024) // PAGE_SIZE
HOG_IMAGE_BYTES = 64 * 1024
HOG_HOT_PAGES = 24
HOG_COLD_WRITES_PER_TICK = 10
HOG_TICK_US = 20_000
THRASH_US = 600_000


def _hog_body(ctx):
    rng = ctx.sim.rand.stream(f"wl:hog:{ctx.self_pid.as_int():08x}")
    base = HOG_IMAGE_BYTES // PAGE_SIZE
    hot = list(range(base, base + HOG_HOT_PAGES))
    cold_lo, cold_hi = base + HOG_HOT_PAGES, HOG_PAGES - 16
    while True:
        yield Compute(HOG_TICK_US)
        cold = rng.sample(range(cold_lo, cold_hi), HOG_COLD_WRITES_PER_TICK)
        yield TouchPages(hot + cold)


def _precopy(op: int) -> bool:
    """Migration ``op`` moves by pre-copy (else by VM flush)."""
    return op % 3 == 0


class StormState:
    """16 booted hosts with six hogs running on ws1..ws6."""

    def __init__(self, seed: int):
        registry = ProgramRegistry()
        registry.register(ProgramImage(
            name="hog", image_bytes=HOG_IMAGE_BYTES,
            space_bytes=HOG_PAGES * PAGE_SIZE,
            code_bytes=int(HOG_IMAGE_BYTES * 0.7), body_factory=_hog_body,
        ))
        self.cluster = build_cluster(n_workstations=STORM_HOSTS, seed=seed,
                                     registry=registry)
        self.handles: List[Any] = []
        self.op_of_pid: Dict[Any, int] = {}

        def session(ctx):
            for i in range(1, STORM_HOGS + 1):
                handle = yield from exec_program(
                    ctx, ExecSpec("hog", where=f"ws{i}"))
                self.handles.append(handle)

        self.cluster.spawn_session(self.cluster.workstations[0], session,
                                   name="launch")
        if not _run_until(self.cluster,
                          lambda: len(self.handles) == STORM_HOGS):
            raise RuntimeError("the hogs did not start")
        self.cluster.run(until_us=self.cluster.sim.now + 200_000)


def storm_run(state: StormState, wrap: GenWrap = None,
              tick: Callable[[], None] = _no_tick) -> Outcome:
    """Waves of concurrent migrations of every hog between two pinned
    host sets (ws1..6 <-> ws7..12; pinned because concurrent migrations
    racing for one first responder would overcommit its memory).  One
    hog in three moves by pre-copy and two by VM flush: with four
    concurrent pre-copies per wave the freeze grew from ~0.8 s to ~4.7 s
    as pre-copy stopped converging.  The two kinds' times are separate
    distributions (~1.3 s vs ~6.2 s to complete), so the latency and
    completion samples are the pre-copy migrations' alone: the freeze
    pre-copy keeps short is the quantity measured, and a mixed median
    would land on a VM flush.  Before each wave every space is paged
    out behind a residency cap, so the hogs fault and evict while they
    are copied."""
    cluster = state.cluster
    sim = cluster.sim
    before = _counters(cluster)
    homes = [f"ws{i}" for i in range(1, STORM_HOGS + 1)]
    away = [f"ws{i}" for i in range(STORM_HOGS + 1, 2 * STORM_HOGS + 1)]
    results: List[Tuple[int, Any]] = []
    pagers: List[Pager] = []

    def locate(names):
        pairs = []
        for handle, name in zip(state.handles, names):
            kernel = cluster.station(name).kernel
            pairs.append((kernel,
                          kernel.logical_hosts[handle.pid.logical_host_id]))
        return pairs

    def thrash(victims):
        for kernel, lh in victims:
            for space in lh.spaces:
                pager = Pager(kernel.model, f"pager:{space.name}",
                              max_resident=max(8, space.n_pages // 6))
                pager.attach(space)
                for page in space.pages:
                    pager.store[page.index] = page.version
                space.collect_dirty()  # the store now holds every page
                pager.attach(space, resident=False)
                pagers.append(pager)
        cluster.run(until_us=sim.now + THRASH_US)
        tick()

    def manager(kernel, lh, op, dest):
        if _precopy(op):
            gen = run_migration(kernel, lh, dest_pm=dest)
        else:
            gen = run_vm_flush_migration(kernel, lh, dest_pm=dest)
        if wrap is not None:
            gen = wrap(gen, op)
        stats = yield from gen
        results.append((op, stats))

    here, there = homes, away
    for wave in range(STORM_WAVES):
        victims = locate(here)
        thrash(victims)
        for ordinal, (kernel, lh) in enumerate(victims):
            op = wave * STORM_HOGS + ordinal
            kernel.create_process(
                cluster.pm(here[ordinal]).pcb.logical_host,
                manager(kernel, lh, op, cluster.pm(there[ordinal]).pcb.pid),
                priority=Priority.MIGRATION, name=f"bench-mgr-{op}")
        expected = (wave + 1) * STORM_HOGS
        _run_until(cluster, lambda: len(results) == expected, tick)
        here, there = there, here
    cluster.run(until_us=sim.now + 200_000)

    results.sort(key=lambda r: r[0])
    ok = [s for _, s in results if s.success]
    precopy = [s for op, s in results if s.success and _precopy(op)]
    attempted = STORM_WAVES * STORM_HOGS
    counters = _delta(before, _counters(cluster))
    counters.update({
        "precopy_rounds": sum(len(s.rounds) for s in ok),
        "residual_pages": sum(s.residual_pages for s in ok),
        "pages_copied": sum(sum(r.pages for r in s.rounds) + s.residual_pages
                            for s in ok),
        "final_pages": sum(s.n_spaces * HOG_PAGES for s in ok),
        "vm_faults": _sum(pagers, "faults"),
        "vm_evictions": _sum(pagers, "evictions"),
    })
    return Outcome(
        attempted=attempted,
        failed=attempted - len(ok),
        sampled=sum(1 for op in range(attempted) if _precopy(op)),
        trajectory=(sim.now, sim.event_count, cluster.net.packets_sent,
                    tuple((op, s.success, s.error, len(s.rounds),
                           s.residual_pages, s.freeze_us, s.total_us)
                          for op, s in results)),
        samples={"latency": [s.freeze_us for s in precopy],
                 "completion": [s.total_us for s in precopy]},
        counters=counters,
    )


# -- exec storms --------------------------------------------------------------

EXEC_HOSTS = 128
#: 384 jobs: a p95 with 19 samples beyond it, and enough arrivals that
#: seed-to-seed differences in the arrival pattern average out.
EXEC_JOBS = 384
#: Cluster-wide arrivals per simulated second: below the single file
#: server's ~9.5 image loads/s (32 KB at the paper's 330 ms per 100 KB),
#: so the open loop does not just measure one saturated load queue.
ARRIVALS_PER_S = 6
JOB_IMAGE_BYTES = 32 * 1024
JOB_SPACE_BYTES = 96 * 1024
JOB_CODE_BYTES = 24 * 1024
JOB_SERVICE_US = 20_000


def _job_body(ctx):
    yield Compute(JOB_SERVICE_US)
    yield Touch(0, 8 * 1024)
    return 0


def arrivals(seed: int, n: int) -> List[int]:
    """Due instants (µs) of ``n`` execs: a Poisson process conditioned
    on exactly :data:`ARRIVALS_PER_S` arrivals in every simulated second, i.e.
    independent uniform instants within each second.  Fixing the count
    per second keeps the offered load the same for every seed; with
    unconditioned Poisson arrivals the exec-start tail of a few hundred
    jobs spread 30-46% across seeds."""
    rng = random.Random(f"perfbench-arrivals:{seed}")
    due: List[int] = []
    second = 0
    while len(due) < n:
        k = min(ARRIVALS_PER_S, n - len(due))
        due.extend(sorted(second * 1_000_000 + rng.randrange(1_000_000)
                          for _ in range(k)))
        second += 1
    return due


class ExecState:
    """A booted 128-host cluster with one submitter process per job,
    each asleep until its due instant: an open loop, no submitter waits
    for another's exec."""

    def __init__(self, seed: int, policy: str, jobs: int = EXEC_JOBS):
        self.policy = policy
        registry = ProgramRegistry()
        registry.register(ProgramImage(
            name="job", image_bytes=JOB_IMAGE_BYTES,
            space_bytes=JOB_SPACE_BYTES, code_bytes=JOB_CODE_BYTES,
            body_factory=_job_body,
        ))
        self.cluster = build_cluster(
            n_workstations=EXEC_HOSTS, seed=seed, registry=registry,
            placement=True if policy == "random_k" else None)
        self.due = arrivals(seed, jobs)
        #: job -> (requested_at, started_at, host, placement attempts).
        self.started: Dict[int, Tuple[int, int, str, int]] = {}
        self.exits: Dict[int, Tuple[int, int]] = {}
        self.errors: Dict[int, str] = {}
        #: Submitter pid -> job, so traced spans can name their exec.
        self.op_of_pid: Dict[Any, int] = {}
        pcbs: Dict[int, Any] = {}

        def boot(job: int, home: str):
            # Deferred so the context can reference the submitter's pid.
            yield from self._submit(
                self.cluster.make_context(pcbs[job], home=home), job)

        n = len(self.cluster.workstations)
        for i, ws in enumerate(self.cluster.workstations):
            kernel = ws.kernel
            lh = kernel.create_logical_host()
            kernel.allocate_space(lh, 64 * 1024, name="bench-session")
            for job in range(i, len(self.due), n):
                # SERVER priority: submitters generate load; at LOCAL
                # priority they would count as programs in the hosts'
                # load and skew every accept decision.
                pcb = pcbs[job] = kernel.create_process(
                    lh, boot(job, ws.name), priority=Priority.SERVER,
                    name=f"submit-{job}")
                self.op_of_pid[pcb.pid] = job

    def _submit(self, ctx, job: int):
        due = self.due[job]
        if due > ctx.sim.now:
            yield Delay(due - ctx.sim.now)
        policy = (RandomK(k=3) if self.policy == "random_k"
                  else FirstResponder())
        # The retry budget and deadline of the repository's job_storm.
        spec = ExecSpec("job", where="*", policy=policy, retry_budget=8,
                        timeout_us=4_000_000)
        try:
            handle = yield from exec_program(ctx, spec)
        except Exception as exc:  # noqa: BLE001 - classified by the check
            self.errors[job] = f"{type(exc).__name__}: {exc}"
            return
        self.started[job] = (handle.requested_at, handle.started_at,
                             handle.host or "", handle.attempts)
        code = yield from wait_program(ctx, handle)
        self.exits[job] = (code, ctx.sim.now)


def exec_run(state: ExecState, wrap: GenWrap = None,
             tick: Callable[[], None] = _no_tick) -> Outcome:
    cluster = state.cluster
    sim = cluster.sim
    before = _counters(cluster)
    n = len(state.due)
    hard_stop = state.due[-1] + 120_000_000
    while len(state.exits) + len(state.errors) < n:
        if sim.peek() is None or sim.now >= hard_stop:
            break
        sim.run(until_us=min(hard_stop, sim.now + 500_000))
        tick()

    due = state.due
    started = [j for j in range(n) if j in state.started]
    exited = [j for j in range(n) if j in state.exits]
    failed = sum(1 for j in range(n)
                 if j in state.errors or state.exits.get(j, (-1,))[0] != 0)
    counters = _delta(before, _counters(cluster))
    counters.update({
        "placement_attempts": sum(state.started[j][3] for j in started),
        "placed": len(started),
    })
    return Outcome(
        attempted=n,
        failed=failed,
        sampled=n,
        trajectory=(sim.now, sim.event_count, cluster.net.packets_sent,
                    tuple((j, state.errors.get(j), state.exits.get(j),
                           state.started.get(j)) for j in range(n))),
        samples={
            "latency": [state.started[j][1] - due[j] for j in started],
            "completion": [state.exits[j][1] - due[j] for j in exited],
            "submit_lag": [state.started[j][0] - due[j] for j in started],
        },
        counters=counters,
    )


def exec_setup(policy: str) -> Callable[[int], ExecState]:
    return lambda seed: ExecState(seed, policy)
