"""Simulator-core fast paths: wall-clock cost of the machinery itself.

Every other benchmark in this directory measures *simulated* time; this
one measures the simulator's own overhead -- the thing the bitmap page
tables, pooled timers and zero-cost tracer exist to reduce.  Three
scenarios:

1. The kernel-side page-table work of complete pre-copy migrations of a
   2 MB address space at a 5% dirty rate -- round-0 collect and
   whole-space install, converging dirty rounds, final completeness
   check (the access pattern of §3.1.2) -- comparing the flat (bitmap)
   :class:`AddressSpace` against the seed implementation (preserved
   verbatim as :class:`LegacyAddressSpace`).  The migrating program's
   own writes run between rounds, untimed, as they overlap the copies
   in reality.
2. A 16-workstation migration storm: six demand-paged 1.5 MB programs
   thrashing against a residency cap while two waves of concurrent
   pre-copy and VM-flush migrations bounce them between hosts.  Repeats
   must take the exact same simulated trajectory (equal ``sim.now``,
   event counts and migration outcomes); the storm carries the
   observability, invariant and copy-plane A/B cases.
3. A timer churn loop exercising the pooled/compacting event heap,
   reported as events per wall-clock second.

Results land in ``BENCH_simcore.json`` at the repository root; the
``smoke``-marked tests re-measure quickly and fail on a >2x regression
against that recorded baseline (and on loss of the pre-copy
microbenchmark's flat-vs-legacy speedup itself).

Run standalone with ``python benchmarks/bench_simcore.py`` or under
pytest (the full test is also a pytest-benchmark case).
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _p in (str(_ROOT / "src"), str(_ROOT), str(_ROOT / "benchmarks")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pytest

from repro.config import PAGE_SIZE
from repro.kernel._legacy_address_space import LegacyAddressSpace
from repro.kernel.address_space import AddressSpace
from repro.kernel.process import Priority
from repro.migration.manager import run_migration
from repro.migration.vm_flush import run_vm_flush_migration
from repro.sim import Simulator
from repro.vm.pager import Pager
from repro.cluster import build_cluster
from repro.execution.program import ProgramImage
from repro.workloads import standard_registry

from _common import launch_program, run_once, run_until

RESULTS_PATH = _ROOT / "BENCH_simcore.json"

# -- scenario sizing ---------------------------------------------------------

#: 2 MB space (the paper's whole-machine memory) at 2 KB pages.
MICRO_PAGES = (2 * 1024 * 1024) // PAGE_SIZE
MICRO_DIRTY_FRACTION = 0.05
MICRO_ROUNDS = 400
SMOKE_MICRO_ROUNDS = 60

STORM_WORKSTATIONS = 16
#: Six instances of a long-running 1.5 MB program (most of a paper-era
#: workstation's 2 MB memory), so nothing exits mid-migration and every
#: scan/sweep runs over a near-full-size page table.
STORM_PROGRAMS = ("hog",) * 6
STORM_SEED = 23

#: The storm workload: a 1.5 MB space dirtied across its whole working
#: set every tick, so each pre-copy round scans a full-size page table
#: and a capped pager keeps evicting.  The dirty pattern is sampled with
#: ``Random.sample`` (O(pages written), not O(working set)) to keep the
#: workload's own wall-clock cost out of the page-table comparison.
HOG_PAGES = (1536 * 1024) // PAGE_SIZE
HOG_IMAGE_BYTES = 64 * 1024
HOG_HOT_PAGES = 24
HOG_COLD_WRITES_PER_TICK = 10
HOG_TICK_US = 20_000


def _hog_body(ctx):
    from repro.kernel.process import Compute, TouchPages

    sim = ctx.sim
    rng = sim.rand.stream(f"wl:hog:{ctx.self_pid.as_int():08x}")
    base = HOG_IMAGE_BYTES // PAGE_SIZE
    hot = list(range(base, base + HOG_HOT_PAGES))
    cold_lo, cold_hi = base + HOG_HOT_PAGES, HOG_PAGES - 16
    while True:
        yield Compute(HOG_TICK_US)
        cold = rng.sample(range(cold_lo, cold_hi), HOG_COLD_WRITES_PER_TICK)
        yield TouchPages(hot + cold)


def _storm_registry():
    registry = standard_registry()
    registry.register(ProgramImage(
        name="hog", image_bytes=HOG_IMAGE_BYTES,
        space_bytes=HOG_PAGES * PAGE_SIZE,
        code_bytes=int(HOG_IMAGE_BYTES * 0.7), body_factory=_hog_body,
    ))
    return registry

ENGINE_EVENTS = 120_000
SMOKE_ENGINE_EVENTS = 20_000


# -- scenario 1: pre-copy dirty-scan loop ------------------------------------

def _round_sizes():
    """Dirty-set sizes per recopy round: the first round sees the 5%
    dirty rate, later rounds shrink as pre-copy converges (§3.1.2), and
    the last scan finds nothing."""
    first = int(MICRO_PAGES * MICRO_DIRTY_FRACTION)
    sizes = [first]
    while sizes[-1] > 1:
        sizes.append(max(sizes[-1] // 8, 1))
    sizes.append(0)
    return sizes  # e.g. [51, 6, 1, 0] for 1024 pages at 5%


def _precopy_cycles(space_cls, cycles, seed=7):
    """Kernel-side page-table work of complete pre-copy migrations of
    one 2 MB space: the round-0 dirty-bit reset and whole-space install,
    each converging round's collect-and-install, and the final
    completeness check.  The migrating program's own writes happen
    *between* rounds (it keeps running, concurrently with the copies)
    and are not part of the measured manager-side cost.

    Returns ``(timed_seconds, pages_installed)``.
    """
    rng = random.Random(seed)
    size = MICRO_PAGES * PAGE_SIZE
    sizes = _round_sizes()
    schedule = [
        [rng.sample(range(MICRO_PAGES), n) for n in sizes]
        for _ in range(cycles)
    ]
    src = space_cls(size)
    src.load_image()
    timed = 0.0
    moved = 0
    for batches in schedule:
        dst = space_cls(size)
        started = time.perf_counter()
        src.collect_dirty()        # round 0: reset the dirty bits...
        dst.apply_copy(src.pages)  # ...and install the whole space
        timed += time.perf_counter() - started
        moved += MICRO_PAGES
        for batch in batches:
            src.touch_pages(batch, write=True)  # program writes: untimed
            started = time.perf_counter()
            dirty = src.collect_dirty()
            dst.apply_copy(dirty)
            timed += time.perf_counter() - started
            moved += len(dirty)
        started = time.perf_counter()
        complete = dst.identical_to(src)
        timed += time.perf_counter() - started
        assert complete
    return timed, moved


def _measure_precopy(space_cls, cycles):
    """Best-of-three to shake scheduler noise out of the ratio."""
    best, moved = None, 0
    for _ in range(3):
        elapsed, moved = _precopy_cycles(space_cls, cycles)
        best = elapsed if best is None else min(best, elapsed)
    return best, moved


# -- scenario 2: 16-host migration storm -------------------------------------

def _run_storm(seed=STORM_SEED, instrument=None):
    """Build a 16-workstation cluster, thrash six demand-paged programs
    against a residency cap, then migrate all six concurrently (pre-copy
    and VM-flush alternating).

    ``instrument(cluster)`` runs right after the cluster is built and
    before the timed region's activity -- used to switch observability
    on for the metrics-overhead comparison."""
    started = time.perf_counter()
    cluster = build_cluster(
        n_workstations=STORM_WORKSTATIONS, seed=seed,
        registry=_storm_registry(),
    )
    sim = cluster.sim
    if instrument is not None:
        instrument(cluster)

    holders = []
    for i, prog in enumerate(STORM_PROGRAMS, start=1):
        holder = launch_program(cluster, prog, where=f"ws{i}")
        run_until(cluster, lambda h=holder: "pid" in h)
        holders.append(holder)
    cluster.run(until_us=sim.now + 200_000)

    n = len(holders)
    results = []

    def locate(station_names):
        """(kernel, logical host) pairs for the hogs, wherever the
        last wave left them."""
        pairs = []
        for holder, ws in zip(holders, station_names):
            kernel = cluster.station(ws).kernel
            lh = kernel.logical_hosts[holder["pid"].logical_host_id]
            pairs.append((kernel, lh))
        return pairs

    def thrash(victims):
        """Demand-page every program space as if freshly migrated:
        warm file-server copy, nothing resident, and a residency cap
        well below the working set so the programs fault and evict
        continuously."""
        for kernel, lh in victims:
            for space in lh.spaces:
                pager = Pager(kernel.model, f"pager:{space.name}",
                              max_resident=max(8, space.n_pages // 6))
                pager.attach(space)
                for page in space.pages:
                    pager.store[page.index] = page.version
                space.collect_dirty()  # the store now holds every page
                pager.attach(space, resident=False)
        cluster.run(until_us=sim.now + 600_000)

    def migrate_wave(wave, victims, src_names, dest_names):
        """Migrate every hog concurrently, pre-copy and VM-flush
        alternating.  Destinations are pinned, one idle host each:
        concurrent migrations racing for the same first responder
        would otherwise overcommit a host's memory."""
        expected = len(results) + len(victims)
        for ordinal, (kernel, lh) in enumerate(victims):
            dest = cluster.pm(dest_names[ordinal]).pcb.pid

            def mgr_body(kernel=kernel, lh=lh, ordinal=ordinal,
                         dest=dest):
                if ordinal % 2:
                    stats = yield from run_vm_flush_migration(
                        kernel, lh, dest_pm=dest)
                else:
                    stats = yield from run_migration(
                        kernel, lh, dest_pm=dest)
                results.append((wave, ordinal, stats))

            kernel.create_process(
                cluster.pm(src_names[ordinal]).pcb.logical_host,
                mgr_body(), priority=Priority.MIGRATION,
                name=f"storm-mgr-{wave}-{ordinal}",
            )
        run_until(cluster, lambda: len(results) == expected)

    # Wave 1: ws1..ws6 -> ws7..ws12.  Wave 2: back to the (now
    # freed) origin hosts, re-thrashed first so the second wave's
    # pre-copy rounds see fresh dirty sets.
    homes = [f"ws{i + 1}" for i in range(n)]
    away = [f"ws{i + 7}" for i in range(n)]
    victims = locate(homes)
    thrash(victims)
    migrate_wave(1, victims, homes, away)
    victims = locate(away)
    thrash(victims)
    migrate_wave(2, victims, away, homes)
    cluster.run(until_us=sim.now + 200_000)
    elapsed = time.perf_counter() - started

    outcomes = [
        (wave, ordinal, stats.success, stats.error, len(stats.rounds),
         stats.residual_pages)
        for wave, ordinal, stats in sorted(results, key=lambda r: r[:2])
    ]
    copies = [ws.kernel.ipc.copies for ws in cluster.workstations]
    return {
        "seconds": elapsed,
        "events": sim.event_count,
        "events_per_sec": round(sim.event_count / elapsed),
        "sim_time_us": sim.now,
        "migrations_ok": sum(1 for o in outcomes if o[2]),
        "outcomes": outcomes,
        # Copy data-plane counters (summed over every workstation).
        "copy_pacing_events": sum(c.pacing_events for c in copies),
        "copy_bursts": sum(c.bursts for c in copies),
        "total_pages_copied": sum(
            sum(r.pages for r in stats.rounds) + stats.residual_pages
            for _, _, stats in results
        ),
    }


def _measure_storm(repeats=3, instrument=None):
    """Best-of-``repeats`` wall clock for the storm; the simulated
    trajectory is deterministic, so every repeat must agree on it."""
    best = None
    for _ in range(repeats):
        run = _run_storm(instrument=instrument)
        if best is None:
            best = run
        else:
            assert (run["sim_time_us"], run["events"], run["outcomes"]) == (
                best["sim_time_us"], best["events"], best["outcomes"])
            if run["seconds"] < best["seconds"]:
                best = run
    return best


def _enable_metrics(cluster):
    cluster.sim.metrics.enable()


def _measure_metrics_overhead(disabled=None, repeats=3):
    """Wall-clock cost of the unified metrics registry on the storm.

    Runs the flat-page-table storm with ``sim.metrics`` enabled and
    compares against the instrumented-but-disabled run (``disabled``,
    measured by the caller or remeasured here).  Both runs must take the
    identical simulated trajectory -- instrumentation only observes."""
    if disabled is None:
        disabled = _measure_storm(repeats=repeats)
    enabled = _measure_storm(repeats=repeats,
                             instrument=_enable_metrics)
    identical = (
        enabled["sim_time_us"] == disabled["sim_time_us"]
        and enabled["events"] == disabled["events"]
        and enabled["outcomes"] == disabled["outcomes"]
    )
    return {
        "scenario": "migration_storm (flat page tables)",
        "disabled_seconds": round(disabled["seconds"], 3),
        "enabled_seconds": round(enabled["seconds"], 3),
        "overhead_ratio": round(enabled["seconds"] / disabled["seconds"], 3),
        "disabled_events_per_sec": disabled["events_per_sec"],
        "enabled_events_per_sec": enabled["events_per_sec"],
        "identical_trajectory": identical,
    }


def _install_invariants(cluster, check_interval_events=1):
    from repro.faults import InvariantChecker

    InvariantChecker(
        cluster, strict=True, check_interval_events=check_interval_events,
    ).install(cluster.sim)


def _measure_invariant_overhead(disabled=None, repeats=3):
    """Wall-clock cost of the invariant harness on the storm.

    The hook is compiled into the run loop unconditionally (one
    attribute load + branch per event, like ``Tracer.active``), so the
    *dormant* cost is measured by re-running the plain storm and
    comparing against the same-session baseline: the ratio must stay
    within the 1.05x noise floor.  The *enabled* run (checker installed,
    structural scan every event) is reported for scale and must take the
    identical simulated trajectory -- the checker only observes."""
    if disabled is None:
        disabled = _measure_storm(repeats=repeats)
    dormant = _measure_storm(repeats=repeats)
    enabled = _measure_storm(repeats=repeats,
                             instrument=_install_invariants)
    identical = (
        enabled["sim_time_us"] == disabled["sim_time_us"]
        and enabled["events"] == disabled["events"]
        and enabled["outcomes"] == disabled["outcomes"]
        and dormant["sim_time_us"] == disabled["sim_time_us"]
    )
    return {
        "scenario": "migration_storm (flat page tables)",
        "disabled_seconds": round(disabled["seconds"], 3),
        "dormant_seconds": round(dormant["seconds"], 3),
        "enabled_seconds": round(enabled["seconds"], 3),
        "dormant_ratio": round(dormant["seconds"] / disabled["seconds"], 3),
        "enabled_ratio": round(enabled["seconds"] / disabled["seconds"], 3),
        "identical_trajectory": identical,
    }


# -- scenario 2c: copy data-plane A/B -----------------------------------------

def _run_storm_copy_plane(enabled):
    from repro._fastpath import COPY_PLANE

    COPY_PLANE.set_all(enabled)
    try:
        return _run_storm()
    finally:
        COPY_PLANE.set_all(False)


def _measure_copy_plane(baseline=None, repeats=3):
    """A/B of the bulk-transfer data plane (``COPY_PLANE``: burst pacing
    + adaptive pre-copy) on the storm.

    COPY_PLANE *changes the modelled trajectory* (fewer, larger pacing
    events; adaptive round counts), so raw events/sec is not comparable
    across the two runs --
    burst pacing removes exactly the cheapest events (pacing timers), so
    the surviving event mix is heavier per event even as the storm
    finishes much faster.  The headline throughput metric is therefore
    **simulated microseconds per wall-clock second** (how much simulation
    a second of CPU buys), which is what the overhaul optimizes; raw
    events/sec for both sides is reported alongside.  The toggles-off run
    must remain byte-identical to the canonical storm trajectory."""
    off = on = None
    for _ in range(repeats):
        run_off = _run_storm_copy_plane(False)
        run_on = _run_storm_copy_plane(True)
        if off is None or run_off["seconds"] < off["seconds"]:
            off = run_off
        if on is None or run_on["seconds"] < on["seconds"]:
            on = run_on
    if baseline is None:
        baseline = off
    identical = (
        off["sim_time_us"] == baseline["sim_time_us"]
        and off["events"] == baseline["events"]
        and off["outcomes"] == baseline["outcomes"]
    )
    off_rate = off["sim_time_us"] / off["seconds"]
    on_rate = on["sim_time_us"] / on["seconds"]
    return {
        "scenario": "migration_storm (copy plane A/B)",
        "off_seconds": round(off["seconds"], 3),
        "on_seconds": round(on["seconds"], 3),
        "off_events": off["events"],
        "on_events": on["events"],
        "off_events_per_sec": off["events_per_sec"],
        "on_events_per_sec": on["events_per_sec"],
        "off_sim_us_per_wall_sec": round(off_rate),
        "on_sim_us_per_wall_sec": round(on_rate),
        "throughput_speedup": round(on_rate / off_rate, 3),
        "off_pacing_events": off["copy_pacing_events"],
        "on_pacing_events": on["copy_pacing_events"],
        "pacing_reduction": round(
            off["copy_pacing_events"] / max(on["copy_pacing_events"], 1), 2
        ),
        "on_bursts": on["copy_bursts"],
        "migrations_ok": (off["migrations_ok"], on["migrations_ok"]),
        "identical_trajectory": identical,
    }


# -- scenario 2d: adaptive pre-copy on a phased hog ---------------------------

#: The adaptive-termination victim: 256 pages with a heavy write phase
#: (a 160-page rotating window) that ends *inside* copy round 0, leaving
#: a 4-page hot set.  The static policy freezes right after the phase
#: change with the heavy residue still dirty; the dirty-rate projection
#: rides out the transient and freezes only the hot set.
PHASED_PAGES = 256
PHASED_HEAVY_PAGES = 160
PHASED_HEAVY_UNTIL_US = 1_600_000
PHASED_HOT = tuple(range(200, 204))


def _migrate_phased_hog():
    """One pre-copy migration of the phased hog; returns its stats."""
    from repro.kernel.process import Compute, Delay, TouchPages

    cluster = build_cluster(n_workstations=3, seed=5)
    sim = cluster.sim
    kernel = cluster.workstations[1].kernel
    lh = kernel.create_logical_host()
    kernel.allocate_space(lh, PHASED_PAGES * PAGE_SIZE, name="phased-hog")

    def victim():
        window = 0
        while sim.now < PHASED_HEAVY_UNTIL_US:
            yield Compute(3_000)
            yield TouchPages(range(window, window + 16))
            window = (window + 16) % PHASED_HEAVY_PAGES
        while True:
            yield Compute(3_000)
            yield TouchPages(PHASED_HOT)

    kernel.create_process(lh, victim(), priority=Priority.LOCAL, name="hog")
    results = []

    def mgr():
        yield Delay(200_000)
        stats = yield from run_migration(kernel, lh)
        results.append(stats)

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr(),
        priority=Priority.MIGRATION, name="mgr",
    )
    while not results and sim.peek() is not None:
        sim.run(until_us=sim.now + 500_000)
    assert results and results[0].success, "phased-hog migration failed"
    return results[0]


def _measure_adaptive_precopy():
    """Static vs adaptive pre-copy termination on the phased hog: the
    freeze time must drop without meaningfully inflating total copy
    traffic (the <=1.1x pages budget asserted by the acceptance test)."""
    from repro._fastpath import COPY_PLANE

    static = _migrate_phased_hog()
    COPY_PLANE.adaptive_precopy = True
    try:
        adaptive = _migrate_phased_hog()
    finally:
        COPY_PLANE.adaptive_precopy = False

    def pages(stats):
        return sum(r.pages for r in stats.rounds) + stats.residual_pages

    return {
        "scenario": "phased hog pre-copy (static vs adaptive)",
        "static_freeze_us": static.freeze_us,
        "adaptive_freeze_us": adaptive.freeze_us,
        "freeze_reduction": round(static.freeze_us / adaptive.freeze_us, 2),
        "static_rounds": static.precopy_rounds,
        "adaptive_rounds": adaptive.precopy_rounds,
        "static_pages": pages(static),
        "adaptive_pages": pages(adaptive),
        "pages_ratio": round(pages(adaptive) / pages(static), 3),
        "stop_reason": adaptive.stop_reason,
        "projected_residual_pages": adaptive.projected_residual_pages,
    }


# -- scenario 4: process-parallel sweep ---------------------------------------

#: 4 configs x 32 replications of the mid-run migration scenario: each
#: unit is light (~10-15 ms), so the sweep is sized by unit count to
#: keep total compute well clear of the pool's fixed start-up cost --
#: that is what lets a 4-worker pool show its slope.
SWEEP_GRID = {"scale": [1.0, 2.0], "workstations": [3, 6]}
SWEEP_REPLICATIONS = 32
SWEEP_WORKERS = 4
SMOKE_SWEEP_REPLICATIONS = 2


def _sweep_spec(replications=SWEEP_REPLICATIONS, workers=1):
    from repro.parallel import SweepSpec

    return SweepSpec.from_grid(
        "migration", SWEEP_GRID, base={"settle_ms": 1000},
        replications=replications, master_seed=STORM_SEED, workers=workers,
    )


def _measure_parallel_sweep():
    """Serial vs 4-worker wall clock for the same sweep, plus the
    byte-identity check on the merged payloads.  ``cores_available`` is
    recorded because the speedup is physically bounded by it: the >=2.5x
    acceptance threshold only applies on >=4 real cores (the assertion
    in ``test_simcore_fastpaths`` gates on this field -- a 1-core CI box
    must not fail, nor fake, the number)."""
    import dataclasses
    import os

    from repro.parallel import run_sweep

    spec = _sweep_spec()
    serial = run_sweep(spec)
    parallel = run_sweep(dataclasses.replace(spec, workers=SWEEP_WORKERS))
    cores = os.cpu_count()
    result = {
        "scenario": "migration sweep",
        "units": spec.n_units,
        "workers": SWEEP_WORKERS,
        "cores_available": cores,
        "serial_seconds": round(serial.wall_seconds, 3),
        "parallel_seconds": round(parallel.wall_seconds, 3),
        "speedup": round(serial.wall_seconds / parallel.wall_seconds, 3),
        "identical_results": parallel.to_json() == serial.to_json(),
    }
    if not cores or cores < 4:
        # A sub-1x "speedup" on a starved box is expected, not a
        # regression; say so in the payload instead of leaving a
        # mysterious number (e.g. 0.7x on a 1-core CI runner).
        result["gated"] = "insufficient cores"
    return result


# -- scenario 5: placement-plane policy comparison ----------------------------

#: Cluster sizes for the placement comparison (the paper's multicast
#: candidate query costs one selection message per host, so 128 hosts
#: is where cached probing has to show its O(k) advantage).
PLACEMENT_HOSTS = (8, 32, 128)
PLACEMENT_POLICIES = ("first_responder", "random_k", "best_fit")
PLACEMENT_SEED = 42
#: Jobs per host in the smoke variant (the full run uses the scenario
#: default of 3 per host; one per host keeps the smoke under a minute).
SMOKE_PLACEMENT_JOBS_PER_HOST = 1


def _run_placement(n_hosts, policy, seed=PLACEMENT_SEED, jobs=None):
    """One ``job_storm`` run; returns its payload plus wall seconds."""
    from repro.parallel.scenarios import get_scenario

    config = {"workstations": n_hosts, "policy": policy}
    if jobs is not None:
        config["jobs"] = jobs
    started = time.perf_counter()
    result = get_scenario("job_storm")(config, seed)
    result["wall_seconds"] = round(time.perf_counter() - started, 3)
    return result


def _measure_placement(hosts=PLACEMENT_HOSTS, jobs=None):
    """Exec-to-start latency and selection message cost of the three
    placement policies on the open-loop job storm at each cluster size.

    The headline numbers come from the largest scale: the factor by
    which RandomK probing cuts selection messages per exec versus the
    paper's first-responder multicast, and RandomK's p99 exec-to-start
    latency relative to zero-probe CachedBestFit (the acceptance bound
    is >=5x fewer messages within 1.2x of best-fit's p99 at 128 hosts).
    Anti-entropy refresh traffic is reported separately -- it is cache
    upkeep amortized over every exec, not per-selection cost.  Each row
    also carries the run's total cost per completed exec (packets,
    simulated events, host milliseconds), ungated."""
    scales = {}
    for n in hosts:
        row = {}
        for policy in PLACEMENT_POLICIES:
            r = _run_placement(n, policy, jobs=jobs)
            assert r["failed"] == 0, (n, policy, r["failure_kinds"])
            row[policy] = {
                "completed": r["completed"],
                "selection_msgs_per_exec": round(
                    r["selection_msgs_per_exec"], 2),
                "anti_entropy_msgs": r["anti_entropy_msgs"],
                "admission_declines": r["admission_declines"],
                "latency_p50_us": r["latency_us"]["p50"],
                "latency_p99_us": r["latency_us"]["p99"],
                "throughput_jobs_per_s": round(
                    r["throughput_jobs_per_s"], 2),
                "wall_seconds": r["wall_seconds"],
                "packets_per_exec": round(r["packets"] / r["completed"], 2),
                "events_per_exec": round(r["events"] / r["completed"], 2),
                "wall_ms_per_exec": round(
                    1000 * r["wall_seconds"] / r["completed"], 3),
            }
        scales[str(n)] = row
    big = scales[str(max(hosts))]
    return {
        "scenario": "job_storm placement policies",
        "seed": PLACEMENT_SEED,
        "scales": scales,
        "selection_reduction_at_max": round(
            big["first_responder"]["selection_msgs_per_exec"]
            / big["random_k"]["selection_msgs_per_exec"], 2),
        "randomk_p99_vs_best_fit_at_max": round(
            big["random_k"]["latency_p99_us"]
            / max(big["best_fit"]["latency_p99_us"], 1), 3),
    }


# -- scenario 3: event-heap churn ---------------------------------------------

def _engine_churn(n_ticks):
    """A self-rescheduling tick that schedules-and-cancels two timeout
    timers per iteration (the transport's retransmission pattern), plus
    one mass-cancellation burst -- pooled timers and one-pass compaction
    both get exercised.  Returns events/sec plus the engine counters."""
    sim = Simulator(seed=1)
    burst = [sim.schedule(10_000_000 + i, lambda: None) for i in range(10_000)]
    for timer in burst:
        timer.cancel()
    del burst
    remaining = [n_ticks]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            t1 = sim.schedule(7, lambda: None)
            t2 = sim.schedule(9, lambda: None)
            t1.cancel()
            t2.cancel()
            sim.schedule(5, tick)

    sim.schedule(1, tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return {
        "events": sim.event_count,
        "events_per_sec": round(sim.event_count / elapsed),
        "timers_reused": sim.timers_reused,
        "compactions": sim.compactions,
    }


# -- collection ----------------------------------------------------------------

def collect(micro_rounds=MICRO_ROUNDS, engine_events=ENGINE_EVENTS):
    """Run all three scenarios; returns the BENCH_simcore.json payload."""
    flat_s, flat_moved = _measure_precopy(AddressSpace, micro_rounds)
    legacy_s, legacy_moved = _measure_precopy(LegacyAddressSpace, micro_rounds)
    assert flat_moved == legacy_moved  # identical modelled work

    storm = _measure_storm()
    engine = _engine_churn(engine_events)
    metrics_overhead = _measure_metrics_overhead(disabled=storm)
    invariant_overhead = _measure_invariant_overhead(disabled=storm)
    copy_plane = _measure_copy_plane(baseline=storm)
    adaptive_precopy = _measure_adaptive_precopy()
    parallel_sweep = _measure_parallel_sweep()
    placement = _measure_placement()

    return {
        "generated_by": "benchmarks/bench_simcore.py",
        "page_size": PAGE_SIZE,
        "precopy_microbench": {
            "n_pages": MICRO_PAGES,
            "space_bytes": MICRO_PAGES * PAGE_SIZE,
            "dirty_fraction": MICRO_DIRTY_FRACTION,
            "rounds": micro_rounds,
            "pages_recopied": flat_moved,
            "flat_seconds": round(flat_s, 4),
            "legacy_seconds": round(legacy_s, 4),
            "speedup": round(legacy_s / flat_s, 2),
            "flat_pages_per_sec": round(flat_moved / flat_s),
            "legacy_pages_per_sec": round(legacy_moved / legacy_s),
        },
        "migration_storm": {
            "n_workstations": STORM_WORKSTATIONS,
            "programs": list(STORM_PROGRAMS),
            "migrations_ok": storm["migrations_ok"],
            "flat_seconds": round(storm["seconds"], 3),
            "flat_events_per_sec": storm["events_per_sec"],
            "sim_time_us": storm["sim_time_us"],
        },
        "metrics_overhead": metrics_overhead,
        "invariant_overhead": invariant_overhead,
        "copy_plane": copy_plane,
        "adaptive_precopy": adaptive_precopy,
        "parallel_sweep": parallel_sweep,
        "placement": placement,
        "engine": engine,
    }


def _load_baseline():
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text())
    return None


# -- pytest entry points -------------------------------------------------------

def test_simcore_fastpaths(benchmark):
    """Full acceptance run: >=5x on the dirty-scan pre-copy loop,
    identical simulated trajectories across every storm A/B."""
    payload = run_once(benchmark, collect)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    micro = payload["precopy_microbench"]
    storm = payload["migration_storm"]
    assert storm["migrations_ok"] == 2 * len(STORM_PROGRAMS)  # two waves
    assert micro["speedup"] >= 5.0, micro
    assert payload["engine"]["timers_reused"] > 0
    assert payload["engine"]["compactions"] >= 1

    overhead = payload["metrics_overhead"]
    assert overhead["identical_trajectory"], (
        "enabling metrics changed the simulated trajectory"
    )
    assert overhead["overhead_ratio"] <= 1.15, (
        f"enabled metrics cost {overhead['overhead_ratio']:.2f}x "
        f"on the storm (budget: 1.15x)"
    )

    invariants = payload["invariant_overhead"]
    assert invariants["identical_trajectory"], (
        "installing the invariant checker changed the simulated trajectory"
    )
    assert invariants["dormant_ratio"] <= 1.05, (
        f"the dormant invariant hook cost {invariants['dormant_ratio']:.2f}x "
        f"on the storm (budget: 1.05x)"
    )

    copy_plane = payload["copy_plane"]
    assert copy_plane["identical_trajectory"], (
        "the COPY_PLANE-off storm diverged from the canonical trajectory"
    )
    assert copy_plane["migrations_ok"][1] == 2 * len(STORM_PROGRAMS)
    assert copy_plane["throughput_speedup"] >= 1.3, copy_plane
    assert copy_plane["pacing_reduction"] >= 3.0, copy_plane

    adaptive = payload["adaptive_precopy"]
    assert adaptive["adaptive_freeze_us"] < adaptive["static_freeze_us"], (
        adaptive
    )
    assert adaptive["pages_ratio"] <= 1.1, adaptive

    sweep = payload["parallel_sweep"]
    assert sweep["identical_results"], (
        "parallel sweep output differed from serial -- determinism broken"
    )
    # The parallel slope needs real cores underneath it; on smaller
    # machines the number is recorded honestly but not asserted.
    if sweep["cores_available"] and sweep["cores_available"] >= 4:
        assert sweep["speedup"] >= 2.5, sweep

    placement = payload["placement"]
    assert placement["selection_reduction_at_max"] >= 5.0, placement
    assert placement["randomk_p99_vs_best_fit_at_max"] <= 1.2, placement


@pytest.mark.smoke
def test_smoke_precopy_scan_speedup():
    """Quick CI check: the flat representation still beats the seed by a
    wide margin, and pages/sec has not regressed >2x vs the recorded
    baseline."""
    flat_s, moved = _measure_precopy(AddressSpace, SMOKE_MICRO_ROUNDS)
    legacy_s, legacy_moved = _measure_precopy(LegacyAddressSpace,
                                              SMOKE_MICRO_ROUNDS)
    assert moved == legacy_moved
    assert legacy_s / flat_s >= 3.0, (flat_s, legacy_s)
    baseline = _load_baseline()
    if baseline:
        floor = baseline["precopy_microbench"]["flat_pages_per_sec"] / 2
        assert moved / flat_s >= floor, (
            f"pre-copy pages/sec regressed >2x: {moved / flat_s:.0f} "
            f"vs recorded {floor * 2:.0f}"
        )


@pytest.mark.smoke
def test_smoke_metrics_disabled_is_free():
    """Quick CI check: with the registry left disabled (the default),
    the instrumented storm still clears the recorded events/sec floor --
    i.e. the dormant instrumentation shows no measurable slowdown."""
    run = _run_storm()
    baseline = _load_baseline()
    if baseline:
        floor = baseline["migration_storm"]["flat_events_per_sec"] / 2
        assert run["events_per_sec"] >= floor, (
            f"disabled-metrics storm regressed >2x: {run['events_per_sec']} "
            f"events/sec vs recorded {floor * 2:.0f}"
        )
    # Enabling metrics must not change the simulated trajectory either.
    enabled = _run_storm(instrument=_enable_metrics)
    assert (enabled["sim_time_us"], enabled["events"], enabled["outcomes"]) \
        == (run["sim_time_us"], run["events"], run["outcomes"])


@pytest.mark.smoke
def test_smoke_invariants_dormant_is_free():
    """Quick CI check: with no checker installed (the default), the
    storm -- which now carries the invariant hook in its run loop --
    still clears the recorded events/sec floor, and installing a
    checker does not change the simulated trajectory."""
    run = _run_storm()
    baseline = _load_baseline()
    if baseline:
        floor = baseline["migration_storm"]["flat_events_per_sec"] / 2
        assert run["events_per_sec"] >= floor, (
            f"dormant-invariants storm regressed >2x: "
            f"{run['events_per_sec']} events/sec vs recorded {floor * 2:.0f}"
        )
    checked = _run_storm(
        instrument=lambda c: _install_invariants(c, check_interval_events=16),
    )
    assert (checked["sim_time_us"], checked["events"], checked["outcomes"]) \
        == (run["sim_time_us"], run["events"], run["outcomes"])


@pytest.mark.smoke
def test_smoke_copy_plane():
    """Quick CI check: with COPY_PLANE left off (the default) the storm
    still takes the canonical trajectory; switched on, burst pacing cuts
    the scheduled copy-pacing events >=3x with every migration intact."""
    canonical = _run_storm()
    off = _run_storm_copy_plane(False)
    on = _run_storm_copy_plane(True)
    assert (off["sim_time_us"], off["events"], off["outcomes"]) == (
        canonical["sim_time_us"], canonical["events"], canonical["outcomes"])
    assert on["migrations_ok"] == off["migrations_ok"]
    assert on["copy_bursts"] > 0
    assert off["copy_pacing_events"] >= 3 * on["copy_pacing_events"], (
        off["copy_pacing_events"], on["copy_pacing_events"])


@pytest.mark.smoke
def test_smoke_sweep_parallel_identical():
    """Quick CI check (2 workers): a small migration sweep merged from a
    worker pool is byte-identical to the serial run."""
    import dataclasses

    from repro.parallel import run_sweep

    spec = _sweep_spec(replications=SMOKE_SWEEP_REPLICATIONS)
    serial = run_sweep(spec)
    parallel = run_sweep(dataclasses.replace(spec, workers=2))
    assert parallel.to_json() == serial.to_json()
    assert parallel.workers_used == 2


@pytest.mark.smoke
def test_smoke_report_roundtrip(tmp_path):
    """Quick CI check: the RunReport pipeline end-to-end -- build one
    from a real instrumented migration, write it, load it back, and
    self-diff to zero.  The freeze-time decomposition (residual copies
    + self) must account for stats.freeze_us, the property the paper's
    phase tables rest on."""
    from repro.__main__ import _migrate_scenario
    from repro.obs import SelfProfiler, build_migration_report, diff_reports
    from repro.obs.report import load_report, write_report

    state = {}

    def setup(cluster):
        cluster.sim.trace.enable("*")
        cluster.sim.metrics.enable()
        state["profiler"] = SelfProfiler(cluster.sim)

    cluster, stats = _migrate_scenario("tex", 0, setup)
    report = build_migration_report(
        cluster, stats, seed=0, program="tex", profiler=state["profiler"]
    )
    assert stats.success
    assert report["checks"]["freeze_decomposition_ok"], report["checks"]
    path = tmp_path / "report.json"
    write_report(report, str(path))
    diff = diff_reports(load_report(str(path)), load_report(str(path)))
    assert diff["ok"]
    assert diff["total_time_delta_us"] == 0


@pytest.mark.smoke
def test_smoke_placement():
    """Quick CI check of the placement-plane acceptance bound at the
    full 128-host scale with a lighter job count (one per host):
    RandomK probing must cut selection messages per exec >=5x versus the
    first-responder multicast, with every job completing.  The full run
    (``collect``) additionally holds RandomK's p99 exec-to-start within
    1.2x of CachedBestFit's; the smoke's smaller sample makes a tail
    percentile too noisy to gate on."""
    n = max(PLACEMENT_HOSTS)
    jobs = n * SMOKE_PLACEMENT_JOBS_PER_HOST
    multicast = _run_placement(n, "first_responder", jobs=jobs)
    probing = _run_placement(n, "random_k", jobs=jobs)
    for r in (multicast, probing):
        assert r["failed"] == 0, r["failure_kinds"]
        assert r["completed"] == jobs
    reduction = (multicast["selection_msgs_per_exec"]
                 / probing["selection_msgs_per_exec"])
    assert reduction >= 5.0, (
        f"RandomK selection traffic reduction at {n} hosts fell to "
        f"{reduction:.1f}x ({multicast['selection_msgs_per_exec']:.1f} -> "
        f"{probing['selection_msgs_per_exec']:.1f} msgs/exec; floor 5x)"
    )


@pytest.mark.smoke
def test_smoke_engine_events_per_sec():
    """Quick CI check: timer pooling/compaction still engage, and
    events/sec has not regressed >2x vs the recorded baseline."""
    engine = _engine_churn(SMOKE_ENGINE_EVENTS)
    assert engine["timers_reused"] > 0
    assert engine["compactions"] >= 1
    baseline = _load_baseline()
    if baseline:
        floor = baseline["engine"]["events_per_sec"] / 2
        assert engine["events_per_sec"] >= floor, (
            f"events/sec regressed >2x: {engine['events_per_sec']} "
            f"vs recorded {floor * 2:.0f}"
        )


def main():
    payload = collect()
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    micro, storm = payload["precopy_microbench"], payload["migration_storm"]
    sweep = payload["parallel_sweep"]
    print(f"\npre-copy scan speedup: {micro['speedup']}x "
          f"(target >= 5x)  storm: {storm['flat_seconds']}s  metrics "
          f"overhead: {payload['metrics_overhead']['overhead_ratio']}x "
          f"(budget <= 1.15x)", file=sys.stderr)
    print(f"sweep speedup: {sweep['speedup']}x "
          f"at {sweep['workers']} workers on {sweep['cores_available']} "
          f"core(s) (target >= 2.5x on >= 4 cores)  "
          f"identical: {sweep['identical_results']}", file=sys.stderr)
    plane = payload["copy_plane"]
    adaptive = payload["adaptive_precopy"]
    print(f"copy plane: {plane['throughput_speedup']}x sim-time throughput "
          f"(target >= 1.3x), pacing events {plane['off_pacing_events']} -> "
          f"{plane['on_pacing_events']} ({plane['pacing_reduction']}x, "
          f"target >= 3x)  adaptive pre-copy: freeze "
          f"{adaptive['static_freeze_us'] / 1000:.0f} -> "
          f"{adaptive['adaptive_freeze_us'] / 1000:.0f} ms at "
          f"{adaptive['pages_ratio']}x pages (budget <= 1.1x)",
          file=sys.stderr)
    placement = payload["placement"]
    print(f"placement at {max(PLACEMENT_HOSTS)} hosts: "
          f"{placement['selection_reduction_at_max']}x fewer selection "
          f"msgs/exec with RandomK (target >= 5x), p99 at "
          f"{placement['randomk_p99_vs_best_fit_at_max']}x best-fit "
          f"(budget <= 1.2x)", file=sys.stderr)


if __name__ == "__main__":
    main()
