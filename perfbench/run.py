#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of three
workloads of the simulated V-System.

Usage (from the repository root)::

    python3 perfbench/run.py --workload migration_storm --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced runs,
prints the per-layer metrics, and adds one untimed pass with
:class:`repro.faults.InvariantChecker` installed that fails on any
violation of the paper's four properties (untimed and traced-only
because the checker costs a whole extra run).  Either way the run

* repeats the seed and requires the identical simulated trajectory
  (simulated end time, events, packets and every operation's outcome),
  including between the traced and untraced runs;
* requires every migration to succeed and every started job to exit 0;
  an exec may fail only by being refused by placement (counted in
  ``failed``, up to the workload's ceiling).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name the
tail percentile and sample count of each timing.  A fuller record --
toggle snapshot, seed, git sha and source digest, counters, trajectory
digest -- goes to ``.perfbench/`` with the traced run's spans.  See
``perfbench/README.md`` for what each metric means and which layer
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Timed runs per process at least, even when the second overruns
#: ``--seconds`` (on a host slower than usual).
MIN_RUNS = 2
#: Set-ups per process at least (extra ones are set-up only), so the
#: ``setup_s`` median rests on enough samples.
MIN_SETUPS = 25
#: Percentiles tried for the tail, highest first; the first with at least
#: :data:`TAIL_BEYOND` operations beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


#: What ``exec_program`` raises when placement gives up on an exec
#: after its retry budget: no host found, or the last chosen host
#: declined the creation (the program manager's admission check).
#: Any other exec error -- the image could not be loaded, the program
#: did not start -- is a failure of the run.
REFUSALS = ("NoCandidateHostError: ",
            "ExecutionError: admission check refused (stale view)")


class Workload:
    def __init__(self, name: str, setup: Callable, run: Callable,
                 execs: bool, invariant_interval: int, max_refused: int):
        self.name = name
        self.setup = setup
        self.run = run
        #: Operations are execs (else migrations).
        self.execs = execs
        #: Events between the checker's structural single-execution
        #: scans (the other three properties are checked on every hook).
        self.invariant_interval = invariant_interval
        #: Refused execs (see :data:`REFUSALS`) a run may have.
        self.max_refused = max_refused


def workloads() -> Dict[str, Workload]:
    import workloads as wl

    # FirstResponder asks every host and refuses nothing; RandomK's
    # admission check catches stale cached views and refused 0-4 of 384
    # execs per seed (0.9 on average) over seeds 1-50, so 2% is the
    # ceiling.
    return {w.name: w for w in (
        Workload("migration_storm", wl.StormState, wl.storm_run, False, 1,
                 0),
        Workload("exec_storm_multicast", wl.exec_setup("first_responder"),
                 wl.exec_run, True, 256, 0),
        Workload("exec_storm_probe", wl.exec_setup("random_k"),
                 wl.exec_run, True, 256, wl.EXEC_JOBS // 50),
    )}


# -- statistics ---------------------------------------------------------------

def percentile(samples: List[float], q: float, missing: int = 0) -> float:
    """Nearest-rank percentile, with ``missing`` operations counted as
    later than every sample (inf when the rank lands on them)."""
    n = len(samples) + missing
    rank = max(1, math.ceil(q / 100.0 * n))
    if rank > len(samples):
        return math.inf
    return sorted(samples)[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_BEYOND:
            return q
    return None


def finite(value: float) -> float:
    """JSON has no infinity: report an unreachable latency as the
    largest float, which fails any bound."""
    return value if math.isfinite(value) else sys.float_info.max


# -- provenance ---------------------------------------------------------------

def provenance(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    from repro import _fastpath

    toggles = {}
    for block in ("FASTPATH", "COPY_PLANE", "PLACEMENT"):
        flags = getattr(_fastpath, block, None)
        if flags is not None:
            toggles[block] = flags.snapshot()
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace,
            "git_sha": sha, "source_sha256": digest.hexdigest(),
            "toggles": toggles, "python": sys.version.split()[0]}


def trajectory_digest(trajectory) -> str:
    return hashlib.sha256(repr(trajectory).encode()).hexdigest()[:16]


# -- running ------------------------------------------------------------------

class Check:
    """Collects correctness failures instead of stopping at the first."""

    def __init__(self):
        self.errors: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def timed_run(work: Workload, seed: int, tracer=None):
    """Set up, then run the timed part; returns the set-up's and the
    run's (raw, reference) seconds and the outcome.  With a tracer, the
    wraps go in before the set-up (some components cache bound methods
    when built) and its records start after it."""
    from hostclock import HostClock
    from layers import MIGRATION_POINT

    gc.collect()
    clock = HostClock()
    if tracer is not None:
        tracer.install()
    try:
        clock.start()
        state = work.setup(seed)
        setup = clock.stop()
        wrap = None
        if tracer is not None:
            tracer.op_of_pid.update(state.op_of_pid)
            tracer.reset()
            point = tracer.point(MIGRATION_POINT)
            wrap = lambda gen, op: tracer.wrap_gen(gen, point, op)
        clock.start()
        outcome = work.run(state, wrap, clock.tick)
        run = clock.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup, run, outcome


def traced_run(work: Workload, seed: int):
    """One traced run; returns the tracer, the run's (raw, reference)
    seconds, its per-layer and per-point self times in reference
    seconds with call and count totals, and the outcome."""
    from layers import Tracer

    tracer = Tracer()
    _, wall, outcome = timed_run(work, seed, tracer)
    scale = wall[1] / wall[0]
    record = {
        "layers": {k: v * scale for k, v in tracer.layer_self_s().items()},
        "points": {k: v * scale for k, v in tracer.point_self_s().items()},
        "calls": tracer.point_calls(),
        "counts": tracer.point_counts(),
    }
    return tracer, wall, record, outcome


def invariant_pass(work: Workload, seed: int, check: Check):
    """Run once with the strict checker installed; returns the
    trajectory (None if a violation stopped the run)."""
    from repro.errors import InvariantViolation
    from repro.faults import InvariantChecker

    gc.collect()
    state = work.setup(seed)
    checker = InvariantChecker(
        state.cluster, strict=True,
        check_interval_events=work.invariant_interval).install(
            state.cluster.sim)
    try:
        outcome = work.run(state)
    except InvariantViolation as exc:
        check.expect(False, f"invariant violated: {exc}")
        return None
    check.expect(checker.ok, f"invariant violations: {checker.summary()}")
    return outcome.trajectory


def check_outcome(work: Workload, outcome, check: Check) -> None:
    if not work.execs:
        check.expect(outcome.failed == 0,
                     f"{outcome.failed} migrations did not succeed")
        return
    refused = 0
    for job, error, exit_info, started in outcome.trajectory[3]:
        if error is None:
            check.expect(exit_info is not None and exit_info[0] == 0,
                         f"job {job} exited {exit_info}")
        elif error.startswith(REFUSALS):
            refused += 1
        else:
            check.expect(False, f"job {job} failed: {error}")
    check.expect(refused <= work.max_refused,
                 f"{refused} execs refused, more than the "
                 f"{work.max_refused} allowed")


def end_to_end(work: Workload, outcome, wall_s: float, setup_s: float,
               rss_mb: float) -> Tuple[dict, List[str]]:
    n = outcome.sampled
    latency = outcome.samples["latency"]
    completion = outcome.samples["completion"]
    q = tail_percentile(n)
    notes = []
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "packets_per_op": (outcome.counters["packets"] / outcome.attempted,
                           "packets/op"),
        "op_latency_p50_ms": (
            finite(percentile(latency, 50, n - len(latency))) / 1000, "ms"),
        "op_latency_tail_ms": (
            finite(percentile(latency, q, n - len(latency))) / 1000, "ms"),
        "op_completion_p50_ms": (
            finite(percentile(completion, 50, n - len(completion))) / 1000,
            "ms"),
    }
    what = ("exec_start, op_completion = exec due -> exit" if work.execs
            else "pre-copy freeze, op_completion = pre-copy migration")
    notes.append(f"op_latency = {what}; op_latency_tail = p{q:g} of {n} "
                 f"operations ({len(latency)} with a sample, "
                 f"{n * (100 - q) / 100:.1f} beyond)")
    return metrics, notes


def per_layer(work: Workload, outcome, tracer_runs: List[dict],
              untraced_wall: float, traced_wall: float) -> dict:
    from layers import LAYERS

    c = outcome.counters
    n = outcome.attempted
    execs = n if work.execs else 0

    def per_exec(value):
        return value / execs if execs else 0.0

    def layer_s(layer):
        return median(run["layers"][layer] for run in tracer_runs)

    def point_s(point):
        return median(run["points"].get(point, 0.0) for run in tracer_runs)

    calls = tracer_runs[0]["calls"]
    counts = tracer_runs[0]["counts"]
    lag = outcome.samples.get("submit_lag", [])
    lag_q = tail_percentile(len(lag)) if lag else None
    metrics = {
        "sim.events_per_op": (c["events"] / n, "events/op"),
        "sim.host_us_per_event": (untraced_wall / c["events"] * 1e6, "us"),
        "net.rx_per_op": (c["nic_received"] / n, "packets/op"),
        "ipc.messages_per_op": (c["ipc_sends"] / n, "messages/op"),
        "ipc.retransmits": (c["ipc_retransmits"], "count"),
        "ipc.copy.pages": (counts.get("ipc.copy.start", 0), "count"),
        "ipc.copy.pacing_events": (c["copy_pacing_events"], "count"),
        "kernel.load_summary.calls": (calls.get("kernel.load_summary", 0),
                                      "count"),
        "kernel.load_summary.self_s": (point_s("kernel.load_summary"), "s"),
        "kernel.address_space.self_s": (point_s("kernel.address_space"),
                                        "s"),
        "kernel.scheduler.dispatches": (
            calls.get("kernel.scheduler.dispatch", 0), "count"),
        "vm.faults": (c.get("vm_faults", 0), "count"),
        "vm.evictions": (c.get("vm_evictions", 0), "count"),
        "migration.precopy_rounds": (c.get("precopy_rounds", 0), "count"),
        "migration.residual_pages": (c.get("residual_pages", 0), "count"),
        "migration.copy_efficiency": (
            c["final_pages"] / c["pages_copied"]
            if c.get("pages_copied") else 0.0, "ratio"),
        "placement.selection_msgs_per_exec": (
            per_exec(c["pm_selection_queries"]), "messages/op"),
        "placement.refresh_msgs_per_exec": (
            per_exec(c["pm_refresh_queries"]), "messages/op"),
        "placement.attempts_per_exec": (
            per_exec(c.get("placement_attempts", 0)), "attempts/op"),
        "placement.accept_ratio": (
            c["placed"] / c["placement_attempts"]
            if c.get("placement_attempts") else 0.0, "ratio"),
        "services.pm.requests_per_exec": (
            per_exec(counts.get("services.pm", 0)), "requests/op"),
        "driver.submit_lag_tail_ms": (
            percentile(lag, lag_q) / 1000 if lag_q else 0.0, "ms"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }
    for layer in LAYERS:
        if layer != "services":
            metrics[f"{layer}.self_s"] = (layer_s(layer), "s")
    # The program manager is the one service wrapped.
    metrics["services.pm.self_s"] = (layer_s("services"), "s")
    return metrics


def measure(work: Workload, seed: int, begin: float, seconds: float,
            trace: bool, rss_base: float, check: Check) -> Dict[str, Any]:
    """Repeat set-up + timed part (alternating with traced runs under
    ``trace``) while another round, and the set-ups still owed to
    :data:`MIN_SETUPS`, fit in ``seconds`` from ``begin``.  Under
    ``trace`` the untimed invariant pass goes first, inside the budget.
    Host times are kept as (raw, reference) second pairs; see
    :mod:`hostclock`."""
    from hostclock import HostClock

    walls: List[Tuple[float, float]] = []
    setups: List[Tuple[float, float]] = []
    traced_walls: List[Tuple[float, float]] = []
    tracer_runs: List[dict] = []
    reference = first = tracer = None
    invariant_s = checked = None
    if trace:
        started = time.perf_counter()
        checked = invariant_pass(work, seed, check)
        invariant_s = time.perf_counter() - started
    rounds_begin = time.perf_counter()
    while True:
        setup, wall, outcome = timed_run(work, seed)
        setups.append(setup)
        walls.append(wall)
        if reference is None:
            reference, first = outcome.trajectory, outcome
        check.expect(outcome.trajectory == reference,
                     f"timed run {len(walls)} left the trajectory")
        del outcome
        if trace:
            tracer, wall, record, traced = traced_run(work, seed)
            traced_walls.append(wall)
            tracer_runs.append(record)
            check.expect(traced.trajectory == reference,
                         "the traced run left the untraced trajectory")
            del traced
        now = time.perf_counter()
        per_round = (now - rounds_begin) / len(walls)
        owed = max(0, MIN_SETUPS - len(setups)) * median(
            x[0] for x in setups)
        if len(walls) >= (1 if trace else MIN_RUNS) and \
                now - begin + per_round + owed > seconds:
            break
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
              - rss_base)
    clock = HostClock()
    while len(setups) < MIN_SETUPS:
        gc.collect()
        clock.start()
        work.setup(seed)
        setups.append(clock.stop())
    if trace and checked is not None:
        check.expect(checked == reference,
                     "the invariant-checked run left the trajectory")
    check_outcome(work, first, check)

    wall_ref = median(w[1] for w in walls)
    result: Dict[str, Any] = {
        "outcome": first, "trajectory": trajectory_digest(reference),
        "walls": walls, "setups": setups, "rss_mb": rss_mb,
        "invariant_s": invariant_s,
        "notes": [f"host times in reference seconds (hostclock); raw "
                  f"medians: wall {median(w[0] for w in walls):.4f} s over "
                  f"{len(walls)} runs, setup "
                  f"{median(x[0] for x in setups):.4f} s over "
                  f"{len(setups)} set-ups"],
    }
    if trace:
        traced_ref = median(w[1] for w in traced_walls)
        result["metrics"] = per_layer(work, first, tracer_runs, wall_ref,
                                      traced_ref)
        result["notes"].append(
            f"per-layer self times = median of {len(tracer_runs)} traced "
            f"runs; trace.overhead = median traced / median untraced "
            f"wall ({len(traced_walls)} / {len(walls)} runs)")
        if tracer.missing:
            result["notes"].append(
                "trace points not found (their time counts to the "
                "caller's layer): " + ", ".join(tracer.missing))
        result["tracer"] = tracer
        result["tracer_runs"] = tracer_runs
    else:
        metrics, notes = end_to_end(work, first, wall_ref,
                                    median(x[1] for x in setups), rss_mb)
        result["metrics"] = metrics
        result["notes"].extend(notes)
        result["notes"].append(
            f"peak_rss_mb = peak resident set over the {rss_base:.1f} MB "
            "held before the first set-up (interpreter, imports, "
            "calibration ring)")
    result["notes"].append(f"measured for {time.perf_counter() - begin:.1f} "
                           f"s of the {seconds:g} s budget")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    work = table[args.workload]
    meta = provenance(work.name, args.seed, args.trace)
    print("perfbench " + json.dumps(meta, sort_keys=True), flush=True)

    from hostclock import HostClock

    # Allocates the calibration ring, so the baseline holds it.
    HostClock().sample()
    rss_base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check = Check()
    result = measure(work, args.seed, begin, args.seconds, bool(args.trace),
                     rss_base, check)
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        listed = [m["name"] for m in json.loads(declared.read_text())[
            "per_layer" if args.trace else "end_to_end"]]
        check.expect(sorted(listed) == sorted(result["metrics"]),
                     "metrics printed differ from BENCHMARK.json: "
                     f"{sorted(set(listed) ^ set(result['metrics']))}")
    outcome = result["outcome"]
    for note in result["notes"]:
        print("note: " + note)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for error in check.errors:
        print("CHECK FAILED: " + error)

    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in result["metrics"].items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}"
    record = dict(meta)
    record.update({
        "correct": not check.errors, "errors": check.errors,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "trajectory": result["trajectory"], "metrics": metrics,
        "notes": result["notes"], "counters": outcome.counters,
        "walls": result["walls"], "setups": result["setups"],
        "invariant_pass_s": result["invariant_s"],
    })
    if args.trace:
        record["tracer_runs"] = result["tracer_runs"]
        result["tracer"].write(str(OUT / stem), meta)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))

    print(json.dumps({"correct": not check.errors,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if not check.errors else 1


if __name__ == "__main__":
    sys.exit(main())
