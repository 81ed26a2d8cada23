"""The kept load counts against a process scan, under random op programs.

``Kernel.load_summary`` answers from per-logical-host counts that the
process-table and priority hooks keep current.  The oracle below is the
scan it replaced: walk every hosted logical host's live processes and
count the program-priority and ``REMOTE`` ones.  A random program of
kernel operations -- creates, exits, destroys, priority changes on
running, queued and blocked processes, suspension, freezing, migration
through the program manager, crashes and reboots -- runs on a
three-workstation cluster, and after every simulated event and every
operation each machine's summary must equal the oracle's and each
hosted logical host's counts must equal a scan of its own table.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.errors import MigrationError, SendTimeoutError
from repro.kernel import Compute, Delay, Priority, Receive
from repro.kernel.process import ProcessState
from repro.migration.migrateprog import migrate_program

PRIORITIES = [Priority.SERVER, Priority.LOCAL, Priority.REMOTE,
              Priority.BACKGROUND]


def scan_summary(kernel):
    """The oracle: the process scan ``load_summary`` used to run."""
    program_processes = 0
    remote_processes = 0
    for lh in kernel.logical_hosts.values():
        for pcb in lh.live_processes():
            if pcb.priority >= Priority.LOCAL:
                program_processes += 1
                if pcb.priority == Priority.REMOTE:
                    remote_processes += 1
    return {
        "ready": kernel.scheduler.ready_count(max_priority=Priority.LOCAL),
        "programs": program_processes,
        "remote": remote_processes,
        "memory_free": kernel.memory_free,
    }


def check(cluster):
    for machine in cluster.workstations + cluster.server_machines:
        kernel = machine.kernel
        assert kernel.load_summary() == scan_summary(kernel), kernel.name
        for lh in kernel.logical_hosts.values():
            live = lh.live_processes()
            assert lh.programs == sum(p.priority >= Priority.LOCAL for p in live)
            assert lh.remote == sum(p.priority == Priority.REMOTE for p in live)


def body(kind, us):
    if kind == "compute":
        yield Compute(us)
    elif kind == "delay":
        yield Delay(us)
    else:
        yield Receive()  # blocked until destroyed


class Harness:
    """The cluster plus the bookkeeping that picks each op's target."""

    def __init__(self, seed):
        self.cluster = build_cluster(n_workstations=3, seed=seed)
        self.ours = set()        # lhids this test created
        self.frozen = set()      # lhids this test froze
        self.migrating = set()   # lhids with a migration request in flight

    def station(self, i):
        return self.cluster.workstations[i % len(self.cluster.workstations)]

    def our_lhs(self, i=None, idle=True):
        """Hosted logical hosts this test created, on station ``i`` (or
        anywhere); ``idle`` leaves out ones frozen or being migrated."""
        stations = self.cluster.workstations if i is None else [self.station(i)]
        return [
            lh for ws in stations for _, lh in sorted(ws.kernel.logical_hosts.items())
            if lh.lhid in self.ours and not (
                idle and (lh.lhid in self.frozen or lh.lhid in self.migrating))
        ]

    def pcbs(self, which):
        """Live processes of our logical hosts, filtered by state."""
        out = []
        for lh in self.our_lhs(idle=False):
            running = lh.kernel.scheduler.running
            for pcb in lh.live_processes():
                if which == "running" and pcb is not running:
                    continue
                if which == "queued" and (pcb is running or pcb.state is not ProcessState.READY):
                    continue
                if which == "blocked" and pcb.state in (ProcessState.READY,
                                                        ProcessState.RUNNING):
                    continue
                out.append(pcb)
        return out

    def advance(self, us):
        """Run ``us`` of simulated time, checking after every event."""
        sim = self.cluster.sim
        target = sim.now + us
        while sim.peek() is not None and sim.peek() <= target:
            sim.run(until_us=target, max_events=1)
            check(self.cluster)
        sim.run(until_us=target)

    # ----------------------------------------------------------------- ops

    def create(self, i, new, priority, kind, us):
        existing = [lh for lh in self.our_lhs(i) if lh.spaces]
        kernel = self.station(i).kernel
        if new or not existing:
            lh = kernel.create_logical_host()
            kernel.allocate_space(lh, 64 * 1024, name="prop-space")
            self.ours.add(lh.lhid)
        else:
            lh = existing[us % len(existing)]
        kernel.create_process(lh, body(kind, us), priority=priority)

    def destroy(self, pick):
        pcbs = [p for p in self.pcbs("any")
                if p.logical_host.lhid not in self.migrating]
        if pcbs:
            pcb = pcbs[pick % len(pcbs)]
            pcb.logical_host.kernel.destroy_process(pcb)

    def set_priority(self, which, pick, priority):
        pcbs = self.pcbs(which)
        if pcbs:
            pcb = pcbs[pick % len(pcbs)]
            pcb.logical_host.kernel.set_priority(pcb, priority)

    def suspend(self, pick, suspend):
        pcbs = self.pcbs("any")
        if pcbs:
            pcb = pcbs[pick % len(pcbs)]
            kernel = pcb.logical_host.kernel
            (kernel.suspend_process if suspend else kernel.resume_process)(pcb)

    def freeze(self, pick):
        lhs = self.our_lhs()
        if lhs:
            lh = lhs[pick % len(lhs)]
            lh.kernel.freeze_logical_host(lh)
            self.frozen.add(lh.lhid)

    def unfreeze(self, pick):
        lhs = [lh for lh in self.our_lhs(idle=False) if lh.lhid in self.frozen]
        if lhs:
            lh = lhs[pick % len(lhs)]
            lh.kernel.unfreeze_logical_host(lh)
            self.frozen.discard(lh.lhid)

    def destroy_lh(self, pick):
        lhs = self.our_lhs()
        if lhs:
            lh = lhs[pick % len(lhs)]
            lh.kernel.destroy_logical_host(lh)

    def migrate(self, pick):
        lhs = [lh for lh in self.our_lhs() if lh.live_processes()]
        if not lhs:
            return
        lh = lhs[pick % len(lhs)]
        pid = lh.live_processes()[0].pid
        via = lh.kernel.program_manager_pcb.pid
        self.migrating.add(lh.lhid)

        def migrator(ctx):
            try:
                yield from migrate_program(pid, via_pm=via)
            except (MigrationError, SendTimeoutError):
                pass  # refused, or the host went down: the counts still hold
            finally:
                self.migrating.discard(pid.logical_host_id)

        ws = next(w for w in self.cluster.workstations if w.kernel is lh.kernel)
        self.cluster.spawn_session(ws, migrator, name="prop-migrator")

    def crash(self, i):
        self.station(i).crash()

    def reboot(self, i):
        self.cluster.reboot_workstation(self.station(i).name)


picks = st.integers(0, 63)
stations = st.integers(0, 2)
durations = st.integers(1_000, 300_000)
priorities = st.sampled_from(PRIORITIES)

creates = st.tuples(st.just("create"), stations, st.booleans(), priorities,
                    st.sampled_from(["compute", "delay", "receive"]), durations)

# Creates and priority changes appear twice: one_of picks its branches
# evenly, and these two ops feed and exercise the counts the most.
ops = st.one_of(
    creates,
    creates,
    st.tuples(st.just("advance"), durations),
    st.tuples(st.just("destroy"), picks),
    st.tuples(st.just("set_priority"),
              st.sampled_from(["any", "running", "queued", "blocked"]),
              picks, priorities),
    st.tuples(st.just("set_priority"), st.just("any"), picks, priorities),
    st.tuples(st.just("suspend"), picks, st.booleans()),
    st.tuples(st.just("freeze"), picks),
    st.tuples(st.just("unfreeze"), picks),
    st.tuples(st.just("destroy_lh"), picks),
    st.tuples(st.just("migrate"), picks),
    st.tuples(st.just("crash"), stations),
    st.tuples(st.just("reboot"), stations),
)


@given(seed=st.integers(0, 1_000),
       population=st.lists(creates, min_size=2, max_size=8),
       program=st.lists(ops, min_size=5, max_size=40))
@settings(max_examples=100, deadline=None)
def test_load_counts_match_a_process_scan(seed, population, program):
    harness = Harness(seed)
    harness.advance(1_000)
    for op, *args in population + program:
        getattr(harness, op)(*args)
        check(harness.cluster)
    harness.advance(2_000_000)
    check(harness.cluster)
