"""A frame's receive handlers run as one event: exactness against the
per-receiver execution.

The usual reference is the same world run under a rate-0
:class:`TiePerturber`: it takes no swap, but it makes the segment give
each receive handler its own scheduled event, so the run is the
unbatched execution of the same world.  Where a fault copy ends a group
the perturbed run shares the delivery pass, so that order is pinned by
hand instead.
"""

from repro.config import DEFAULT_MODEL
from repro.faults import DuplicateFault, FaultPlane
from repro.net import BROADCAST, BernoulliLoss, Ethernet, Nic
from repro.net.addresses import workstation_address
from repro.sim import Simulator
from repro.sim.engine import arm_perturber
from repro.verify import TiePerturber

N_HOSTS = 6
CRASHED = 3


class RecordingLoss(BernoulliLoss):
    """Bernoulli loss that keeps every draw it makes."""

    def __init__(self, rate):
        super().__init__(rate)
        self.draws = []

    def drops(self, sim, packet):
        lost = super().drops(sim, packet)
        self.draws.append((sim.now, lost))
        return lost


def _lossy_world(perturber=None, seed=4, loss_rate=0.3, queries=12):
    """Hosts answer each broadcast query with a unicast reply; one host
    has crashed (no handler table).  Returns the run's observables."""
    sim = Simulator(seed=seed)
    if perturber is not None:
        sim.install_perturber(perturber)
    sim.metrics.enable()
    loss = RecordingLoss(loss_rate)
    net = Ethernet(sim, DEFAULT_MODEL, loss=loss)
    nics = []
    for i in range(N_HOSTS):
        nic = Nic(sim, workstation_address(i))
        net.attach(nic)
        nics.append(nic)
    order = []
    runs = [0] * N_HOSTS

    def table(i, nic):
        def on_query(p):
            order.append((i, "q", p.payload, sim.now))
            runs[i] += 1
            nic.emit(p.src, "r", p.payload)

        def on_reply(p):
            order.append((i, "r", p.payload, sim.now))
            runs[i] += 1

        return {"q": on_query, "r": on_reply}

    for i, nic in enumerate(nics):
        nic.install_handlers(table(i, nic))
    nics[CRASHED].remove_handlers()
    for q in range(queries):
        sender = nics[q % N_HOSTS]
        if q % N_HOSTS == CRASHED:
            sender = nics[0]
        sender.emit(BROADCAST, "q", q)
    sim.run()

    def metric(name, nic):
        counter = sim.metrics.get(name, str(nic.address))
        return counter.value if counter is not None else 0

    return {
        "trajectory": (sim.now, sim.event_count, net.packets_sent,
                       net.packets_dropped),
        "received": [nic.received for nic in nics],
        "dropped_no_handler": [nic.dropped_no_handler for nic in nics],
        "rx_packets": [metric("net.rx_packets", nic) for nic in nics],
        "rx_dropped": [metric("net.rx_dropped", nic) for nic in nics],
        "drops": [metric("net.drops", nic) for nic in nics],
        "draws": loss.draws,
        "order": order,
        "runs": runs,
    }, net.rx_coalesced


class TestBroadcastWithLoss:
    def test_counters_draws_and_order_match_unbatched_run(self):
        batched, coalesced = _lossy_world()
        unbatched, none_coalesced = _lossy_world(TiePerturber(seed=1, rate=0.0))
        assert coalesced > 0
        assert none_coalesced == 0
        # The world is not degenerate: loss struck and the crashed host
        # saw frames it could not take.
        assert any(lost for _, lost in batched["draws"])
        assert batched["dropped_no_handler"][CRASHED] > 0
        assert batched == unbatched

    def test_every_counted_arrival_runs_its_handler_once(self):
        world, _ = _lossy_world()
        # A NIC's received count is the number of handlers it ran; the
        # metrics mirror the plain counters.
        assert world["received"] == world["runs"]
        assert world["rx_packets"] == world["received"]
        assert world["rx_dropped"] == world["dropped_no_handler"]
        # Every loss draw that delivered is an arrival somewhere, and
        # every loss is one net.drops count.
        delivered = sum(1 for _, lost in world["draws"] if not lost)
        assert delivered == (sum(world["received"])
                             + sum(world["dropped_no_handler"]))
        assert sum(world["drops"]) == sum(
            1 for _, lost in world["draws"] if lost)


class TestBroadcastWithDuplicates:
    def test_copy_sorts_between_the_handlers_around_it(self):
        # Every receiver gets a duplicate exactly one processing delay
        # after the original, i.e. at the instant the handlers run.  Per
        # receiver, the copy is scheduled before the handler, so the
        # copies interleave with the handlers; the copies' handlers then
        # interleave with the follow-up timers the originals arm.
        delay = DEFAULT_MODEL.packet_process_us
        sim = Simulator(seed=0)
        net = Ethernet(sim, DEFAULT_MODEL, faults=FaultPlane(
            [DuplicateFault(1.0, delay_us=delay)]))
        nics = []
        for i in range(4):
            nic = Nic(sim, workstation_address(i))
            net.attach(nic)
            nics.append(nic)
        got = []

        def on_query(i):
            def handler(p):
                got.append((sim.now, i, "q"))
                sim.schedule(delay, lambda: got.append((sim.now, i, "f")))
            return handler

        for i, nic in enumerate(nics[1:], start=1):
            nic.install_handlers({"q": on_query(i)})
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        original = got[0][0]
        # The three originals share no event: each copy ends the group.
        assert net.rx_coalesced == 0
        assert [(t - original, i, what) for t, i, what in got] == [
            (0, 1, "q"), (0, 2, "q"), (0, 3, "q"),
            (delay, 1, "q"), (delay, 1, "f"), (delay, 2, "q"),
            (delay, 2, "f"), (delay, 3, "q"), (delay, 3, "f"),
            (2 * delay, 1, "f"), (2 * delay, 2, "f"), (2 * delay, 3, "f"),
        ]


class TestCoalescingCount:
    def _net(self, n_hosts, crashed=()):
        sim = Simulator(seed=0)
        net = Ethernet(sim, DEFAULT_MODEL)
        nics = []
        runs = []
        for i in range(n_hosts):
            nic = Nic(sim, workstation_address(i))
            net.attach(nic)
            nics.append(nic)
            if i not in crashed:
                nic.install_handlers({"x": runs.append})
        return sim, net, nics, runs

    def test_broadcast_folds_receivers_minus_one(self):
        sim, net, nics, runs = self._net(7, crashed=(4,))
        for k in range(5):
            nics[k].emit(BROADCAST, "x", k)
        sim.run()
        # Each broadcast reaches 6 NICs; the crashed one runs nothing,
        # so 5 handlers share one event: 4 folded per broadcast.
        receivers = [5, 5, 5, 5, 6]  # nics[4] itself sends the last one
        assert len(runs) == sum(receivers)
        assert net.rx_coalesced == sum(r - 1 for r in receivers)

    def test_unicast_frames_never_coalesce(self):
        sim, net, nics, runs = self._net(4)
        for k in range(12):
            nics[k % 4].emit(nics[(k + 1) % 4].address, "x", k)
        sim.run()
        assert len(runs) == 12
        assert net.rx_coalesced == 0

    def test_cluster_count_is_sum_over_broadcasts(self):
        from repro.cluster import build_cluster
        from repro.execution import ExecSpec, run_program
        from repro.workloads import standard_registry

        cluster = build_cluster(n_workstations=5, seed=5,
                                registry=standard_registry(scale=0.2))
        net = cluster.net
        folded = []
        transmit = net.transmit

        def counting_transmit(packet):
            if packet.is_broadcast:
                # Every other NIC is attached and running, no loss.
                folded.append(len(net.addresses) - 2)
            transmit(packet)

        net.transmit = counting_transmit
        codes = []

        def session(ctx):
            for i in range(3):
                codes.append((yield from run_program(
                    ctx, ExecSpec("cc68", args=(f"f{i}.c",), where="*"))))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=600_000_000)
        assert codes == [0, 0, 0]
        assert folded
        assert net.rx_coalesced == sum(folded)


def _faulty_exec_storm(perturber=None, n_ws=8, jobs=6):
    """``jobs`` back-to-back ``@ *`` execs on ``n_ws`` hosts under a
    fault plane that duplicates and delays frames."""
    from repro.cluster import build_cluster
    from repro.execution import ExecSpec, run_program
    from repro.faults import DuplicateFault, FaultPlane, ReorderFault
    from repro.workloads import standard_registry

    faults = FaultPlane([DuplicateFault(0.05), ReorderFault(0.05)])
    arm_perturber(perturber)
    try:
        cluster = build_cluster(n_workstations=n_ws, seed=9, faults=faults,
                                registry=standard_registry(scale=0.2))
    finally:
        arm_perturber(None)
    codes = []

    def session(ctx):
        for i in range(jobs):
            codes.append((yield from run_program(
                ctx, ExecSpec("cc68", args=(f"f{i}.c",), where="*"))))

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=600_000_000)
    sim = cluster.sim
    stations = cluster.workstations + cluster.server_machines
    return {
        "trajectory": (sim.now, sim.event_count, cluster.net.packets_sent,
                       tuple(codes)),
        "received": [s.nic.received for s in stations],
    }, faults.stats(), cluster.net.rx_coalesced


def test_exec_storm_under_duplicates_and_delays_matches_unbatched_run():
    batched, stats, coalesced = _faulty_exec_storm()
    unbatched, _, none_coalesced = _faulty_exec_storm(
        TiePerturber(seed=3, rate=0.0))
    # The plan really duplicated and delayed frames, and groups formed.
    assert stats["duplicated"] > 0 and stats["reordered"] > 0
    assert coalesced > 0 and none_coalesced == 0
    assert batched["trajectory"][3] == (0,) * 6
    assert batched == unbatched
